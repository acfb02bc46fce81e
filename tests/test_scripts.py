import json
import pathlib
import subprocess
import sys

import pytest

from starshape.cli import main

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [("reproduce_tables.py", ["--m-max-2", "2", "--m-max-3", "3"])],
)
def test_script_runs_at_small_sizes(name, args, tmp_path, monkeypatch):
    # Without --cache the script uses no cache, whatever STARSHAPE_CACHE says.
    monkeypatch.setenv("STARSHAPE_CACHE", str(tmp_path / "cache"))
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("V1: pass") == 5
    assert not (tmp_path / "cache").exists()


def test_reproduce_tables_exits_1_when_a_run_fails(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    done = run_script("reproduce_tables.py", "--m-max-2", "2", "--cache", str(not_a_dir))
    assert done.returncode == 1
    assert "is not a directory" in done.stderr


def test_reproduce_tables_json_combines_the_verify_documents(tmp_path):
    out = tmp_path / "tables.json"
    done = run_script("reproduce_tables.py", "--m-max-2", "2", "--m-max-3", "3",
                      "--seed", "1", "--json", str(out))
    assert done.returncode == 0, done.stderr
    docs = []
    for n, s, m_max in [(2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 4, 3), (3, 5, 3)]:
        path = tmp_path / f"{n}-{s}.json"
        assert main(["verify", "--n", str(n), "--s", str(s), "--m-max", str(m_max),
                     "--seed", "1", "--no-cache", "--json", str(path)]) == 0
        docs.append(json.loads(path.read_text()))
    assert out.read_text() == json.dumps(docs, indent=2, sort_keys=True)


@pytest.mark.parametrize("args", [["--m-max-3", "2"], ["--m-max-2", "1"]])
def test_reproduce_tables_rejects_powers_below_n_before_any_work(args):
    done = run_script("reproduce_tables.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "must be at least" in done.stderr


@pytest.mark.parametrize("where", ["missing/tables.json", "."], ids=["missing-dir", "a-dir"])
def test_reproduce_tables_rejects_an_unwritable_json_path_before_any_work(tmp_path, where):
    # The same check as the CLI's: no run starts when the document has
    # nowhere to go.
    done = run_script("reproduce_tables.py", "--m-max-2", "2", "--json", str(tmp_path / where))
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--json: cannot write a file at" in done.stderr
