import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("reproduce_tables.py", ["--m-max-2", "2", "--m-max-3", "3"]),
        ("conic_demo.py", ["--m-max", "2"]),
    ],
)
def test_script_runs_at_small_sizes(name, args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert "m=2: alpha=" in done.stdout


@pytest.mark.parametrize("args", [["--m-max-3", "2"], ["--m-max-2", "1"]])
def test_reproduce_tables_rejects_powers_below_n_before_any_work(args):
    done = run_script("reproduce_tables.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "must be at least" in done.stderr
