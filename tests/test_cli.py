import json

import pytest

from starshape.cli import main


def run(*argv):
    return main(list(argv))


def test_star_golden_json(tmp_path):
    out = tmp_path / "out.json"
    rc = run("star", "--n", "2", "--s", "3", "--m", "2", "--json", str(out), "--no-cache")
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["generators"] == [[3, 0], [2, 2], [1, 3], [0, 4]]
    assert doc["colength"] == "9"
    assert doc["t"] == [3, 4]
    assert doc["alpha"] == 3 and doc["reg"] == 4
    assert doc["hf_table"] == [[0, 0, 1], [1, 0, 3], [2, 0, 6], [3, 1, 9], [4, 6, 9]]


def test_star_usage_error_s_below_n():
    rc = run("star", "--n", "2", "--s", "1", "--m", "1")
    assert rc == 2


def test_usage_error_after_parsing_shows_the_command_usage(capsys):
    assert run("star", "--n", "3", "--s", "2", "--m", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: starshape star ")
    assert "error: need --s >= --n >= 1" in err


def test_star_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = run(
            "star", "--n", "2", "--s", "3", "--m", "2",
            "--seed", "7", "--json", str(path), "--no-cache",
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_star_svg_and_csv(tmp_path):
    svg = tmp_path / "shape.svg"
    csv = tmp_path / "shape.csv"
    rc = run(
        "star", "--n", "2", "--s", "3", "--m", "2",
        "--svg", str(svg), "--csv", str(csv), "--no-cache",
    )
    assert rc == 0
    assert svg.read_text().startswith("<svg ")
    assert csv.read_text().splitlines()[0] == "type,x1,x2"
    rc = run("star", "--n", "3", "--s", "4", "--m", "1", "--svg", str(svg))
    assert rc == 2  # SVG is n=2 only


def test_verify_star24_passes(tmp_path):
    report = tmp_path / "report.json"
    rc = run(
        "verify", "--n", "2", "--s", "4", "--m-max", "4",
        "--json", str(report), "--cache", str(tmp_path / "cache"),
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["verdicts"] == {k: True for k in ("V1", "V2", "V3", "V4", "V5")}
    assert doc["rows"][1]["t"] == [4, 6]


def test_verify_usage_error_m_max_below_n():
    assert run("verify", "--n", "2", "--s", "4", "--m-max", "1") == 2


def test_verify_star34(tmp_path):
    rc = run("verify", "--n", "3", "--s", "4", "--m-max", "3")
    assert rc == 0


def test_verify_cache_reuse_is_consistent(tmp_path):
    cache = tmp_path / "cache"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run("verify", "--n", "2", "--s", "3", "--m-max", "2",
               "--json", str(r1), "--cache", str(cache)) == 0
    cached_files = list(cache.glob("*.json"))
    assert len(cached_files) == 2  # one per power
    assert run("verify", "--n", "2", "--s", "3", "--m-max", "2",
               "--json", str(r2), "--cache", str(cache)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cache_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("STARSHAPE_CACHE", str(tmp_path / "envcache"))
    assert run("star", "--n", "2", "--s", "3", "--m", "1") == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_custom_conic_expected_vertices(tmp_path):
    rc = run(
        "custom", "--points", "conic", "--m-max", "3",
        "--expect-vertices", "2,3", "--cache", str(tmp_path / "c"),
    )
    assert rc == 0
    rc = run(
        "custom", "--points", "conic", "--m-max", "3",
        "--expect-vertices", "2,2", "--cache", str(tmp_path / "c"),
    )
    assert rc == 1  # wrong expected shape is detected


def test_custom_without_expectations_reports_only(tmp_path):
    report = tmp_path / "conic.json"
    rc = run(
        "custom", "--points", "conic", "--m-max", "2",
        "--json", str(report), "--cache", str(tmp_path / "c"),
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["verdicts"] == {}
    assert doc["s"] is None
    assert [row["alpha"] for row in doc["rows"]] == [2, 4]


def test_custom_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    assert run("custom", "--points", str(missing), "--m-max", "1") == 2
    malformed = tmp_path / "bad.json"
    malformed.write_text("{]")
    assert run("custom", "--points", str(malformed), "--m-max", "1") == 2
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"dim": 2, "points": [["1", "1", "1"], ["1", "1", "1"]]}))
    assert run("custom", "--points", str(dup), "--m-max", "1") == 2
    # JSON true is no integer, although Python's bool is an int.
    bool_dim = tmp_path / "bool_dim.json"
    bool_dim.write_text(json.dumps({"dim": True, "points": [["1", "0"], ["0", "1"]]}))
    assert run("custom", "--points", str(bool_dim), "--m-max", "1") == 2
    bool_mult = tmp_path / "bool_mult.json"
    bool_mult.write_text(json.dumps({"dim": 1, "multiplicity": True,
                                     "points": [["1", "0"], ["0", "1"]]}))
    assert run("custom", "--points", str(bool_mult), "--m-max", "1") == 2


def test_invariants_command(tmp_path):
    csv = tmp_path / "table.csv"
    rc = run(
        "invariants", "--n", "2", "--s", "3", "--m-max", "3",
        "--csv", str(csv), "--no-cache",
    )
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "m,alpha,t1,t2,reg,colength"
    assert lines[1] == "1,2,2,2,2,3"
    assert lines[2] == "2,3,3,4,4,9"


def test_unknown_command_is_usage_error():
    assert run("frobnicate") == 2


def test_star_recovers_from_truncated_cache_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["star", "--n", "2", "--s", "3", "--m", "2", "--cache", str(cache)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    (path,) = cache.glob("*.json")
    intact = path.read_bytes()
    path.write_bytes(intact[:40])
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert path.read_bytes() == intact


def test_flags_rejected_before_any_output(tmp_path, monkeypatch):
    def no_computation(*args, **kwargs):
        raise AssertionError("flags must be checked before any computation")

    for name in ("compute_gin", "verify_theorem", "custom_report"):
        monkeypatch.setattr(f"starshape.cli.{name}", no_computation)
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"dim": 3, "points": [["1", "0", "0", "1"], ["0", "1", "0", "1"]]}))
    double = tmp_path / "double.json"
    double.write_text(json.dumps({"dim": 2, "multiplicity": 2, "points": [["1", "1", "1"]]}))
    out = tmp_path / "out.json"
    svg = tmp_path / "out.svg"
    cache = tmp_path / "cache"
    for argv in (
        ["star", "--n", "3", "--s", "4", "--m", "1", "--json", str(out), "--svg", str(svg)],
        ["verify", "--n", "3", "--s", "4", "--m-max", "3", "--json", str(out), "--svg", str(svg)],
        ["custom", "--points", str(cube), "--m-max", "1", "--json", str(out), "--svg", str(svg)],
        ["custom", "--points", "conic", "--m-max", "1", "--json", str(out),
         "--expect-vertices", "2,3,4"],
        ["invariants", "--n", "2", "--s", "3", "--m-max", "1", "--json", str(out),
         "--svg", str(svg)],
        ["star", "--n", "2", "--s", "3", "--m", "1", "--coeff-bound", "1", "--json", str(out)],
        ["verify", "--n", "2", "--s", "3", "--m-max", "2", "--mode", "seeded",
         "--coeff-bound", "0", "--json", str(out)],
        ["custom", "--points", "conic", "--m-max", "1", "--json", str(out),
         "--expect-vertices=-1,3"],
        ["custom", "--points", str(double), "--m-max", "1", "--json", str(out)],
    ):
        assert run(*argv, "--cache", str(cache)) == 2
        assert not out.exists() and not svg.exists() and not cache.exists()
    # A cache path that is a file or lies below one, from the flag or the
    # environment, and an output file in a missing directory or at a
    # directory.
    cache_file = tmp_path / "cache_file"
    cache_file.write_text("not a directory")
    missing = tmp_path / "missing"
    star = ["star", "--n", "2", "--s", "3", "--m", "1"]
    for bad in (cache_file, cache_file / "sub", cache_file / "sub" / "deeper"):
        assert run(*star, "--cache", str(bad), "--json", str(out)) == 2
        monkeypatch.setenv("STARSHAPE_CACHE", str(bad))
        assert run(*star, "--json", str(out)) == 2
        monkeypatch.delenv("STARSHAPE_CACHE")
    for flag in ("--json", "--csv", "--svg"):
        assert run(*star, flag, str(missing / "x"), "--no-cache") == 2
        assert run(*star, flag, str(tmp_path), "--no-cache") == 2
    assert run("verify", "--n", "2", "--s", "3", "--m-max", "2",
               "--csv", str(missing / "x.csv"), "--cache", str(cache)) == 2
    assert not out.exists() and not missing.exists() and not cache.exists()
    assert cache_file.read_text() == "not a directory"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def internal_bug(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("starshape.cli.compute_gin", internal_bug)
    with pytest.raises(ValueError, match="internal bug"):
        run("star", "--n", "2", "--s", "3", "--m", "1", "--no-cache")


def test_star_ignores_edited_generators_in_cache_file(tmp_path, capsys):
    # The document is no longer the one its generators define, so it is a
    # miss: recomputed and rewritten.
    cache = tmp_path / "cache"
    argv = ["star", "--n", "2", "--s", "3", "--m", "2", "--cache", str(cache)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "t=[3, 4]" in first
    (path,) = cache.glob("*.json")
    doc = json.loads(path.read_text())
    doc["generators"] = [[1, 0], [0, 1]]
    path.write_text(json.dumps(doc, sort_keys=True))
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_star_ignores_edited_hilbert_table_in_cache_file(tmp_path, capsys):
    # hf_table and stop_degree are derived from the generators; a document
    # whose copies disagree with them is a miss.
    cache = tmp_path / "cache"
    argv = ["star", "--n", "2", "--s", "3", "--m", "2", "--cache", str(cache), "--json"]
    assert main(argv + [str(tmp_path / "fresh.json")]) == 0
    first = capsys.readouterr().out
    (path,) = cache.glob("*.json")
    doc = json.loads(path.read_text())
    doc["hf_table"][4][1] = 99
    doc["stop_degree"] = 7
    path.write_text(json.dumps(doc, sort_keys=True))
    assert main(argv + [str(tmp_path / "served.json")]) == 0
    assert capsys.readouterr().out == first
    served = json.loads((tmp_path / "served.json").read_text())
    assert served["hf_table"][4][1] == 6 and served["stop_degree"] == 4
    assert (tmp_path / "served.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
