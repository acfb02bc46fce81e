#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that
  * every workload of BENCHMARK.json emits every end-to-end metric with
    tracing off and every per-layer metric with tracing on, with its unit;
  * the correctness check fails an operation whose golden was tampered with,
    for GIN documents, volume estimates and CLI output;
  * the check fails a CLI call served a tampered cache document;
  * the traced run's span check refuses spans that overlap, escape their
    pass or miss time clocked outside the tracer;
  * run.py exits non-zero, printing no result, without the program's source.
Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "star2-deep": lambda: run.StarWorkload([(2, 4, 2)]),
    "star3-volume": lambda: run.StarWorkload(
        [(3, 4, 3)], file_cache=True, volume_samples=run.VOLUME_SAMPLES
    ),
    "warm-cli": lambda: run.CliWorkload(
        [c for c in run.WARM_CLI_CALLS if c.name == "invariants-2-3"]
    ),
}
SEED = 5


def measure(workload, name: str, trace: bool = False, goldens: dict | None = None) -> dict:
    with run.open_env(run.DEFAULT_ROOT, SEED, goldens) as env:
        return run.run_workload(workload, env, 0, trace, name)


def check_metrics() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS) == sorted(TINY), names
    for name in names:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            res = measure(TINY[name](), name, trace)
            assert res["correct"] and res["attempted"] >= 1, (name, trace, res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert got == want, (name, kind, set(got) ^ set(want))
        print(f"ok: {name} emits every metric")


def check_tampered_goldens() -> None:
    goldens = run.load_goldens()
    tampered = copy.deepcopy(goldens)
    tampered["gin"]["star-2-4-2"]["generators"][0][0] += 1
    tampered["volume"][f"star-3-4-3/{run.VOLUME_SAMPLES}"]["value"] *= 1.5
    tampered["cli"]["invariants-2-3"]["csv"] = tampered["cli"]["invariants-2-3"]["csv"].replace("45", "46")
    for name in TINY:
        res = measure(TINY[name](), name, goldens=tampered)
        assert not res["correct"] and res["failed"] >= 1, (name, res)
        print(f"ok: {name} fails on a tampered golden ({res['failed']} of {res['attempted']})")


class TamperedCache(run.CliWorkload):
    """Edits one cached document after set-up, keeping it well-formed."""

    def setup(self, env) -> None:
        super().setup(env)
        for path in sorted(self.cache_dir.glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc.get("m") == 5:
                doc["colength"] = str(int(doc["colength"]) + 1)
                path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
                return
        raise AssertionError("no cached m = 5 document to tamper with")


def check_tampered_cache() -> None:
    res = measure(TamperedCache(TINY["warm-cli"]().calls), "warm-cli")
    assert not res["correct"] and res["failed"] >= 1, res
    print(f"ok: warm-cli fails on a tampered cache document ({res['failed']} of {res['attempted']})")


def _one_pass(child_start: float, child_end: float) -> spans.Tracer:
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("bench.pass", 0.0, -1, 1.0),
                    spans.Span("linalg.elim", child_start, 0, child_end),
                    spans.Span("linalg.elim", child_start, 0, child_end)]
    return tracer


def check_span_tree() -> None:
    def refused(tracer, clocked) -> bool:
        try:
            spans.check_spans(tracer, spans.self_times(tracer), clocked)
        except RuntimeError:
            return True
        return False

    assert not refused(_one_pass(0.1, 0.4), [1.0])
    assert refused(_one_pass(0.1, 0.7), [1.0]), "overlapping children"
    assert refused(_one_pass(0.5, 1.5), [1.0]), "child outside its pass"
    assert refused(_one_pass(0.1, 0.4), [1.1]), "time the spans do not cover"
    assert refused(_one_pass(0.1, 0.4), [1.0, 1.0]), "a clocked pass without its span"
    print("ok: the span check refuses overlapping, escaping and missing spans")


def check_refuses_without_source() -> None:
    work = run.DEFAULT_ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "warm-cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok: run.py refuses a directory without the program")


def main() -> int:
    check_metrics()
    check_tampered_goldens()
    check_tampered_cache()
    check_span_tree()
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
