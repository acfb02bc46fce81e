#!/usr/bin/env python3
"""Compare two checkouts with this benchmark, in alternating pairs.

    python3 perfbench/compare.py --parent ../parent --change .

Both sides run this directory's run.py and goldens (identical benchmark code
and settings, run_seconds from BENCHMARK.json) against their own
src/starshape, with tracing off, on every workload of BENCHMARK.json.
Pair i (i = 1..10) uses seed i for both sides; odd pairs run the parent
first, even pairs the change.  For every workload and metric it prints each
side's median and quartiles, the change's wins out of the pairs (ties count
for neither) and a verdict:

  invalid     the change failed more operations on this workload than the
              parent did: none of its timings counts;
  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread is wider than the bound, and not every run
              of the change beats every run of the parent (if every run
              does, the verdict reads "better in every run");
  same        none of the above.

Exits 1 if any workload is invalid or has a regression, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Alternating pairs per workload: fewer cannot show nine wins in ten.
PAIRS = 10


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return wins, "gain"
    if p_med == 0:
        return wins, "same"
    if (q3 - q1) / abs(p_med) > bound:
        every = min(sign * c for c in change) > max(sign * p for p in parent)
        return wins, "better in every run" if every else "unresolved"
    if -gain / abs(p_med) > bound:
        return wins, "regression"
    return wins, "same"


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args()
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    raw: dict = {}
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        failed = dict.fromkeys(sides, 0)
        for seed in range(1, PAIRS + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                res = run_once(sides[side], workload, seed, spec["run_seconds"])
                failed[side] += res["failed"]
                if not res["correct"]:
                    print(f"{workload} {side} seed {seed}: "
                          f"{res['failed']} of {res['attempted']} operations failed")
                for name in values[side]:
                    values[side][name].append(res["metrics"][name]["value"])
        raw[workload] = {"values": values, "failed": failed}
        invalid = failed["change"] > failed["parent"]
        print(f"\n{workload} ({PAIRS} pairs; failed operations: parent {failed['parent']}, "
              f"change {failed['change']})")
        print(f"  {'metric':<28}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}  wins  verdict")
        for m in metrics:
            p, c = values["parent"][m["name"]], values["change"][m["name"]]
            wins, word = verdict(p, c, m["better"], m["bound"])
            if invalid:
                word = "invalid"
            bad = bad or word in ("invalid", "regression")
            cols = []
            for v in (p, c):
                q1, med, q3 = statistics.quantiles(v, n=4)
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"  {m['name']:<28}{cols[0]:>34}{cols[1]:>34}  {wins:>2}/{PAIRS} {word}")
    print(json.dumps(raw))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
