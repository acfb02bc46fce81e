#!/usr/bin/env python3
"""Record the benchmark's goldens from the program as it stands.

    python3 perfbench/record_goldens.py

Runs every workload's operations once per seed in SEEDS and writes
perfbench/goldens/{gin,volume,cli}.json from the first seed, after checking
that every other seed gives identical documents: the goldens must not depend
on the workload seed.  Goldens are the benchmark's reference answers; record
them only when the benchmark itself changes, never to make a change pass.
"""

from __future__ import annotations

import json
import sys

import run

# One seed per entry of the library workloads' coordinate-change panel, and
# one far from them.
SEEDS = list(range(run.PANEL)) + [12345]


def record(env: run.Env) -> dict:
    goldens = {"gin": {}, "volume": {}, "cli": {}}
    for name in ("star2-deep", "star3-volume"):
        workload = run.WORKLOADS[name]()
        workload.before_pass(env)
        for op in workload.run_pass(env, 0):
            if op.error is not None:
                raise SystemExit(f"{name}: {op.name}: {op.error}")
            if op.name.startswith("gin "):
                _, res = op.payload
                goldens["gin"][op.name[4:]] = run.gin_doc(env.lib, res)
            else:
                key, (value, stderr) = op.payload
                goldens["volume"][f"{key}/{workload.volume_samples}"] = {
                    "value": value, "stderr": stderr}
    workload = run.WORKLOADS["warm-cli"]()
    workload.setup(env)
    workload.before_pass(env)
    for op in workload.run_pass(env, 0):
        if op.error is not None:
            raise SystemExit(f"warm-cli: {op.name}: {op.error}")
        call, code, _ = op.payload
        entry = {"exit": code, "stdout": (workload.out_dir / f"{call.name}.stdout").read_text(encoding="utf-8")}
        for kind in call.outputs:
            text = (workload.out_dir / f"{call.name}.{kind}").read_bytes().decode("utf-8")
            entry[kind] = run.canonical_output(kind, text)
        goldens["cli"][call.name] = entry
    return goldens


def main() -> int:
    recorded = []
    for seed in SEEDS:
        with run.open_env(run.DEFAULT_ROOT, seed, goldens={}) as env:
            recorded.append(record(env))
        print(f"seed {seed} recorded", file=sys.stderr)
    for seed, other in zip(SEEDS[1:], recorded[1:]):
        if other != recorded[0]:
            diff = [f"{kind}/{k}" for kind in other for k in other[kind]
                    if other[kind][k] != recorded[0][kind].get(k)]
            raise SystemExit(f"goldens depend on the seed: seed {seed} differs in {diff}")
    run.GOLDENS.mkdir(exist_ok=True)
    for kind, doc in recorded[0].items():
        (run.GOLDENS / f"{kind}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"goldens written to {run.GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
