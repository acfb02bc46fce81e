#!/usr/bin/env python3
"""Run the limit-simplex verification over a grid of star configurations
and print the per-power invariant tables.

Usage:
    python scripts/reproduce_tables.py [--m-max-2 6] [--m-max-3 3]
                                       [--seed 0] [--cache DIR] [--json OUT]

The n = 2 stars s = 3, 4, 5 and the n = 3 stars s = 4, 5 are verified up to
the given powers; with --json the combined reports are written as one
document.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from starshape.gin import FileGinCache
from starshape.invariants import verify_theorem
from starshape.linalg import format_rational


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max-2", type=int, default=6, dest="m2")
    ap.add_argument("--m-max-3", type=int, default=3, dest="m3")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache", dest="cache_dir")
    ap.add_argument("--json", dest="json_path")
    args = ap.parse_args()
    # verify_theorem needs m_max >= n: the simplex vertices are hit at m = n.
    if args.m2 < 2:
        ap.error("--m-max-2 must be at least 2")
    if args.m3 < 3:
        ap.error("--m-max-3 must be at least 3")

    cache = FileGinCache(args.cache_dir) if args.cache_dir else None
    grid = [(2, s, args.m2) for s in (3, 4, 5)] + [(3, s, args.m3) for s in (4, 5)]
    combined = []
    all_ok = True
    for n, s, m_max in grid:
        t0 = time.time()
        report = verify_theorem(n, s, m_max, seed=args.seed, cache=cache)
        elapsed = time.time() - t0
        ok = report.all_pass()
        all_ok &= ok
        print(f"== star(n={n}, s={s}), powers 1..{m_max}  "
              f"[{'ok' if ok else 'FAIL'}, {elapsed:.1f}s]")
        print(f"   predicted intercepts: "
              + ", ".join(format_rational(a) for a in report.expected.intercepts))
        for r in report.results:
            print(f"   m={r.m}: alpha={r.alpha()} t={r.t_vector()} "
                  f"reg={r.regularity()} colength={r.colength}")
        if report.areas is not None:
            print("   scaled areas: "
                  + ", ".join(format_rational(a) for a in report.areas))
        print(f"   waldschmidt <= {format_rational(report.waldschmidt_min)}, "
              f"asreg estimate {format_rational(report.asreg_estimate)}, "
              f"verdicts {report.verdicts}")
        combined.append(report.to_json_dict())
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
