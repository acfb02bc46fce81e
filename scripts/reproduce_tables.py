#!/usr/bin/env python3
"""Run the limit-simplex verification over a grid of star configurations
and print the per-power invariant tables.

Usage:
    python scripts/reproduce_tables.py [--m-max-2 6] [--m-max-3 3]
                                       [--seed 0] [--cache DIR] [--json OUT]

The n = 2 stars s = 3, 4, 5 and the n = 3 stars s = 4, 5 are verified up to
the given powers, each by one `starshape verify` run that prints its own
table; with --json the reports of those runs are written as one document.
Without --cache no cache is used, whatever STARSHAPE_CACHE says.  Exits 1
when any run does.
"""

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from starshape.cli import cannot_write, main as starshape


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max-2", type=int, default=6, dest="m2")
    ap.add_argument("--m-max-3", type=int, default=3, dest="m3")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache", dest="cache_dir")
    ap.add_argument("--json", dest="json_path")
    args = ap.parse_args()
    # verify needs m_max >= n: the simplex vertices are hit at m = n.
    if args.m2 < 2:
        ap.error("--m-max-2 must be at least 2")
    if args.m3 < 3:
        ap.error("--m-max-3 must be at least 3")
    if args.json_path and cannot_write(args.json_path):
        ap.error(f"--json: cannot write a file at {args.json_path}")

    cache = ["--cache", args.cache_dir] if args.cache_dir else ["--no-cache"]
    grid = [(2, s, args.m2) for s in (3, 4, 5)] + [(3, s, args.m3) for s in (4, 5)]
    docs = []
    all_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for n, s, m_max in grid:
            print(f"== star(n={n}, s={s}), powers 1..{m_max}", flush=True)
            path = pathlib.Path(tmp, f"star-{n}-{s}.json")
            code = starshape(["verify", "--n", str(n), "--s", str(s), "--m-max", str(m_max),
                              "--seed", str(args.seed), "--json", str(path), *cache])
            if not path.exists():  # the run ended in an error, which it printed
                return 1
            all_ok &= code == 0
            docs.append(json.loads(path.read_text(encoding="utf-8")))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(docs, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
