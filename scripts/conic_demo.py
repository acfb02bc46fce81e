#!/usr/bin/env python3
"""End-to-end demo on the bundled 6-points-on-a-conic scheme.

The six points (t^2 : t : 1), t = 1..6, lie on the smooth conic
x1 x3 = x2^2 and are cut out by that conic together with a cubic.  Their
limiting shape is the triangle with intercepts (2, 3) even though the
points are not a star configuration; this script prints the per-power
evidence and renders the scaled staircase against that triangle.

Usage:
    python scripts/conic_demo.py [--m-max 4] [--seed 0] [--svg conic.svg]
"""

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from starshape.invariants import custom_report
from starshape.linalg import format_rational
from starshape.scheme import load_points
from starshape.shape import staircase_svg

CONIC = pathlib.Path(__file__).resolve().parents[1] / "src/starshape/data/conic.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=4, dest="m_max")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--svg", dest="svg_path")
    args = ap.parse_args()

    base = load_points(CONIC)
    report = custom_report(
        base,
        args.m_max,
        expect_intercepts=[Fraction(2), Fraction(3)],
        seed=args.seed,
    )
    for r in report.results:
        print(
            f"m={r.m}: alpha={r.alpha()} (=2m), t={r.t_vector()} "
            f"(t2 = 3m+1), reg={r.regularity()}, colength={r.colength}"
        )
    print("scaled areas: " + ", ".join(format_rational(a) for a in report.areas))
    print(f"waldschmidt upper bound: {format_rational(report.waldschmidt_min)} "
          f"(true limit 2), asreg estimate: "
          f"{format_rational(report.asreg_estimate)} (true limit 3)")
    print(f"verdicts against intercepts (2, 3): {report.verdicts}")
    if args.svg_path:
        svg = staircase_svg(report.shapes[-1], report.expected)
        pathlib.Path(args.svg_path).write_text(svg, encoding="utf-8")
        print(f"wrote {args.svg_path}")
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
