"""Initial degree, Waldschmidt estimates, regularity, and end-to-end
verification of the predicted limit simplex for star configurations.

All per-power data comes out of the computed initial ideals: the initial
degree is the first degree with a nonzero piece (equivalently the pure
power on the first axis, by Borel invariance), and the regularity of a
Borel-fixed ideal is the top minimal-generator degree (the pure power on
the last axis).  Asymptotic quantities are reported as finite bounds, never
as claimed limits: alpha(m)/m is a running upper bound for the Waldschmidt
constant and reg(m)/m for the asymptotic regularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import GenericityError
from .gin import GinCache, GinResult, compute_gin
from .linalg import format_rational
from .rng import SeededRng, mix64
from .scheme import FatPointScheme, StarConfiguration, build_star
from .shape import AxisSimplex, avoids_interior, q_area_2d, scaled, shape_of


def seeded_star(
    n: int, s: int, mode: str, seed: int, bound: int
) -> StarConfiguration:
    """The star configuration that every pipeline run with master seed
    `seed` uses (the seeded mode draws its hyperplanes from it)."""
    star_seed = SeededRng(mix64(seed)).derive(1).next_u64()
    return build_star(n, s, mode=mode, seed=star_seed, bound=bound)


def gin_seed(seed: int) -> int:
    """The compute_gin seed that every pipeline run with master seed `seed`
    uses."""
    return SeededRng(seed).derive(2).next_u64()


def regularity(res: GinResult) -> int:
    """Max degree of a minimal generator; for the Borel-fixed initial ideal
    this is the regularity, and it is realized by the last-axis pure power."""
    reg = res.regularity()
    last = res.artinian.pure_power_threshold(res.n)
    if last != reg:
        raise GenericityError(
            f"top generator degree {reg} is not the last-axis pure power {last}"
        )
    return reg


@dataclass(frozen=True)
class InvariantRow:
    m: int
    alpha: int
    t: tuple[int, ...]
    reg: int
    colength: int


@dataclass
class InvariantReport:
    """Per-power invariants plus named pass/fail verdicts.

    reg_above_line lists the powers whose last-axis pure power strictly
    exceeds m times the expected last intercept; the equality is observed
    in every computed star case but is only recorded, never asserted.
    """

    n: int
    s: int | None
    rows: list[InvariantRow]
    verdicts: dict[str, bool]
    waldschmidt_min: Fraction
    asreg_estimate: Fraction
    areas: list[Fraction] | None = None
    expected: AxisSimplex | None = None
    reg_above_line: list[int] | None = None
    results: list[GinResult] = field(default_factory=list, repr=False)

    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        doc = {
            "n": self.n,
            "s": self.s,
            "rows": [
                {
                    "m": r.m,
                    "alpha": r.alpha,
                    "t": list(r.t),
                    "reg": r.reg,
                    "colength": r.colength,
                }
                for r in self.rows
            ],
            "verdicts": dict(self.verdicts),
            "waldschmidt_min": format_rational(self.waldschmidt_min),
            "asreg_estimate": format_rational(self.asreg_estimate),
        }
        if self.areas is not None:
            doc["areas"] = [format_rational(a) for a in self.areas]
        if self.expected is not None:
            doc["expected_vertices"] = [
                format_rational(a) for a in self.expected.intercepts
            ]
        if self.reg_above_line is not None:
            doc["reg_above_line"] = list(self.reg_above_line)
        return doc


def _row_of(res: GinResult) -> InvariantRow:
    t = tuple(res.t_vector())
    a = res.alpha()
    if a != t[0]:
        raise GenericityError(
            f"initial degree {a} differs from first-axis pure power {t[0]}"
        )
    return InvariantRow(m=res.m, alpha=a, t=t, reg=regularity(res), colength=res.colength)


def compute_power_results(
    base: FatPointScheme,
    m_max: int,
    seed: int = 0,
    cache: GinCache | None = None,
) -> list[GinResult]:
    return [
        compute_gin(base.with_multiplicity(m), seed=gin_seed(seed), cache=cache)
        for m in range(1, m_max + 1)
    ]


def _report(
    n: int,
    s: int | None,
    results: list[GinResult],
    simplex: AxisSimplex | None,
) -> InvariantReport:
    """The per-power rows, the running minima and the n = 2 areas of the
    scaled shapes, with V2 (axis bounds) and V3 (interior avoidance)
    against simplex when one is given."""
    rows = [_row_of(r) for r in results]
    shapes = [scaled(shape_of(r), r.m) for r in results]
    verdicts: dict[str, bool] = {}
    if simplex is not None:
        verdicts["V2"] = all(
            Fraction(row.t[i], row.m) >= a
            for row in rows
            for i, a in enumerate(simplex.intercepts)
        )
        verdicts["V3"] = all(avoids_interior(sh, simplex) for sh in shapes)
    return InvariantReport(
        n=n,
        s=s,
        rows=rows,
        verdicts=verdicts,
        waldschmidt_min=min(Fraction(r.alpha, r.m) for r in rows),
        asreg_estimate=min(Fraction(r.reg, r.m) for r in rows),
        areas=[q_area_2d(sh) for sh in shapes] if n == 2 else None,
        expected=simplex,
        results=results,
    )


def verify_theorem(
    n: int,
    s: int,
    m_max: int,
    mode: str = "vandermonde",
    seed: int = 0,
    bound: int = 1000,
    cache: GinCache | None = None,
) -> InvariantReport:
    """Compute initial ideals of the first m_max symbolic powers of a star
    configuration and check them against the predicted limit simplex.

    Verdicts:
      V1  vertex hits: t_i(n-i+1) == s-i+1 exactly, for every axis i;
      V2  axis bounds: t_i(m)/m >= a_i for every computed m and axis;
      V3  interior avoidance: every scaled generator point g/m satisfies
          sum g_i/(m a_i) >= 1;
      V4  colength identity: binom(s,n) * binom(n+m-1,n) for every m;
      V5  (n = 2) every scaled-shape area is >= the simplex area
          binom(s,2)/2.  The areas themselves are carried in the report;
          they touch the bound exactly at multiples of n and are not
          monotone in m.
    """
    if n < 1 or s < n:
        raise ValueError("need s >= n >= 1")
    if m_max < n:
        raise ValueError("m_max must be at least n (vertex hits need m = n)")
    star = seeded_star(n, s, mode, seed, bound)
    results = compute_power_results(star.scheme(1), m_max, seed, cache)
    simplex = AxisSimplex.star(n, s)
    report = _report(n, s, results, simplex)
    rows = report.rows
    report.verdicts = {
        "V1": all(rows[n - i].t[i - 1] == s - i + 1 for i in range(1, n + 1)),
        **report.verdicts,
        "V4": all(row.colength == comb(s, n) * comb(n + row.m - 1, n) for row in rows),
    }
    if n == 2:
        report.verdicts["V5"] = all(a >= simplex.volume for a in report.areas)
    report.reg_above_line = [
        row.m for row in rows if Fraction(row.t[-1], row.m) > simplex.intercepts[-1]
    ]
    return report


def custom_report(
    base: FatPointScheme,
    m_max: int,
    expect_intercepts: Sequence[Fraction] | None = None,
    seed: int = 0,
    cache: GinCache | None = None,
) -> InvariantReport:
    """Same per-power pipeline for an arbitrary point scheme.

    Without expected intercepts the report carries tables and estimates
    only.  With them, the axis-bound and interior-avoidance checks run
    against the supplied simplex (V2/V3), plus a consistency envelope
    VLIM: t_i(m)/m must stay within a_i + 2/m, which flags an expected
    shape that undershoots the true limit.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if base.multiplicity != 1:
        raise ValueError("the base scheme must have multiplicity 1")
    simplex = None
    if expect_intercepts is not None:
        simplex = AxisSimplex(tuple(Fraction(a) for a in expect_intercepts))
        if simplex.n != base.dim:
            raise ValueError("expected vertex list has the wrong length")
    results = compute_power_results(base, m_max, seed, cache)
    report = _report(base.dim, None, results, simplex)
    if simplex is not None:
        report.verdicts["VLIM"] = all(
            Fraction(row.t[i], row.m) <= a + Fraction(2, row.m)
            for row in report.rows
            for i, a in enumerate(simplex.intercepts)
        )
    return report
