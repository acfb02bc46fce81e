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

from .errors import GenericityError, StarshapeError
from .gin import GinCache, GinResult, compute_gin, hf_symbolic
from .linalg import format_rational
from .rng import SeededRng, mix64
from .scheme import FatPointScheme, build_star
from .shape import AxisSimplex, avoids_interior, q_area_2d, scaled, shape_of


def alpha(sch: FatPointScheme) -> int:
    """Least degree with a nonzero element of the symbolic power, computed
    directly from ranks (no initial ideal needed)."""
    cap = sch.multiplicity * (len(sch.points) + sch.dim) + sch.dim + 2
    for d in range(sch.multiplicity, cap + 1):
        if hf_symbolic(sch, d) > 0:
            return d
    raise StarshapeError(f"no nonzero element found up to degree {cap}")


def waldschmidt_estimate(
    base: FatPointScheme, m_max: int
) -> tuple[list[Fraction], Fraction]:
    """Sequence alpha(I^(m))/m for m = 1..m_max and its running minimum,
    an exact upper bound for the Waldschmidt constant."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    ratios = [
        Fraction(alpha(base.with_multiplicity(m)), m) for m in range(1, m_max + 1)
    ]
    return ratios, min(ratios)


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


def asreg_estimate(results: Sequence[GinResult]) -> tuple[list[Fraction], Fraction]:
    """Sequence reg(I^(m))/m over computed powers and its running minimum."""
    ratios = [Fraction(regularity(r), r.m) for r in results]
    return ratios, min(ratios)


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
    bound: int = 1000,
    cache: GinCache | None = None,
) -> list[GinResult]:
    master = SeededRng(seed)
    gin_seed = master.derive(2).next_u64()
    return [
        compute_gin(base.with_multiplicity(m), seed=gin_seed, bound=bound, cache=cache)
        for m in range(1, m_max + 1)
    ]


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
    star_seed = SeededRng(mix64(seed)).derive(1).next_u64()
    star = build_star(n, s, mode=mode, seed=star_seed, bound=bound)
    results = compute_power_results(star.scheme(1), m_max, seed, bound, cache)
    rows = [_row_of(r) for r in results]
    simplex = AxisSimplex.star(n, s)

    v1 = all(rows[n - i].t[i - 1] == s - i + 1 for i in range(1, n + 1))
    v2 = all(
        Fraction(row.t[i - 1], row.m) >= simplex.intercepts[i - 1]
        for row in rows
        for i in range(1, n + 1)
    )
    v3 = all(
        avoids_interior(scaled(shape_of(r), r.m), simplex) for r in results
    )
    v4 = all(row.colength == comb(s, n) * comb(n + row.m - 1, n) for row in rows)
    verdicts = {"V1": v1, "V2": v2, "V3": v3, "V4": v4}
    areas = None
    if n == 2:
        areas = [q_area_2d(scaled(shape_of(r), r.m)) for r in results]
        verdicts["V5"] = all(a >= simplex.volume for a in areas)

    return InvariantReport(
        n=n,
        s=s,
        rows=rows,
        verdicts=verdicts,
        waldschmidt_min=min(Fraction(r.alpha, r.m) for r in rows),
        asreg_estimate=min(Fraction(r.reg, r.m) for r in rows),
        areas=areas,
        expected=simplex,
        reg_above_line=[
            row.m
            for row in rows
            if Fraction(row.t[-1], row.m) > simplex.intercepts[-1]
        ],
        results=results,
    )


def custom_report(
    base: FatPointScheme,
    m_max: int,
    expect_intercepts: Sequence[Fraction] | None = None,
    seed: int = 0,
    bound: int = 1000,
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
    results = compute_power_results(base, m_max, seed, bound, cache)
    rows = [_row_of(r) for r in results]
    n = base.dim
    verdicts: dict[str, bool] = {}
    simplex = None
    if expect_intercepts is not None:
        simplex = AxisSimplex(tuple(Fraction(a) for a in expect_intercepts))
        if simplex.n != n:
            raise ValueError("expected vertex list has the wrong length")
        verdicts["V2"] = all(
            Fraction(row.t[i - 1], row.m) >= simplex.intercepts[i - 1]
            for row in rows
            for i in range(1, n + 1)
        )
        verdicts["V3"] = all(
            avoids_interior(scaled(shape_of(r), r.m), simplex) for r in results
        )
        verdicts["VLIM"] = all(
            Fraction(row.t[i - 1], row.m) <= simplex.intercepts[i - 1] + Fraction(2, row.m)
            for row in rows
            for i in range(1, n + 1)
        )
    areas = None
    if n == 2:
        areas = [q_area_2d(scaled(shape_of(r), r.m)) for r in results]
    return InvariantReport(
        n=n,
        s=None,
        rows=rows,
        verdicts=verdicts,
        waldschmidt_min=min(Fraction(r.alpha, r.m) for r in rows),
        asreg_estimate=min(Fraction(r.reg, r.m) for r in rows),
        areas=areas,
        expected=simplex,
        results=results,
    )
