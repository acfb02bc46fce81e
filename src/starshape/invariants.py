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

from .gin import GinCache, GinResult, compute_gin
from .linalg import format_rational
from .rng import SeededRng, mix64
from .scheme import COEFF_BOUND, FatPointScheme, StarConfiguration, build_star
from .shape import AxisSimplex, Shape, avoids_interior, q_area_2d, scaled, shape_of


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


@dataclass(frozen=True)
class InvariantReport:
    """The validated result of each power m = 1, 2, ..., plus named
    pass/fail verdicts.

    The per-power numbers are read off the results: alpha(), t_vector(),
    regularity() and colength.  compute_gin returns only Borel-fixed results
    of finite colength, so alpha is t_1 and the regularity is t_n.
    reg_above_line lists the powers whose last-axis pure power strictly
    exceeds m times the expected last intercept; the equality is observed
    in every computed star case but is only recorded, never asserted.
    """

    n: int
    s: int | None
    results: list[GinResult] = field(repr=False)
    verdicts: dict[str, bool]
    areas: list[Fraction] | None = None
    expected: AxisSimplex | None = None
    reg_above_line: list[int] | None = None

    @property
    def waldschmidt_min(self) -> Fraction:
        return min(Fraction(r.alpha(), r.m) for r in self.results)

    @property
    def asreg_estimate(self) -> Fraction:
        return min(Fraction(r.regularity(), r.m) for r in self.results)

    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        doc = {
            "n": self.n,
            "s": self.s,
            "rows": [
                {
                    "m": r.m,
                    "alpha": r.alpha(),
                    "t": r.t_vector(),
                    "reg": r.regularity(),
                    "colength": r.colength,
                }
                for r in self.results
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


def _shapes(
    results: list[GinResult], n: int
) -> tuple[list[Shape], list[Fraction] | None]:
    """The scaled shape of each power and, for n = 2, the area of each."""
    shapes = [scaled(shape_of(r), r.m) for r in results]
    return shapes, [q_area_2d(sh) for sh in shapes] if n == 2 else None


def _bounds(
    results: list[GinResult], shapes: list[Shape], simplex: AxisSimplex
) -> dict[str, bool]:
    """V2 (axis bounds) and V3 (interior avoidance) against simplex."""
    return {
        "V2": all(
            Fraction(t, r.m) >= a
            for r in results
            for t, a in zip(r.t_vector(), simplex.intercepts)
        ),
        "V3": all(avoids_interior(sh, simplex) for sh in shapes),
    }


def verify_theorem(
    n: int,
    s: int,
    m_max: int,
    mode: str = "vandermonde",
    seed: int = 0,
    bound: int = COEFF_BOUND,
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
    shapes, areas = _shapes(results, n)
    verdicts = {
        "V1": all(
            results[n - i].t_vector()[i - 1] == s - i + 1 for i in range(1, n + 1)
        ),
        **_bounds(results, shapes, simplex),
        "V4": all(r.colength == comb(s, n) * comb(n + r.m - 1, n) for r in results),
    }
    if n == 2:
        verdicts["V5"] = all(a >= simplex.volume for a in areas)
    above = [r.m for r in results if Fraction(r.t_vector()[-1], r.m) > simplex.intercepts[-1]]
    return InvariantReport(n=n, s=s, results=results, verdicts=verdicts,
                           areas=areas, expected=simplex, reg_above_line=above)


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
    shapes, areas = _shapes(results, base.dim)
    verdicts = {}
    if simplex is not None:
        verdicts = {
            **_bounds(results, shapes, simplex),
            "VLIM": all(
                Fraction(t, r.m) <= a + Fraction(2, r.m)
                for r in results
                for t, a in zip(r.t_vector(), simplex.intercepts)
            ),
        }
    return InvariantReport(n=base.dim, s=None, results=results,
                           verdicts=verdicts, areas=areas, expected=simplex)
