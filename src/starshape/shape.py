"""Newton-polytope geometry of monomial staircases.

The Newton polytope P of a monomial ideal is the convex hull of its
generator lattice points plus the non-negative orthant (recession by
monomial multiples); Q is the closure of the complement of P inside the
orthant, bounded exactly when every axis carries a pure power.  Membership
in P is decided by P's exact facet inequalities (Shape.facets, computed
once per shape by double description in integers), compared in integers
against a point written as integer numerators over one common denominator.
For n = 2 the area of Q is exact (triangles from the origin over P's
facets); for n >= 3 a seeded Monte-Carlo estimate is provided for
reporting only.  Its float samples are read exactly as such integer points
(every float is a dyadic rational), so each membership decision is still
exact and no Fraction is built per sample.

AxisSimplex is the simplex spanned by the origin and one point per axis;
for a star configuration of s hyperplanes in P^n the predicted limit
simplex has intercepts (s-i+1)/(n-i+1) and volume binom(s,n)/n!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .errors import UnboundedRegionError
from .gin import GinResult
from .linalg import format_rational
from .rng import SeededRng

Point = tuple[Fraction, ...]
Facet = tuple[tuple[int, ...], Fraction]


@dataclass(frozen=True)
class Shape:
    """Staircase shape: pairwise-incomparable generator points."""

    num_vars: int
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("shape needs at least one generator point")
        pts = tuple(
            tuple(Fraction(c) for c in p) for p in self.points
        )
        for p in pts:
            if len(p) != self.num_vars:
                raise ValueError("generator point has wrong dimension")
            if any(c < 0 for c in p):
                raise ValueError("negative coordinate")
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                if all(a <= b for a, b in zip(p, q)) or all(
                    b <= a for a, b in zip(p, q)
                ):
                    raise ValueError(f"comparable generator points {p} and {q}")
        object.__setattr__(self, "points", pts)

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """P's facet inequalities (a, b), sorted: for x >= 0, x lies in P
        exactly when a.x >= b for every pair.  a is a primitive integer
        vector with a >= 0 and b > 0 is rational; inequalities with b <= 0
        hold on the whole orthant and are left out."""
        facets = _facets(self.points)
        _check_facets(self.points, facets)
        return facets


def _integer_points(points: Sequence[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """(L, the points times L) for L the lcm of their denominators."""
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return scale, [tuple(int(c * scale) for c in p) for p in points]


def _facets(points: Sequence[Point]) -> tuple[Facet, ...]:
    """Facet inequalities of conv(points) + orthant by double description.

    The homogenised cone is generated by (g, 1) for each generator g and by
    (e_i, 0) for each axis; the extreme rays (a, -b) of its dual cone
    {y : y.(e_i, 0) >= 0, y.(g, 1) >= 0} are the facet normals.  The
    constraints are added one at a time to the simplicial cone of the axes
    and the generator of least coordinate sum, in increasing coordinate
    sum.  Two rays are adjacent when their zero sets (bit masks over the
    constraints added so far) share at least n - 1 constraints and no third
    ray's zero set contains the shared ones; this is exact however many
    generators lie on one facet.  Integers only: the points are scaled by
    the lcm L of their denominators, and every ray is divided by its gcd.
    """
    n = len(points[0])
    scale, ints = _integer_points(points)
    first, *rest = sorted(ints, key=lambda p: (sum(p), p))
    axes = (1 << n) - 1  # bit i: axis i; bit n + t: the t-th generator
    rays = [
        (tuple(int(i == j) for j in range(n)) + (-first[i],), axes & ~(1 << i) | 1 << n)
        for i in range(n)
    ]
    rays.append(((0,) * n + (1,), axes))
    for t, g in enumerate(rest, start=1):
        bit = 1 << (n + t)
        pos, neg, nxt = [], [], []
        for ray, zero in rays:
            v = sum(a * c for a, c in zip(ray, g)) + ray[n]
            if v > 0:
                pos.append((ray, zero, v))
                nxt.append((ray, zero))
            elif v < 0:
                neg.append((ray, zero, v))
            else:
                nxt.append((ray, zero | bit))
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                common = zp & zn
                if common.bit_count() < n - 1 or any(
                    z & common == common for _, z in rays if z != zp and z != zn
                ):
                    continue
                w = [vp * x - vn * y for x, y in zip(rn, rp)]
                div = math.gcd(*w)
                nxt.append((tuple(x // div for x in w), common | bit))
        rays = nxt
    facets = []
    for ray, _ in rays:
        if ray[n] < 0:
            div = math.gcd(*ray[:n])
            facets.append((tuple(x // div for x in ray[:n]), Fraction(-ray[n], scale * div)))
    return tuple(sorted(facets))


def _check_facets(points: Sequence[Point], facets: Sequence[Facet]) -> None:
    """Raises AssertionError unless every generator satisfies every
    inequality and each inequality is tight on some generator."""
    scale, ints = _integer_points(points)
    for a, b in facets:
        if min(sum(x * c for x, c in zip(a, p)) for p in ints) != b * scale:
            raise AssertionError(f"inequality {a}.x >= {b} is violated or not tight")


def shape_of(res: GinResult) -> Shape:
    """Unscaled shape of a computed initial ideal (artinian generators)."""
    return Shape(res.n, tuple(tuple(Fraction(e) for e in g) for g in res.artinian.generators))


def scaled(sh: Shape, m: int) -> Shape:
    """Divide every generator point by m (exact rationals)."""
    if m < 1:
        raise ValueError("scale factor must be a positive integer")
    return Shape(sh.num_vars, tuple(tuple(c / m for c in p) for p in sh.points))


def axis_intercept(sh: Shape, i: int) -> Fraction | None:
    """min t with t*e_i in P, or None when the axis misses P.

    Points of P on axis i can only arise from generator points already on
    that axis (all coordinates are non-negative), so the intercept is the
    least i-th coordinate among pure-axis generators.
    """
    if not 1 <= i <= sh.num_vars:
        raise ValueError("axis index out of range")
    best: Fraction | None = None
    for p in sh.points:
        if all(c == 0 for j, c in enumerate(p) if j != i - 1):
            if best is None or p[i - 1] < best:
                best = p[i - 1]
    return best


def contains(sh: Shape, q: Sequence[Fraction]) -> bool:
    """Exact membership of q in P = conv(points) + orthant: a.q >= b for
    every facet inequality (a, b) of sh.facets, decided by _in_p on q's
    numerators over the lcm of its denominators."""
    point = [Fraction(c) for c in q]
    if len(point) != sh.num_vars:
        raise ValueError("dimension mismatch")
    if any(c < 0 for c in point):
        raise ValueError("membership queries live in the orthant")
    den, (nums,) = _integer_points([point])
    return _in_p(sh.facets, nums, den)


def _in_p(facets: Sequence[Facet], nums: Sequence[int], den: int) -> bool:
    """Whether the point nums / den (den > 0) satisfies a.x >= b for every
    facet inequality (a, b): a.nums * b.denominator >= b.numerator * den,
    in integers."""
    return all(
        sum(x * y for x, y in zip(a, nums)) * b.denominator >= b.numerator * den
        for a, b in facets
    )


def _facet_ends(sh: Shape) -> list[tuple[Facet, Point, Point]]:
    """Each facet of P with its end points, the generators tight on it of
    least and greatest x, for n = 2.  With both pure powers present these
    facets are the edges of the convex chain from (0, t2) to (t1, 0)."""
    ends = []
    for a, b in sh.facets:
        tight = [p for p in sh.points if a[0] * p[0] + a[1] * p[1] == b]
        ends.append(((a, b), min(tight), max(tight)))
    return ends


def q_area_2d(sh: Shape) -> Fraction:
    """Exact area of Q for n = 2: the triangles from the origin over P's
    facets.  A facet a.x = b from x = u to x = v spans b (v - u) / (2 a_2)."""
    if sh.num_vars != 2:
        raise ValueError("exact area is only defined for two variables")
    if axis_intercept(sh, 1) is None or axis_intercept(sh, 2) is None:
        raise UnboundedRegionError("missing pure power: Q is unbounded")
    return sum(
        (b * (hi[0] - lo[0]) / (2 * a[1]) for (a, b), lo, hi in _facet_ends(sh)),
        Fraction(0),
    )


def q_volume_estimate(
    sh: Shape, samples: int = 4000, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate (value, stderr) of vol(Q) for n >= 3.

    Samples uniformly in the simplex spanned by the axis intercepts t_i
    (which contains Q) and counts non-membership in P.  A sample is the
    point (t_i u_i) for floats u_i.  With t_i = tnums_i / scale and u_i =
    a_i / d_i exactly (d_i a power of 2, so top = max d_i is their lcm), it
    is the integer point nums / (scale * top), nums_i = tnums_i a_i
    (top / d_i), decided exactly by _in_p against P's facet inequalities.
    Reporting only; nothing downstream decides on these floats.
    Deterministic given seed.  When the origin is a generator P is the
    whole orthant, and the estimate is (0.0, 0.0).
    """
    n = sh.num_vars
    if n < 3:
        raise ValueError("use q_area_2d for two variables")
    if samples < 1:
        raise ValueError("need at least one sample")
    ts = []
    for i in range(1, n + 1):
        t = axis_intercept(sh, i)
        if t is None:
            raise UnboundedRegionError("missing pure power: Q is unbounded")
        ts.append(t)
    if not all(ts):
        return 0.0, 0.0
    box_volume = AxisSimplex(tuple(ts)).volume
    scale, (tnums,) = _integer_points([ts])
    facets = sh.facets
    rng = SeededRng(seed)
    hits = 0
    for _ in range(samples):
        exps = [-math.log(1.0 - rng.next_float()) for _ in range(n + 1)]
        total = sum(exps)
        ratios = [(e / total).as_integer_ratio() for e in exps[:n]]
        top = max(d for _, d in ratios)
        nums = [t * a * (top // d) for t, (a, d) in zip(tnums, ratios)]
        if not _in_p(facets, nums, scale * top):
            hits += 1
    p_hat = hits / samples
    estimate = float(box_volume) * p_hat
    stderr = float(box_volume) * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return estimate, stderr


@dataclass(frozen=True)
class AxisSimplex:
    """Simplex spanned by the origin and intercepts a_i e_i."""

    intercepts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(Fraction(a) for a in self.intercepts)
        if not vals or any(a <= 0 for a in vals):
            raise ValueError("intercepts must be positive")
        object.__setattr__(self, "intercepts", vals)

    @property
    def n(self) -> int:
        return len(self.intercepts)

    @property
    def volume(self) -> Fraction:
        vol = Fraction(1)
        for a in self.intercepts:
            vol *= a
        return vol / factorial(self.n)

    @classmethod
    def star(cls, n: int, s: int) -> "AxisSimplex":
        """Predicted limit simplex for a star configuration: the axis-i
        intercept is (s-i+1)/(n-i+1); volume binom(s,n)/n!."""
        if n < 1 or s < n:
            raise ValueError("need s >= n >= 1")
        simplex = cls(tuple(Fraction(s - i + 1, n - i + 1) for i in range(1, n + 1)))
        assert simplex.volume == Fraction(comb(s, n), factorial(n))
        return simplex


def avoids_interior(sh: Shape, simplex: AxisSimplex) -> bool:
    """True when every generator point lies on or outside the simplex's
    facet hyperplane sum x_i / a_i = 1 (the shape misses the interior)."""
    if simplex.n != sh.num_vars:
        raise ValueError("dimension mismatch")
    for p in sh.points:
        if sum(c / a for c, a in zip(p, simplex.intercepts)) < 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Flat renderings (n = 2): SVG staircase + hull + simplex overlay, and a CSV
# of generator points and intercepts.


def staircase_svg(sh: Shape, simplex: AxisSimplex | None = None) -> str:
    if sh.num_vars != 2:
        raise ValueError("SVG rendering is only available for two variables")
    t1 = axis_intercept(sh, 1)
    t2 = axis_intercept(sh, 2)
    pts = sorted((float(p[0]), float(p[1])) for p in sh.points)
    xmax = max([p[0] for p in pts] + ([float(simplex.intercepts[0])] if simplex else []))
    ymax = max([p[1] for p in pts] + ([float(simplex.intercepts[1])] if simplex else []))
    xmax, ymax = xmax + 1.0, ymax + 1.0
    unit = 60.0
    width, height = xmax * unit + 40, ymax * unit + 40

    def sx(x: float) -> float:
        return 20 + x * unit

    def sy(y: float) -> float:
        return height - 20 - y * unit

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(xmax):.1f}" y2="{sy(0):.1f}" stroke="black"/>',
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(0):.1f}" y2="{sy(ymax):.1f}" stroke="black"/>',
    ]
    # Staircase boundary of the union of corner cones over the points.
    step = [(pts[0][0], ymax)]
    for i, (x, y) in enumerate(pts):
        step.append((x, pts[i - 1][1] if i else ymax))
        step.append((x, y))
    step.append((xmax, pts[-1][1]))
    path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in step)
    lines.append(
        f'<polyline points="{path}" fill="none" stroke="#888888" stroke-width="1.5"/>'
    )
    if t1 is not None and t2 is not None:
        hull = sorted({p for _, lo, hi in _facet_ends(sh) for p in (lo, hi)})
        hp = " ".join(f"{sx(float(x)):.1f},{sy(float(y)):.1f}" for x, y in hull)
        lines.append(
            f'<polyline points="{hp}" fill="none" stroke="#1f77b4" stroke-width="2"/>'
        )
    for x, y in pts:
        lines.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" fill="#1f77b4"/>'
        )
    if simplex is not None:
        a1, a2 = (float(a) for a in simplex.intercepts)
        tri = f"{sx(0):.1f},{sy(0):.1f} {sx(a1):.1f},{sy(0):.1f} {sx(0):.1f},{sy(a2):.1f}"
        lines.append(
            f'<polygon points="{tri}" fill="#d6272833" stroke="#d62728" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def points_csv(sh: Shape) -> str:
    header = "type," + ",".join(f"x{i}" for i in range(1, sh.num_vars + 1))
    rows = [header]
    for p in sh.points:
        rows.append("generator," + ",".join(format_rational(c) for c in p))
    intercepts = [axis_intercept(sh, i) for i in range(1, sh.num_vars + 1)]
    rows.append(
        "intercept,"
        + ",".join("" if t is None else format_rational(t) for t in intercepts)
    )
    return "\n".join(rows) + "\n"
