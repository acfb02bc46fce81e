"""Projective point configurations and their symbolic-power linear algebra.

A FatPointScheme is a finite set of points of P^n with exact rational
coordinates plus a uniform multiplicity m.  Over a characteristic-0 field
the m-th symbolic power of the point ideal is the differential power, so a
degree-d form belongs to it exactly when all its partial derivatives of
order m-1 vanish at every point (lower orders then vanish as well, by
Euler's relation, as long as d >= m-1).  That turns each degree into one
exact kernel computation on an integer condition matrix.

Star configurations are built from s hyperplanes, either the always-valid
Vandermonde family h_j = sum_i j^i x_{i+1} or a seeded random family; both
are validated against the configuration invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, perm
from operator import mul
from typing import Sequence

from .errors import DegenerateConfigurationError, SchemeFormatError
from .linalg import clear_denominators, determinant, parse_rational
from .monomial import Exponents, monomials_of_degree
from .rng import SeededRng

Coords = tuple[Fraction, ...]
COEFF_BOUND = 1000  # default coefficient bound of the seeded hyperplanes


def normalize_point(coords: Sequence[Fraction]) -> Coords:
    """Canonical representative: divide so the last nonzero coordinate is 1."""
    vals = [Fraction(c) for c in coords]
    last = None
    for i in range(len(vals) - 1, -1, -1):
        if vals[i] != 0:
            last = vals[i]
            break
    if last is None:
        raise SchemeFormatError("projective point with all coordinates zero")
    return tuple(v / last for v in vals)


@dataclass(frozen=True)
class FatPointScheme:
    """Distinct points of P^dim, all carrying the same multiplicity.

    A star's scheme also carries its hyperplanes, as integer coefficient
    rows.  They are a hint for the proof in compute_gin, not part of the
    scheme: equality, the cache key and result documents ignore them, and
    every incidence they are used for is checked exactly.
    """

    dim: int
    points: tuple[Coords, ...]
    multiplicity: int
    hyperplanes: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise SchemeFormatError("ambient dimension must be at least 1")
        if self.multiplicity < 1:
            raise SchemeFormatError("multiplicity must be at least 1")
        if not self.points:
            raise SchemeFormatError("empty point list")
        canon = []
        for idx, p in enumerate(self.points):
            if len(p) != self.dim + 1:
                raise SchemeFormatError(
                    f"point {idx}: expected {self.dim + 1} coordinates, got {len(p)}"
                )
            canon.append(normalize_point(p))
        object.__setattr__(self, "points", tuple(canon))
        seen: dict[Coords, int] = {}
        for idx, p in enumerate(self.points):
            if p in seen:
                raise SchemeFormatError(f"points {seen[p]} and {idx} coincide")
            seen[p] = idx
        if any(len(h) != self.dim + 1 for h in self.hyperplanes or ()):
            raise SchemeFormatError(f"hyperplanes need {self.dim + 1} coefficients")

    def with_multiplicity(self, m: int) -> "FatPointScheme":
        return FatPointScheme(self.dim, self.points, m, self.hyperplanes)

    @cached_property
    def int_points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(clear_denominators(p)) for p in self.points)

    def fat_point_degree(self) -> int:
        """Expected length of the scheme: points * local colength."""
        n, m = self.dim, self.multiplicity
        return len(self.points) * comb(n + m - 1, n)


def _condition_rows(
    points, multiplicity: int, mons: Sequence[Exponents]
) -> list[list[int]]:
    """Rows of derivative-evaluation conditions (exact, any numeric type).

    One row per (point, multi-index beta with |beta| = m-1); the entry at a
    degree-d monomial x^alpha is (d^beta x^alpha)(p), i.e. the falling
    factorial prod alpha_i!/(alpha_i-beta_i)! times p^(alpha-beta).  The
    variable count is the points' length, d the monomials' degree.

    The product runs over the variables, so each point gets one factor
    table per coordinate c_i, f_i[b][a] = a!/(a-b)! * c_i^(a-b) (0 when
    b > a), read off at the monomials' i-th exponents; a beta-row is the
    elementwise product of the table rows f_i[beta_i].
    """
    num_vars = len(points[0])
    max_degree = max(map(sum, mons), default=0)
    betas = monomials_of_degree(num_vars, multiplicity - 1)
    exponents = [[alpha[i] for alpha in mons] for i in range(num_vars)]
    rows = []
    for p in points:
        factors = []
        for c, column in zip(p, exponents):
            powers = [1]
            for _ in range(max_degree):
                powers.append(powers[-1] * c)
            table = [[perm(a, b) * powers[a - b] if a >= b else 0
                      for a in range(max_degree + 1)] for b in range(multiplicity)]
            factors.append([[t[a] for a in column] for t in table])
        for beta in betas:
            row = factors[0][beta[0]]
            for f, b in zip(factors[1:], beta[1:]):
                row = list(map(mul, row, f[b]))
            rows.append(row)
    return rows


@dataclass(frozen=True)
class StarConfiguration:
    """s hyperplanes of P^n in linearly general position and their
    binom(s, n) n-wise intersection points."""

    n: int
    s: int
    hyperplanes: tuple[tuple[int, ...], ...]
    points: tuple[Coords, ...]

    def scheme(self, multiplicity: int = 1) -> FatPointScheme:
        return FatPointScheme(self.n, self.points, multiplicity, self.hyperplanes)


def _kernel_vector(rows: list[list[int]], ncols: int) -> list[int] | None:
    """Kernel vector of an (ncols-1) x ncols integer system: its signed
    maximal minors, the j-th the determinant with column j deleted; None
    if they all vanish, that is, if the rows are dependent."""
    vec = [(-1) ** j * determinant([row[:j] + row[j + 1:] for row in rows])
           for j in range(ncols)]
    if not any(vec):
        return None
    for row in rows:
        if sum(a * x for a, x in zip(row, vec)) != 0:
            raise AssertionError("kernel vector failed verification")
    return vec


def _points_from_hyperplanes(
    n: int, hyperplanes: Sequence[tuple[int, ...]]
) -> list[Coords] | None:
    """Intersection point of every n-subset; None on any degeneracy."""
    pts: list[Coords] = []
    seen = set()
    for subset in combinations(range(len(hyperplanes)), n):
        rows = [list(hyperplanes[j]) for j in subset]
        vec = _kernel_vector(rows, n + 1)
        if vec is None:
            return None
        point = normalize_point(vec)
        if point in seen:
            return None
        seen.add(point)
        pts.append(point)
    return pts


def build_star(
    n: int,
    s: int,
    mode: str = "vandermonde",
    seed: int = 0,
    bound: int = COEFF_BOUND,
) -> StarConfiguration:
    """Star configuration of the n-wise intersection points of s hyperplanes.

    vandermonde: h_j has coefficients (1, j, j^2, ..., j^n) for j = 1..s;
    every n x (n+1) subsystem is a Vandermonde slice of full rank, so this
    family is valid for every (n, s).  seeded: coefficients drawn uniformly
    from [-bound, bound], redrawn (bounded retries) on degeneracy.
    Deterministic given (n, s, mode, seed, bound).
    """
    if n < 1 or s < n:
        raise ValueError("need s >= n >= 1")
    if mode == "vandermonde":
        planes = tuple(tuple(j**i for i in range(n + 1)) for j in range(1, s + 1))
        pts = _points_from_hyperplanes(n, planes)
        if pts is None:
            raise DegenerateConfigurationError("vandermonde family degenerated")
        return StarConfiguration(n, s, planes, tuple(pts))
    if mode == "seeded":
        rng = SeededRng(seed)
        for _ in range(100):
            planes = tuple(
                tuple(rng.next_int(-bound, bound) for _ in range(n + 1))
                for _ in range(s)
            )
            if any(all(c == 0 for c in h) for h in planes):
                continue
            pts = _points_from_hyperplanes(n, planes)
            if pts is not None:
                return StarConfiguration(n, s, planes, tuple(pts))
        raise DegenerateConfigurationError(
            "no valid hyperplane family after 100 seeded attempts"
        )
    raise ValueError(f"unknown mode {mode!r}")


def load_points(path) -> FatPointScheme:
    """Read a point scheme from JSON.

    Expected shape: {"dim": n, "multiplicity": m,
                     "points": [["p/q" | "p", ...], ...]}.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemeFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemeFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemeFormatError(f"{path}: top level must be an object")
    for key in ("dim", "points"):
        if key not in doc:
            raise SchemeFormatError(f"{path}: missing key {key!r}")
    dim = doc["dim"]
    mult = doc.get("multiplicity", 1)
    # Not isinstance: JSON true and false are bools, an int subclass.
    if type(dim) is not int or type(mult) is not int:
        raise SchemeFormatError(f"{path}: dim and multiplicity must be integers")
    raw_points = doc["points"]
    if not isinstance(raw_points, list):
        raise SchemeFormatError(f"{path}: points must be a list")
    points = []
    for idx, raw in enumerate(raw_points):
        if not isinstance(raw, list):
            raise SchemeFormatError(f"{path}: point {idx} must be a list")
        coords = []
        for jdx, val in enumerate(raw):
            try:
                coords.append(parse_rational(str(val)))
            except ValueError as exc:
                raise SchemeFormatError(
                    f"{path}: point {idx}, coordinate {jdx}: {exc}"
                ) from exc
        points.append(tuple(coords))
    try:
        return FatPointScheme(dim, tuple(points), mult)
    except SchemeFormatError as exc:
        raise SchemeFormatError(f"{path}: {exc}") from exc
