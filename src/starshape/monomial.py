"""Exponent vectors, reverse-lexicographic order, monomial-ideal staircases.

Monomials in k variables are plain tuples of k non-negative integers.
Variables are numbered 1..k with x1 > x2 > ... > xk; at equal total degree
the monomial with the *smaller* exponent at the last position of difference
is the larger one (reverse lexicographic order refining degree).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

Exponents = tuple[int, ...]


def descending_key(u: Exponents):
    """Sort key: ascending on it == descending reverse-lexicographic."""
    return (-sum(u), tuple(reversed(u)))


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[Exponents, ...]:
    """All degree-d monomials in k variables, greatest first (revlex)."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    mons = []
    for bars in combinations(range(degree + num_vars - 1), num_vars - 1):
        prev = -1
        parts = []
        for pos in bars:
            parts.append(pos - prev - 1)
            prev = pos
        parts.append(degree + num_vars - 2 - prev)
        mons.append(tuple(parts))
    mons.sort(key=descending_key)
    return tuple(mons)


def divides(g: Exponents, u: Exponents) -> bool:
    return all(a <= b for a, b in zip(g, u))


def generator_key(u: Exponents):
    """Canonical generator ordering: degree ascending, revlex descending
    within a degree."""
    return (sum(u), tuple(reversed(u)))


def minimalize(gens) -> list[Exponents]:
    """Drop every generator divisible by another; same ideal generated."""
    unique = sorted(set(tuple(g) for g in gens), key=generator_key)
    kept: list[Exponents] = []
    for g in unique:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return kept


class MonomialIdeal:
    """Monomial ideal given by its (automatically minimalized) generators."""

    def __init__(self, num_vars: int, generators=()):
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != num_vars:
                raise ValueError("generator has wrong number of variables")
            if any(e < 0 for e in g):
                raise ValueError("negative exponent")
        self.num_vars = num_vars
        self.generators: tuple[Exponents, ...] = tuple(minimalize(gens))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.num_vars == other.num_vars
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.generators))

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.num_vars}, {list(self.generators)})"

    def contains(self, u: Exponents) -> bool:
        """Membership in the staircase: some generator divides u."""
        if len(u) != self.num_vars:
            raise ValueError("wrong number of variables")
        return any(divides(g, u) for g in self.generators)

    def hilbert_function(self, d: int) -> int:
        """Number of degree-d standard monomials (monomials not in the ideal)."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        return sum(
            1 for u in monomials_of_degree(self.num_vars, d) if not self.contains(u)
        )

    def pure_power_threshold(self, i: int) -> int | None:
        """Least p with x_i^p in the ideal (variable index 1..k), else None."""
        if not 1 <= i <= self.num_vars:
            raise ValueError("variable index out of range")
        best: int | None = None
        for g in self.generators:
            if all(e == 0 for j, e in enumerate(g) if j != i - 1):
                p = g[i - 1]
                if best is None or p < best:
                    best = p
        return best

    def hilbert_values(self) -> list[int] | None:
        """Hilbert function of the quotient from degree 0 up to and including
        its first zero; None when some variable has no pure power in the
        ideal, exactly the case where it never reaches zero."""
        for i in range(1, self.num_vars + 1):
            if self.pure_power_threshold(i) is None:
                return None
        values = [self.hilbert_function(0)]
        while values[-1]:
            values.append(self.hilbert_function(len(values)))
        return values

    def is_borel_fixed(self) -> bool:
        """Strong stability: swapping any x_j in a generator for an earlier
        x_i (i < j) stays inside the ideal (characteristic-0 criterion)."""
        for g in self.generators:
            for j in range(self.num_vars):
                if g[j] == 0:
                    continue
                for i in range(j):
                    moved = list(g)
                    moved[j] -= 1
                    moved[i] += 1
                    if not self.contains(tuple(moved)):
                        return False
        return True


def dimension_of_degree(num_vars: int, d: int) -> int:
    """dim of the degree-d graded piece of a polynomial ring in k variables."""
    return comb(d + num_vars - 1, num_vars - 1)
