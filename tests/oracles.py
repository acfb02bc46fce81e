"""Independent oracles the tests compare the library against.

The eliminations here share no code with the library's decision path.
revlex_cmp compares monomials by the definition of the order, with no sort
key, so it checks the order monomials_of_degree lists them in.
The rank-based oracles (hf_symbolic, gin_degree, alpha) build their
condition rows entry by entry (naive_condition_rows), not with the
library's factor tables, and take their ranks from echelon_int, a
fraction-free elimination over Q that lives here, never from the mod-p
profile or its certificate.  The determinant oracle sums Leibniz's
formula in Fractions.  The geometry oracles decide membership in a Newton
polyhedron by vertex enumeration and find its facets by trying every
candidate hyperplane.  free_columns_mod_p, prove_free_columns and
degree_e_free_columns are no oracles: they run the library's profile and
proof on whole matrices, as test entry points.  fraction_volume_estimate draws the library's
Monte-Carlo samples but converts each one to Fractions and asks contains,
so it checks the sampler's integer form of each sample, not the facet test
(which the vertex-enumeration oracle checks).
"""

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

from starshape.gin import GIN_BOUND
from starshape.linalg import certified_free_columns, pivot_profile_mod_p, random_invertible_matrix
from starshape.monomial import dimension_of_degree, monomials_of_degree
from starshape.rng import SeededRng
from starshape.scheme import FatPointScheme, _condition_rows
from starshape.shape import AxisSimplex, axis_intercept, contains


def revlex_cmp(u, v):
    """Three-way compare in revlex refining degree: -1 if u < v, 0 if
    equal, +1 if u > v."""
    if len(u) != len(v):
        raise ValueError("exponent vectors of different lengths")
    du, dv = sum(u), sum(v)
    if du != dv:
        return 1 if du > dv else -1
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return 1 if a < b else -1
    return 0


def naive_rref(rows, order):
    """Textbook Gaussian elimination on Fractions, pivots scanned along
    order, no integer clearing, no gcd games: (pivot columns in scan order,
    reduced rows)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in order:
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, m


def _strip_gcd(row: list, start_cols: Sequence[int]) -> None:
    g = 0
    for j in start_cols:
        v = row[j]
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for j in start_cols:
            if row[j]:
                row[j] //= g


def echelon_int(
    rows: list[list[int]], order: Sequence[int], ncols: int
) -> tuple[list[int], list[list[int]]]:
    """Fraction-free forward elimination with pivot scan along `order`.

    Returns (pivot columns in scan order, echelon rows aligned with them).
    Columns outside `order` are carried along but never pivoted.  Input rows
    are left untouched.
    """
    work = [list(r) for r in rows]
    extras = sorted(set(range(ncols)) - set(order))
    pivots: list[int] = []
    r = 0
    for idx, c in enumerate(order):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        a = prow[c]
        tail = list(order[idx + 1 :]) + extras
        for i in range(r + 1, len(work)):
            row = work[i]
            b = row[c]
            if not b:
                continue
            row[c] = 0
            for j in tail:
                row[j] = a * row[j] - b * prow[j]
            _strip_gcd(row, tail)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, work[:r]


def leibniz_determinant(rows):
    """Sum over the permutations of the signed products of entries, in
    Fractions; the sign is that of the permutation's inversion count."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def naive_rank_and_kernel(rows, ncols):
    """Rank and the kernel basis read off naive_rref in the natural column
    order: one vector per non-pivot column, 1 there."""
    pivots, m = naive_rref(rows, range(ncols))
    kernel = []
    pivot_set = set(pivots)
    for fcol in range(ncols):
        if fcol in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -m[i][fcol]
        kernel.append(v)
    return len(pivots), kernel


def exact_free_columns(rows, ncols):
    """Non-pivot columns of echelon_int's last-column-first scan over Q."""
    pivots, _ = echelon_int(rows, range(ncols - 1, -1, -1), ncols)
    return [j for j in range(ncols) if j not in pivots]


def free_columns_mod_p(rows, ncols):
    """The non-pivot columns of the library's pivot_profile_mod_p."""
    return pivot_profile_mod_p(rows, ncols)[0]


def prove_free_columns(rows, ncols, rank_bound=None):
    """The library's certified_free_columns on the profile mod p of all of
    rows."""
    return certified_free_columns(
        pivot_profile_mod_p(rows, ncols), len(rows), lambda: rows, rank_bound)


def degree_e_free_columns(points, multiplicity, sub, rank_bound=None):
    """A generator degree proved on its own condition rows: the free
    columns over Q of the degree-e conditions at the moved points on the
    degree-e monomials sub, from their own profile mod p.  gin reads the
    same proof off its search degree's profile instead."""
    return prove_free_columns(_condition_rows(points, multiplicity, sub), len(sub), rank_bound)


def naive_condition_rows(points, num_vars, multiplicity, mons, max_degree):
    """Rows of derivative-evaluation conditions, entry by entry: one row per
    (point, beta with |beta| = m-1), the entry at x^alpha the falling
    factorial prod alpha_i!/(alpha_i-beta_i)! times p^(alpha-beta)."""
    betas = monomials_of_degree(num_vars, multiplicity - 1)
    rows = []
    for p in points:
        powers = [[1] * (max_degree + 1) for _ in range(num_vars)]
        for i, c in enumerate(p):
            for e in range(1, max_degree + 1):
                powers[i][e] = powers[i][e - 1] * c
        for beta in betas:
            row = []
            for alpha in mons:
                entry = 1
                for ai, bi, pw in zip(alpha, beta, powers):
                    if bi > ai:
                        entry = 0
                        break
                    for t in range(ai, ai - bi, -1):
                        entry *= t
                    entry *= pw[ai - bi]
                row.append(entry)
            rows.append(row)
    return rows


def transform_scheme(sch, g):
    """The scheme moved by the coordinate change x -> g x, g's integer
    rows as given: a form f vanishes to order m at p exactly when f after
    the inverse substitution vanishes to order m at g p, so the moved
    scheme's symbolic power realizes the original one in new coordinates."""
    moved = [[sum(a * c for a, c in zip(row, p)) for row in g] for p in sch.int_points]
    return FatPointScheme(sch.dim, tuple(tuple(map(Fraction, q)) for q in moved), sch.multiplicity)


def conditions_matrix(sch, d):
    """Rows of the order-m vanishing conditions on degree-d forms at the
    canonical (rational) point representatives; columns are the degree-d
    monomials in descending revlex order."""
    k = sch.dim + 1
    return naive_condition_rows(sch.points, k, sch.multiplicity, monomials_of_degree(k, d), d)


def symbolic_basis(sch, d):
    """Kernel basis of conditions_matrix by naive elimination; empty below
    the multiplicity."""
    if d < sch.multiplicity:
        return []
    return naive_rank_and_kernel(conditions_matrix(sch, d), dimension_of_degree(sch.dim + 1, d))[1]


def hf_symbolic(sch, d):
    """dim of the degree-d piece of the symbolic power; zero for d < m."""
    if d < sch.multiplicity:
        return 0
    k = sch.dim + 1
    mons = monomials_of_degree(k, d)
    rows = naive_condition_rows(sch.int_points, k, sch.multiplicity, mons, d)
    pivots, _ = echelon_int(rows, range(len(mons)), len(mons))
    return len(mons) - len(pivots)


def alpha(sch):
    """Least degree with a nonzero element of the symbolic power, from ranks
    alone (no initial ideal)."""
    d = sch.multiplicity
    while hf_symbolic(sch, d) == 0:
        d += 1
    return d


def gin_degree(sch, d, g):
    """Degree-d monomials of the initial ideal of the symbolic power in the
    coordinates g: the non-pivot columns of the smallest-monomial-first scan
    of the transformed condition rows."""
    if d < sch.multiplicity:
        return set()
    k = sch.dim + 1
    mons = monomials_of_degree(k, d)
    rows = naive_condition_rows(transform_scheme(sch, g).int_points, k, sch.multiplicity, mons, d)
    return {mons[j] for j in exact_free_columns(rows, len(mons))}


def two_step_gin_degree(sch, d, g):
    """gin_degree by the kernel-basis-then-reduce description: the leading
    monomials of a reduced kernel basis."""
    if d < sch.multiplicity:
        return set()
    kernel = symbolic_basis(transform_scheme(sch, g), d)
    if not kernel:
        return set()
    pivots, _ = naive_rref(kernel, range(len(kernel[0])))
    mons = monomials_of_degree(sch.dim + 1, d)
    return {mons[j] for j in pivots}


def coordinate_change_for(res, which=0):
    """Rebuild one of the coordinate changes a result was computed with."""
    return random_invertible_matrix(SeededRng(res.seeds_used[which]), res.n + 1, GIN_BOUND)


# --- Newton-polyhedron geometry.

LE, EQ, GE = "<=", "=", ">="


def brute_force_feasible(rows, rels, rhs, nvars):
    """Whether {x >= 0 : rows x (rels) rhs} is non-empty, by vertex
    enumeration (complete because the region is pointed)."""
    planes = [(row, b) for row, b in zip(rows, rhs)]
    planes += [
        ([Fraction(int(j == i)) for j in range(nvars)], Fraction(0))
        for i in range(nvars)
    ]
    for subset in combinations(range(len(planes)), nvars):
        # The vertex solves A x = b for the chosen planes: the kernel of
        # [A | -b] is one vector with last entry 1 exactly when A is
        # invertible (otherwise a column of A is free before the last).
        rank, kernel = naive_rank_and_kernel(
            [list(planes[i][0]) + [-planes[i][1]] for i in subset], nvars + 1
        )
        if rank < nvars or not kernel[0][nvars]:
            continue
        candidate = kernel[0][:nvars]
        if any(x < 0 for x in candidate):
            continue
        ok = True
        for row, rel, b in zip(rows, rels, rhs):
            lhs = sum(a * x for a, x in zip(row, candidate))
            ok = lhs <= b if rel == LE else lhs >= b if rel == GE else lhs == b
            if not ok:
                break
        if ok:
            return True
    return False


def naive_facets(points):
    """The facet inequalities (a, b) with b > 0 of conv(points) + orthant,
    sorted, a primitive and non-negative: every hyperplane through n of the
    k points and axis directions (C(k + n, n) candidates) that is unique,
    bounds every point from below and has b > 0."""
    n = len(points[0])
    pts = [[Fraction(c) for c in p] for p in points]
    # Rows of the homogeneous system in (a, b): a.p - b = 0, or a_i = 0.
    objects = [p + [Fraction(-1)] for p in pts]
    objects += [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n)]
    found = set()
    for subset in combinations(objects, n):
        rank, kernel = naive_rank_and_kernel(list(subset), n + 1)
        if rank != n:
            continue
        (v,) = kernel
        if any(x < 0 for x in v[:n]):
            v = [-x for x in v]
        a, b = v[:n], v[n]
        if any(x < 0 for x in a) or b <= 0:
            continue
        if any(sum(x * c for x, c in zip(a, p)) < b for p in pts):
            continue
        den = math.lcm(*(x.denominator for x in a))
        ints = [int(x * den) for x in a]
        div = math.gcd(*ints)
        found.add((tuple(x // div for x in ints), b * den / div))
    return tuple(sorted(found))


def fraction_volume_estimate(sh, samples, seed):
    """q_volume_estimate's (estimate, stderr) with every sample built as
    Fractions, t_i * Fraction(u_i), and decided by contains.  Needs every
    pure power present and the origin not a generator."""
    n = sh.num_vars
    ts = [axis_intercept(sh, i) for i in range(1, n + 1)]
    box_volume = AxisSimplex(tuple(ts)).volume
    rng = SeededRng(seed)
    hits = 0
    for _ in range(samples):
        exps = [-math.log(1.0 - rng.next_float()) for _ in range(n + 1)]
        total = sum(exps)
        q = [Fraction(ts[i]) * Fraction(exps[i] / total) for i in range(n)]
        if not contains(sh, q):
            hits += 1
    p_hat = hits / samples
    estimate = float(box_volume) * p_hat
    stderr = float(box_volume) * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return estimate, stderr
