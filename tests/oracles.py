"""Independent oracles the tests compare the library against.

The Fraction eliminations here share no code with the library.  The
rank-based oracles (hf_symbolic, gin_degree, alpha) take their ranks from
the library's exact fallback, linalg.echelon_int, never from the mod-p
profile or its certificate, so they check the pipeline's fast path.
"""

from fractions import Fraction

from starshape.linalg import echelon_int, random_invertible_matrix
from starshape.monomial import dimension_of_degree, monomials_of_degree
from starshape.rng import SeededRng
from starshape.scheme import _condition_rows, transform_scheme


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


def conditions_matrix(sch, d):
    """Rows of the order-m vanishing conditions on degree-d forms at the
    canonical (rational) point representatives; columns are the degree-d
    monomials in descending revlex order."""
    k = sch.dim + 1
    return _condition_rows(sch.points, k, sch.multiplicity, monomials_of_degree(k, d), d)


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
    rows = _condition_rows(sch.int_points, k, sch.multiplicity, mons, d)
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
    rows = _condition_rows(transform_scheme(sch, g).int_points, k, sch.multiplicity, mons, d)
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
    return random_invertible_matrix(SeededRng(res.seeds_used[which]), res.n + 1, res.bound)
