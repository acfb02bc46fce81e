from fractions import Fraction

import pytest

from starshape import gin, linalg
from starshape.gin import GinCache, compute_gin
from starshape.invariants import gin_seed
from starshape.scheme import FatPointScheme, build_star

# The GIN seed that seed=0 pipelines use, so results computed here are
# shared (via the session cache) with verify_theorem runs.
GIN_SEED = gin_seed(0)


@pytest.fixture(scope="session")
def gin_cache():
    return GinCache()


@pytest.fixture(scope="session")
def star_gin(gin_cache):
    """Memoized gin of the m-th symbolic power of a vandermonde star."""

    def get(n, s, m):
        star = build_star(n, s)
        return compute_gin(star.with_multiplicity(m), seed=GIN_SEED, cache=gin_cache)

    return get


@pytest.fixture
def lift_calls(monkeypatch):
    """Every certificate lift of linalg.certified_free_columns, in order:
    ("columns", the free columns lifted) or ("rows", the non-pivot rows
    lifted, ascending)."""
    calls = []
    lift = linalg._kernel_certificates

    def spy(mat, heads, eqs, basis, inverse, ordered=False):
        calls.append(("columns", heads) if ordered else ("rows", heads[::-1]))
        return lift(mat, heads, eqs, basis, inverse, ordered=ordered)

    monkeypatch.setattr(linalg, "_kernel_certificates", spy)
    return calls


@pytest.fixture
def proofs(lift_calls, monkeypatch):
    """One record per degree that compute_gin proves, in order: rows,
    columns, free columns over Q (None if refused) and the lifts made, as
    (kind, number of vectors)."""
    records = []
    settle = gin.certified_free_columns

    def spy(profile, nrows, rows, rank_bound=None):
        before = len(lift_calls)
        free = settle(profile, nrows, rows, rank_bound)
        lifts = [(kind, len(targets)) for kind, targets in lift_calls[before:]]
        ncols = len(profile[0]) + len(profile[1])
        records.append((nrows, ncols, None if free is None else len(free), lifts))
        return free

    monkeypatch.setattr(gin, "certified_free_columns", spy)
    return records


@pytest.fixture(scope="session")
def conic_scheme():
    """The bundled scenario: 6 rational points on the conic x1 x3 = x2^2."""
    pts = tuple(
        (Fraction(t * t), Fraction(t), Fraction(1)) for t in range(1, 7)
    )
    return FatPointScheme(2, pts, 1)


@pytest.fixture(scope="session")
def conic_gin(gin_cache, conic_scheme):
    def get(m):
        return compute_gin(
            conic_scheme.with_multiplicity(m), seed=GIN_SEED, cache=gin_cache
        )

    return get
