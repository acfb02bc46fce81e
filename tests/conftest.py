from fractions import Fraction

import pytest

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
        return compute_gin(star.scheme(m), seed=GIN_SEED, cache=gin_cache)

    return get


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
