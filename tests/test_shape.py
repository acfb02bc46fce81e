import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import EQ, LE, brute_force_feasible, fraction_volume_estimate, naive_facets
from starshape.errors import UnboundedRegionError
from starshape.shape import (
    AxisSimplex,
    Shape,
    _check_facets,
    _facets,
    avoids_interior,
    axis_intercept,
    contains,
    points_csv,
    q_area_2d,
    q_volume_estimate,
    scaled,
    shape_of,
    staircase_svg,
)


def F(a, b=1):
    return Fraction(a, b)


def shape2(*pts):
    return Shape(2, tuple(tuple(map(Fraction, p)) for p in pts))


def minimal(raw):
    """The minimal elements of a set of points (an antichain)."""
    return [
        p for p in sorted(raw)
        if not any(o != p and all(x <= y for x, y in zip(o, p)) for o in raw)
    ]


# --- independent area oracle: Sutherland-Hodgman clipping of the bounding
# box against every supporting halfplane through a pair of generators.


def shoelace(poly):
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def clip(poly, a, b, c):
    """Keep the side a x + b y >= c."""
    out = []
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        pin = a * p[0] + b * p[1] >= c
        qin = a * q[0] + b * q[1] >= c
        if pin:
            out.append(p)
        if pin != qin:
            den = a * (q[0] - p[0]) + b * (q[1] - p[1])
            t = (c - a * p[0] - b * p[1]) / den
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def oracle_q_area(sh):
    pts = [tuple(p) for p in sh.points]
    t1 = axis_intercept(sh, 1)
    t2 = axis_intercept(sh, 2)
    poly = [(F(0), F(0)), (t1, F(0)), (t1, t2), (F(0), t2)]
    for g, h in combinations(pts, 2):
        a, b = h[1] - g[1], g[0] - h[0]
        c = a * g[0] + b * g[1]
        for aa, bb, cc in ((a, b, c), (-a, -b, -c)):
            if (aa > 0 or bb > 0) and aa >= 0 and bb >= 0:
                if all(aa * p[0] + bb * p[1] >= cc for p in pts):
                    poly = clip(poly, aa, bb, cc)
    return t1 * t2 - shoelace(poly)


def test_shape_of_and_scaled_examples(star_gin):
    res = star_gin(2, 3, 2)
    sh = shape_of(res)
    assert set(sh.points) == {(3, 0), (2, 2), (1, 3), (0, 4)}
    half = scaled(sh, 2)
    assert set(half.points) == {
        (F(3, 2), F(0)),
        (F(1), F(1)),
        (F(1, 2), F(3, 2)),
        (F(0), F(2)),
    }
    single = shape2((1, 1))
    assert scaled(single, 1).points == single.points
    unit = shape_of(star_gin(3, 3, 1))
    assert set(unit.points) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_shape_rejects_comparable_points():
    with pytest.raises(ValueError, match="comparable"):
        shape2((1, 1), (2, 2))


def test_axis_intercepts(star_gin):
    sh = shape_of(star_gin(2, 3, 2))
    assert axis_intercept(sh, 1) == 3
    assert axis_intercept(sh, 2) == 4
    half = scaled(sh, 2)
    w = AxisSimplex.star(2, 3)
    assert axis_intercept(half, 1) == F(3, 2) == w.intercepts[0]
    assert axis_intercept(half, 2) == F(2) == w.intercepts[1]
    assert axis_intercept(shape2((1, 0)), 2) is None


def test_contains_examples(star_gin):
    deg2 = shape2((2, 0), (1, 1), (0, 2))
    assert contains(deg2, (2, 2))
    assert not contains(deg2, (F(1, 2), F(1, 2)))
    sh = shape_of(star_gin(2, 3, 2))
    assert contains(sh, (1, 3))  # boundary point


def test_contains_consistent_with_axis_intercept(star_gin):
    sh = shape_of(star_gin(2, 3, 2))
    for i in (1, 2):
        t = axis_intercept(sh, i)
        below = [F(0)] * 2
        at = [F(0)] * 2
        above = [F(0)] * 2
        below[i - 1] = t - F(1, 7)
        at[i - 1] = t
        above[i - 1] = t + F(1, 7)
        assert not contains(sh, below)
        assert contains(sh, at)
        assert contains(sh, above)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=5
    ),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_contains_is_monotone(raw, q, bump):
    antichain = minimal(raw)
    sh = shape2(*antichain)
    if contains(sh, q):
        assert contains(sh, (q[0] + bump[0], q[1] + bump[1]))


@st.composite
def antichain_shapes(draw, dims=(2, 3, 4), max_points=(7, 6, 5)):
    """Random generator antichains in dimension n, some scaled by 1/m.  Half
    of them put several generators on one hyperplane sum x_i / w_i = c
    (points of equal weighted sum are pairwise incomparable); shapes without
    a pure power on some axis and single points come up on their own."""
    n = draw(st.sampled_from(dims))
    most = max_points[dims.index(n)]
    raw = set(draw(st.lists(
        st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=most
    )))
    if draw(st.booleans()):
        c = draw(st.integers(1, 5))
        w = draw(st.tuples(*[st.integers(1, 3)] * n))
        for _ in range(draw(st.integers(2, 4))):
            cuts = sorted(draw(st.lists(st.integers(0, c), min_size=n - 1, max_size=n - 1)))
            parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [c])]
            raw.add(tuple(wi * x for wi, x in zip(w, parts)))
    pts = minimal(raw)[:most]
    m = draw(st.integers(1, 3))
    return Shape(n, tuple(tuple(F(c, m) for c in p) for p in pts))


@settings(max_examples=150, deadline=None)
@given(antichain_shapes())
@example(Shape(4, tuple(tuple(F(c) for c in p) for p in [
    # Pairs of rays whose shared zero set is also in a third ray's: adding
    # their combination would give the non-facet (11, 24, 3, 3).x >= 30.
    (0, 2, 0, 4), (0, 2, 2, 2), (0, 2, 4, 0), (3, 1, 2, 3), (3, 0, 5, 4),
    (4, 2, 0, 0), (5, 1, 5, 1)])))
def test_facets_match_naive_enumeration(sh):
    assert sh.facets == naive_facets(sh.points)
    for a, b in sh.facets:
        assert min(a) >= 0 and b > 0 and math.gcd(*a) == 1


def member_by_vertex_enumeration(sh, q):
    k, n = len(sh.points), sh.num_vars
    rows = [[g[i] for g in sh.points] for i in range(n)] + [[F(1)] * k]
    return brute_force_feasible(rows, [LE] * n + [EQ], list(q) + [F(1)], k)


@settings(max_examples=40, deadline=None)
@given(antichain_shapes(max_points=(5, 4, 3)), st.lists(
    st.tuples(*[st.fractions(0, 4, max_denominator=3)] * 4), max_size=3))
def test_contains_matches_vertex_enumeration(sh, extra):
    n = sh.num_vars
    queries = list(sh.points) + [q[:n] for q in extra]
    for a, b in sh.facets:
        tight = [p for p in sh.points if sum(x * c for x, c in zip(a, p)) == b]
        on = tuple(sum(col) / len(tight) for col in zip(*tight))
        queries.append(on)  # on the facet, so in P
        i = next((i for i in range(n) if a[i] and on[i] >= F(1, 7)), None)
        if i is not None:
            queries.append(on[:i] + (on[i] - F(1, 7),) + on[i + 1:])
    for q in queries:
        assert contains(sh, q) == member_by_vertex_enumeration(sh, q), q


def test_facet_self_check_fires():
    pts = [(F(3), F(0)), (F(1), F(1)), (F(0), F(3))]
    assert Shape(2, tuple(pts)).facets == (((1, 2), F(3)), ((2, 1), F(3)))
    # Without the inequality of the generator (1, 1), double description
    # returns the chord x + y >= 3, which (1, 1) violates.
    chord = _facets(pts[::2])
    assert chord == (((1, 1), F(3)),)
    with pytest.raises(AssertionError, match="violated or not tight"):
        _check_facets(pts, chord)
    # An inequality tight on no generator.
    with pytest.raises(AssertionError, match="violated or not tight"):
        _check_facets(pts, (((1, 2), F(3)), ((2, 1), F(20, 7))))


def test_volume_estimates_pinned_bit_for_bit(star_gin):
    # Literal (estimate, stderr) pairs at 500 samples and the benchmark's
    # volume seed 1401, keyed by (n, s, m, divisor).  The n = 3 powers
    # divided by m are perfbench/goldens/volume.json's star-3-4-1..3/500 and
    # star-3-5-1..3/500; the n = 4 powers and the star(3,4) m=3 shape
    # divided by 7 were recorded with the per-sample Fraction estimator.
    pinned = {
        (3, 4, 1, 1): (1.3333333333333333, 0.0),
        (3, 4, 2, 2): (0.75, 0.0),
        (3, 4, 3, 3): (0.7051851851851851, 0.007081419494537321),
        (3, 5, 1, 1): (4.5, 0.0),
        (3, 5, 2, 2): (2.0, 0.0),
        (3, 5, 3, 3): (1.788888888888889, 0.023591168048160374),
        (4, 5, 2, 2): (0.28125, 0.0),
        (4, 5, 3, 3): (0.2345679012345679, 0.0024066158876071527),
        (3, 4, 3, 7): (0.055510204081632646, 0.0005574295228936084),
    }
    for (n, s, m, divisor), expected in pinned.items():
        sh = scaled(shape_of(star_gin(n, s, m)), divisor)
        assert q_volume_estimate(sh, samples=500, seed=1401) == expected


@st.composite
def bounded_shapes(draw):
    """antichain_shapes in three and four variables with every pure power
    present: an axis that lacks one gets it beyond every generator, at a
    coordinate with denominator 1, 2 or 3."""
    sh = draw(antichain_shapes(dims=(3, 4)))
    n = sh.num_vars
    pts = list(sh.points)
    for i in range(1, n + 1):
        if axis_intercept(sh, i) is None:
            beyond = F(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
            t = max(p[i - 1] for p in sh.points) + beyond
            pts.append(tuple(t if j == i else F(0) for j in range(1, n + 1)))
    return Shape(n, tuple(pts))


@settings(max_examples=60, deadline=None)
@given(bounded_shapes(), st.integers(1, 60), st.integers(0, 2**64 - 1))
def test_volume_estimate_matches_fraction_samples(sh, samples, seed):
    assume(any(any(p) for p in sh.points))  # the origin alone: Q is empty
    assert q_volume_estimate(sh, samples=samples, seed=seed) == fraction_volume_estimate(
        sh, samples, seed
    )


def test_volume_estimate_origin_generator():
    # The origin generates the whole orthant, so P is everything and Q is
    # empty, as q_area_2d already reports for n = 2.
    assert q_area_2d(Shape(2, ((0, 0),))) == 0
    assert q_volume_estimate(Shape(3, ((0, 0, 0),))) == (0.0, 0.0)
    assert q_volume_estimate(Shape(4, ((0, 0, 0, 0),)), samples=1, seed=5) == (0.0, 0.0)


def test_q_area_simple_triangle():
    assert q_area_2d(shape2((2, 0), (1, 1), (0, 2))) == 2


def test_q_area_star23_m2_exact(star_gin):
    # The convex chain is the single chord (0,4)-(3,0): the generator (2,2)
    # equals (2,4/3) + (0,2/3), hence lies in the polytope already.
    sh = shape_of(star_gin(2, 3, 2))
    assert q_area_2d(sh) == 6
    assert q_area_2d(scaled(sh, 2)) == F(3, 2)
    assert oracle_q_area(sh) == 6


def test_q_area_unbounded_error():
    with pytest.raises(UnboundedRegionError):
        q_area_2d(shape2((1, 0)))


def test_q_area_matches_clipping_oracle(star_gin):
    for n, s, m in [(2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 4, 1), (2, 4, 2)]:
        sh = shape_of(star_gin(n, s, m))
        assert q_area_2d(sh) == oracle_q_area(sh)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=2, max_size=6))
def test_q_area_matches_clipping_oracle_random(raw):
    antichain = minimal(raw)
    if not any(p[1] == 0 for p in antichain) or not any(
        p[0] == 0 for p in antichain
    ):
        return  # Q unbounded; covered by the error test
    sh = shape2(*antichain)
    assert q_area_2d(sh) == oracle_q_area(sh)


def test_volume_estimate_unit_simplex_cases(star_gin):
    corner = Shape(3, ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))))
    est, err = q_volume_estimate(corner, samples=500, seed=3)
    assert abs(est - 1 / 6) <= 3 * err + 1e-9
    sh = shape_of(star_gin(3, 3, 1))
    est, err = q_volume_estimate(sh, samples=500, seed=3)
    assert abs(est - 1 / 6) <= 3 * err + 1e-9


def test_volume_estimate_star34_lower_bound(star_gin):
    sh = shape_of(star_gin(3, 4, 1))
    est, err = q_volume_estimate(sh, samples=800, seed=5)
    assert est >= 2 / 3 - 3 * err


def test_volume_estimate_is_deterministic(star_gin):
    sh = shape_of(star_gin(3, 4, 1))
    assert q_volume_estimate(sh, samples=200, seed=9) == q_volume_estimate(
        sh, samples=200, seed=9
    )
    with pytest.raises(ValueError):
        q_volume_estimate(shape2((1, 0), (0, 1)), samples=10, seed=1)


def test_axis_simplex_star_values():
    w23 = AxisSimplex.star(2, 3)
    assert w23.intercepts == (F(3, 2), F(2))
    assert w23.volume == F(3, 2)
    w33 = AxisSimplex.star(3, 3)
    assert w33.intercepts == (F(1), F(1), F(1))
    assert w33.volume == F(1, 6)
    w35 = AxisSimplex.star(3, 5)
    assert w35.intercepts == (F(5, 3), F(2), F(3))
    assert w35.volume == F(10, 6)
    with pytest.raises(ValueError):
        AxisSimplex.star(3, 2)


def test_avoids_interior_examples(star_gin):
    w = AxisSimplex.star(2, 3)
    m1 = shape_of(star_gin(2, 3, 1))  # points (2,0),(1,1),(0,2)
    assert avoids_interior(m1, w)  # values 4/3, 7/6, 1
    inside = shape2((F(1, 2), F(1, 2)))
    assert not avoids_interior(inside, w)


def test_avoids_interior_unit_simplex_is_degree_bound(star_gin):
    # s = n: all intercepts 1, so the check is total degree >= m on the
    # scaled shape, which holds for generators of a power of the maximal
    # ideal.
    for m in (1, 3):
        res = star_gin(2, 2, m)
        assert avoids_interior(scaled(shape_of(res), m), AxisSimplex.star(2, 2))


def test_svg_and_csv_outputs(star_gin):
    res = star_gin(2, 3, 2)
    sh = scaled(shape_of(res), 2)
    svg = staircase_svg(sh, AxisSimplex.star(2, 3))
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "polygon" in svg and "polyline" in svg
    csv = points_csv(sh)
    lines = csv.strip().splitlines()
    assert lines[0] == "type,x1,x2"
    assert "generator,3/2,0" in lines
    assert lines[-1] == "intercept,3/2,2"
    with pytest.raises(ValueError):
        staircase_svg(shape_of(star_gin(3, 3, 1)))


# The staircase (x^2, y^2) in two variables, and (x^2, y^2) in three, where
# the z axis has no pure power.
SQUARE = Shape(2, ((2, 0), (0, 2)))
NO_Z = Shape(3, ((2, 0, 0), (0, 2, 0)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: scaled(SQUARE, 0), ValueError, "positive integer"),
        (lambda: axis_intercept(SQUARE, 3), ValueError, "out of range"),
        (lambda: contains(SQUARE, (1, 1, 1)), ValueError, "dimension mismatch"),
        (lambda: contains(SQUARE, (-1, 1)), ValueError, "orthant"),
        (lambda: q_area_2d(NO_Z), ValueError, "two variables"),
        (lambda: q_volume_estimate(NO_Z, samples=0), ValueError, "one sample"),
        (lambda: q_volume_estimate(NO_Z), UnboundedRegionError, "missing pure power"),
        (lambda: AxisSimplex((1, 0)), ValueError, "positive"),
        (lambda: avoids_interior(SQUARE, AxisSimplex((1, 1, 1))), ValueError,
         "dimension mismatch"),
    ],
)
def test_shape_functions_reject_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()
