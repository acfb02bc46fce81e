from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import revlex_cmp
from starshape.monomial import (
    MonomialIdeal,
    dimension_of_degree,
    minimalize,
    monomials_of_degree,
)

# The computed gin of the 2nd symbolic power for 3 general plane points,
# used across the examples below.
GIN23_M2 = [(3, 0), (2, 2), (1, 3), (0, 4)]


def test_revlex_examples():
    # x1 x3 < x2^2: the last differing exponent is larger on the left.
    assert revlex_cmp((1, 0, 1), (0, 2, 0)) == -1
    assert revlex_cmp((2, 0), (2, 0)) == 0
    assert revlex_cmp((3, 0), (2, 1)) == 1  # x1^3 > x1^2 x2


def test_revlex_refines_degree():
    assert revlex_cmp((0, 0, 5), (4, 0, 0)) == 1


def test_revlex_rejects_length_mismatch():
    with pytest.raises(ValueError):
        revlex_cmp((1, 0), (1, 0, 0))


def test_revlex_total_order_small_exhaustive():
    # All monomial pairs of degree <= 4 in <= 3 variables; each degree is
    # listed strictly descending.
    for nv in (1, 2, 3):
        for d in range(5):
            listed = monomials_of_degree(nv, d)
            assert all(revlex_cmp(u, v) == 1 for u, v in zip(listed, listed[1:]))
        mons = [u for d in range(5) for u in monomials_of_degree(nv, d)]
        for u in mons:
            assert revlex_cmp(u, u) == 0
        for u, v in product(mons, repeat=2):
            c = revlex_cmp(u, v)
            assert c == -revlex_cmp(v, u)
            if u != v:
                assert c != 0
        for u, v, w in product(mons, repeat=3):
            if revlex_cmp(u, v) <= 0 and revlex_cmp(v, w) <= 0:
                assert revlex_cmp(u, w) <= 0


def test_monomials_of_degree_descending():
    mons = monomials_of_degree(3, 2)
    assert mons == (
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    )
    assert len(monomials_of_degree(4, 10)) == dimension_of_degree(4, 10)


def test_membership_examples():
    j = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert j.contains((1, 1))
    assert not j.contains((1, 0))
    g = MonomialIdeal(2, GIN23_M2)
    assert not g.contains((2, 1))


def test_minimalize_examples():
    assert minimalize([(2, 0), (3, 0)]) == [(2, 0)]
    assert minimalize([]) == []
    assert minimalize([(2, 0), (1, 1), (0, 2), (2, 1)]) == [(2, 0), (1, 1), (0, 2)]


def test_borel_examples():
    assert MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]).is_borel_fixed()
    assert not MonomialIdeal(2, [(0, 2)]).is_borel_fixed()
    assert MonomialIdeal(2, GIN23_M2).is_borel_fixed()


def test_hilbert_function_examples():
    zero = MonomialIdeal(2, [])
    assert zero.hilbert_function(3) == 4
    j = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert j.hilbert_function(1) == 2
    assert j.hilbert_function(2) == 0
    g = MonomialIdeal(2, GIN23_M2)
    assert [g.hilbert_function(d) for d in range(5)] == [1, 2, 3, 3, 0]


def test_hilbert_values_stop_at_first_zero():
    assert MonomialIdeal(2, GIN23_M2).hilbert_values() == [1, 2, 3, 3, 0]
    assert MonomialIdeal(2, [(1, 0), (0, 1)]).hilbert_values() == [1, 0]
    assert MonomialIdeal(2, [(2, 0), (1, 1)]).hilbert_values() is None
    assert MonomialIdeal(2, []).hilbert_values() is None


def test_pure_power_threshold_examples():
    j = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert j.pure_power_threshold(2) == 2
    g = MonomialIdeal(2, GIN23_M2)
    assert g.pure_power_threshold(1) == 3
    assert g.pure_power_threshold(2) == 4
    assert MonomialIdeal(2, [(1, 0)]).pure_power_threshold(2) is None


def test_borel_pure_powers_are_monotone():
    for gens, nv in [
        (GIN23_M2, 2),
        ([(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)], 3),
    ]:
        j = MonomialIdeal(nv, gens)
        assert j.is_borel_fixed()
        thresholds = [j.pure_power_threshold(i) for i in range(1, nv + 1)]
        assert all(t is not None for t in thresholds)
        assert thresholds == sorted(thresholds)


small_monomials = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=0, max_size=6
)


@settings(max_examples=100)
@given(small_monomials, st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_membership_is_monotone(gens, u):
    j = MonomialIdeal(2, gens)
    if j.contains(u):
        assert j.contains((u[0] + 1, u[1]))
        assert j.contains((u[0], u[1] + 1))


@settings(max_examples=100)
@given(small_monomials)
def test_minimal_generators_all_members_and_incomparable(gens):
    j = MonomialIdeal(2, gens)
    for g in j.generators:
        assert j.contains(g)
    for a in j.generators:
        for b in j.generators:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


def borel_closure(monomials):
    """Every monomial reached by moving exponents to earlier variables."""
    closed, todo = set(), list(monomials)
    while todo:
        u = todo.pop()
        if u in closed:
            continue
        closed.add(u)
        for j, e in enumerate(u):
            for i in range(j if e else 0):
                todo.append(u[:i] + (u[i] + 1,) + u[i + 1 : j] + (e - 1,) + u[j + 1 :])
    return closed


@st.composite
def borel_artinian_ideals(draw):
    """The ideal of the Borel closure of a few monomials plus a pure power of
    the last variable, in 2-4 variables."""
    nv = draw(st.integers(2, 4))
    mons = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nv), max_size=3))
    top = draw(st.integers(1, 5))
    last = (0,) * (nv - 1) + (top,)
    return MonomialIdeal(nv, borel_closure([m for m in mons if any(m)] + [last]))


@settings(max_examples=60, deadline=None)
@given(borel_artinian_ideals())
def test_borel_fixed_generator_degrees_are_first_and_last_pure_powers(j):
    # InvariantReport reads alpha as t_1 and the regularity as t_n of every
    # result; compute_gin only returns Borel-fixed results of finite
    # colength, and for those both equalities hold.
    assert j.is_borel_fixed()
    degrees = [sum(g) for g in j.generators]
    assert min(degrees) == j.pure_power_threshold(1)
    assert max(degrees) == j.pure_power_threshold(j.num_vars)


def test_generator_degrees_need_borel_fixedness():
    # (x^3, xy, y^2): alpha = 2 but t_1 = 3, and the top degree 3 is not t_2.
    j = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
    assert not j.is_borel_fixed()
    assert min(sum(g) for g in j.generators) == 2
    assert j.pure_power_threshold(1) == 3
    assert max(sum(g) for g in j.generators) == 3
    assert j.pure_power_threshold(2) == 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: monomials_of_degree(0, 2), "at least one variable"),
        (lambda: MonomialIdeal(2, [(1, 0, 0)]), "wrong number of variables"),
        (lambda: MonomialIdeal(2, [(1, -1)]), "negative exponent"),
        (lambda: MonomialIdeal(2, GIN23_M2).contains((1, 1, 1)), "wrong number of variables"),
        (lambda: MonomialIdeal(2, GIN23_M2).hilbert_function(-1), "non-negative"),
        (lambda: MonomialIdeal(2, GIN23_M2).pure_power_threshold(3), "out of range"),
    ],
)
def test_monomial_functions_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 4))
def test_last_monomials_of_a_degree_are_a_lower_degree_times_a_last_variable_power(k, e, extra):
    # gin reads the profile of degree e off that of degree e + extra: the
    # last columns there are x_k^extra times the degree-e monomials, in
    # the same order.
    lower = monomials_of_degree(k, e)
    higher = monomials_of_degree(k, e + extra)
    assert higher[len(higher) - len(lower):] == tuple(u[:-1] + (u[-1] + extra,) for u in lower)
