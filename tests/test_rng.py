import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starshape.rng import SeededRng, mix64


def test_identical_seeds_identical_streams():
    a = SeededRng(12345)
    b = SeededRng(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_known_pinned_values_are_stable():
    # Frozen once from this implementation; any drift breaks every cache key
    # and every seeded golden file, so it must be caught loudly.
    r = SeededRng(0)
    assert [r.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_is_64_bit(seed):
    assert 0 <= mix64(seed) < 2**64


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 1000))
def test_next_below_in_range(seed, n):
    r = SeededRng(seed)
    for _ in range(20):
        assert 0 <= r.next_below(n) < n


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_next_int_hits_bounds_inclusively(seed):
    r = SeededRng(seed)
    seen = {r.next_int(-2, 2) for _ in range(300)}
    assert seen <= {-2, -1, 0, 1, 2}
    assert {-2, 2} <= seen


def test_derive_gives_independent_deterministic_substreams():
    a1 = SeededRng(7).derive(1)
    a2 = SeededRng(7).derive(1)
    b = SeededRng(7).derive(2)
    assert a1.next_u64() == a2.next_u64()
    assert SeededRng(7).derive(1).next_u64() != b.next_u64()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SeededRng(0).next_below(0), "must be positive"),
        (lambda: SeededRng(0).next_int(2, 1), "empty range"),
    ],
)
def test_draws_reject_empty_ranges(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("word", [2**64 - 2**10, 2**64 - 1], ids=["least-top", "max"])
def test_next_float_of_the_top_words_stays_below_one(monkeypatch, word):
    # The quotient by 2**64 rounds the top 2**10 words up to 1.0, and a
    # volume sample takes log(1 - u): they give the largest float below 1.
    monkeypatch.setattr(SeededRng, "next_u64", lambda self: word)
    u = SeededRng(0).next_float()
    assert u == math.nextafter(1.0, 0.0)
    assert math.isfinite(math.log(1.0 - u))


@pytest.mark.parametrize("word", [0, 1, 2**63 + 1, 2**64 - 2**10 - 1])
def test_next_float_below_the_top_words_is_the_rounded_quotient(monkeypatch, word):
    monkeypatch.setattr(SeededRng, "next_u64", lambda self: word)
    assert SeededRng(0).next_float() == word / 2**64 < 1.0
