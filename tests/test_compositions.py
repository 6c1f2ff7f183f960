"""Tests for weak compositions and the refinement / dominance orders."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kohnert.compositions import (
    check_composition,
    compositions_of,
    compositions_up_to,
    flatten,
    pad,
    strip_trailing_zeros,
)

from oracle import dominates, refines

compositions = st.lists(st.integers(0, 5), max_size=5).map(tuple)


def test_check_composition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_composition((1, -1))
    with pytest.raises(ValueError):
        check_composition((1, "a"))
    check_composition(())
    check_composition((0, 3, 2))


def test_strip_and_pad():
    assert strip_trailing_zeros((0, 3, 2, 0, 0)) == (0, 3, 2)
    assert strip_trailing_zeros((0, 0)) == ()
    assert pad((1, 2), 4) == (1, 2, 0, 0)
    assert pad((1, 2), 2) == (1, 2)
    with pytest.raises(ValueError):
        pad((1, 2, 3), 2)


def test_flatten():
    assert flatten((0, 3, 0, 1)) == (3, 1)
    assert flatten((2, 2)) == (2, 2)
    assert flatten((0, 0)) == ()


@given(compositions)
def test_strip_then_pad_round_trips(a):
    assert pad(strip_trailing_zeros(a), len(a)) == a


def test_refines_examples():
    # consecutive runs of the fine parts must sum to the coarse parts
    assert refines((2, 1, 3), (3, 3))
    assert refines((2, 1, 3), (6,))
    assert refines((2, 1, 3), (2, 4))
    assert not refines((2, 2, 2), (3, 3))
    assert not refines((3, 3), (2, 1, 3))
    assert refines((), ())


def test_dominates_examples():
    assert dominates((3, 2, 0), (2, 2, 1))
    assert not dominates((2, 2, 1), (3, 2, 0))
    assert dominates((1, 1), (1, 1))
    assert not dominates((2, 2), (3, 1))


@given(compositions)
def test_orders_are_reflexive(a):
    assert dominates(a, a)


@given(compositions, compositions, compositions)
def test_dominance_is_transitive(a, b, c):
    if len(a) == len(b) == len(c) and sum(a) == sum(b) == sum(c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_compositions_of_counts():
    assert list(compositions_of(0, 0)) == [()]
    assert list(compositions_of(2, 0)) == []
    for total in range(5):
        for length in range(1, 4):
            got = list(compositions_of(total, length))
            assert len(got) == math.comb(total + length - 1, length - 1)
            assert len(set(got)) == len(got)
            assert all(sum(a) == total and len(a) == length for a in got)


def test_compositions_up_to_counts():
    got = list(compositions_up_to(6, 4))
    assert len(got) == 330
    assert len(set(got)) == len(got)
    assert (0, 3, 2) in got
    assert (1, 1, 1, 1) in got
    assert () in got
    assert all(0 < len(a) <= 4 or a == () for a in got)
    assert all(sum(a) <= 6 for a in got)


if __name__ == "__main__":
    pytest.main([__file__])
