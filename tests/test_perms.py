"""Tests for permutations, reduced words, and Lehmer codes."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kohnert.perms import (
    all_permutations,
    check_permutation,
    compose,
    contains_2143,
    lehmer_code,
    longest,
    reduced_word,
    sort_and_minimal_perm,
)

from oracle import act, identity, inverse, length, reduced_word_last, word_to_permutation


@st.composite
def perms(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def perm_pairs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    u = tuple(draw(st.permutations(range(1, n + 1))))
    v = tuple(draw(st.permutations(range(1, n + 1))))
    return u, v


def test_check_permutation_rejects_bad_input():
    with pytest.raises(ValueError):
        check_permutation((1, 3))
    with pytest.raises(ValueError):
        check_permutation((2, 2, 1))
    assert check_permutation([2, 1]) == (2, 1)


def test_identity_and_longest():
    assert identity(4) == (1, 2, 3, 4)
    assert longest(4) == (4, 3, 2, 1)
    assert length(identity(5)) == 0
    assert length(longest(5)) == 10


@given(perms())
def test_inverse_laws(w):
    assert inverse(inverse(w)) == w
    assert compose(w, inverse(w)) == identity(len(w))
    assert compose(inverse(w), w) == identity(len(w))
    assert length(inverse(w)) == length(w)


@given(perm_pairs())
def test_compose_and_act_are_compatible(pair):
    u, v = pair
    a = tuple(range(10, 10 + len(u)))
    assert act(compose(u, v), a) == act(v, act(u, a))


def test_act_examples():
    assert act(identity(3), (5, 6, 7)) == (5, 6, 7)
    assert act((3, 1, 2), (3, 2, 0)) == (0, 3, 2)
    with pytest.raises(ValueError):
        act((1, 2), (1, 2, 3))


@given(perms())
def test_reduced_words_recompose(w):
    n = len(w)
    first = reduced_word(w)
    last = reduced_word_last(w)
    for word in (first, last):
        assert len(word) == length(w)
        assert all(1 <= i < n for i in word)
        assert word_to_permutation(word, n) == w


def test_reduced_word_examples():
    assert reduced_word(identity(4)) == ()
    assert word_to_permutation((), 3) == identity(3)
    assert word_to_permutation(reduced_word((3, 1, 2)), 3) == (3, 1, 2)


def test_lehmer_code_examples():
    assert lehmer_code((1, 3, 6, 2, 5, 8, 4, 7)) == (0, 1, 3, 0, 1, 2, 0, 0)
    assert lehmer_code(longest(4)) == (3, 2, 1, 0)
    assert lehmer_code(identity(4)) == (0, 0, 0, 0)


@given(perms())
def test_lehmer_code_sums_to_length(w):
    assert sum(lehmer_code(w)) == length(w)


def test_sort_and_minimal_perm_examples():
    assert sort_and_minimal_perm((0, 3, 2)) == ((3, 2, 0), (3, 1, 2))
    assert sort_and_minimal_perm((0, 3, 1, 1)) == ((3, 1, 1, 0), (4, 1, 2, 3))
    assert sort_and_minimal_perm(()) == ((), ())


def test_sort_and_minimal_perm_is_minimal():
    for a in ((0, 3, 2), (0, 3, 1, 1), (1, 1, 1), (0, 0, 2), (2, 0, 2, 1)):
        lam, w = sort_and_minimal_perm(a)
        assert tuple(sorted(a, reverse=True)) == lam
        assert act(w, lam) == a
        witnesses = [u for u in all_permutations(len(a)) if act(u, lam) == a]
        best = min(length(u) for u in witnesses)
        assert [u for u in witnesses if length(u) == best] == [w]


def test_all_permutations():
    got = list(all_permutations(4))
    assert len(got) == 24
    assert got == sorted(got)
    assert got[0] == identity(4)
    assert got[-1] == longest(4)


def _pattern_oracle(w):
    for a, b, c, d in combinations(range(len(w)), 4):
        if w[b] < w[a] < w[d] < w[c]:
            return True
    return False


def test_contains_2143_examples():
    assert contains_2143((2, 1, 4, 3))
    assert contains_2143((1, 3, 6, 2, 5, 8, 4, 7))
    assert not contains_2143((1, 2, 3, 4))
    assert not contains_2143((3, 1, 4, 2))
    assert not contains_2143((2, 1, 3))


def test_contains_2143_matches_oracle():
    for n in (4, 5):
        for w in all_permutations(n):
            assert contains_2143(w) == _pattern_oracle(w)


if __name__ == "__main__":
    pytest.main([__file__])
