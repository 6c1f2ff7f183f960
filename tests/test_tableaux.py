"""Tests for tableaux, their crystals, and the diagram correspondences."""

import pytest

from kohnert.compositions import compositions_up_to, strip_trailing_zeros
from kohnert.diagrams import composition_diagram, weight
from kohnert.moves import generate_kd
from kohnert.crystal import raising
from kohnert.polynomials import demazure_character
from kohnert.tableaux import (
    Tableau,
    demazure_set_op,
    demazure_subset,
    enumerate_sskt,
    highest_weight_tableau,
    is_sskt,
    psi,
    sskt_raise,
    ssyt_lower,
    ssyt_raise,
)

from oracle import (build_crystal, character, enumerate_ssyt, is_ssyt,
                    oracle_sskt_raise, oracle_ssyt_lower, oracle_ssyt_raise,
                    reduced_word_last)

B312_ROWS = [
    ((1, 1, 1), (2, 2)), ((1, 1, 1), (2, 3)), ((1, 1, 2), (2, 2)),
    ((1, 1, 1), (3, 3)), ((1, 1, 2), (2, 3)), ((1, 1, 2), (3, 3)),
    ((1, 2, 2), (2, 3)), ((1, 2, 2), (3, 3)), ((2, 2, 2), (3, 3)),
]


def test_tableau_basics():
    t = Tableau.of((1, 1, 2), (2, 3))
    assert t.shape == (3, 2)
    assert len(t) == 5
    assert t.entry(3, 1) == 2 and t.entry(2, 2) == 3
    assert [(c, r) for c, r, v in t.cells() if v == 2] == [(3, 1), (1, 2)]
    assert t.replace(3, 1, 9).entry(3, 1) == 9
    assert t.weight() == (2, 2, 1)
    assert t.weight(4) == (2, 2, 1, 0)
    with pytest.raises(ValueError):
        t.weight(2)


def test_is_ssyt_examples():
    assert is_ssyt(Tableau.of((1, 1, 2), (2, 3)))
    assert not is_ssyt(Tableau.of((1, 2), (1, 3)))      # column repeats
    assert not is_ssyt(Tableau.of((1, 3, 2)))           # row decreases
    assert not is_ssyt(Tableau.of((1,), (2, 2)))        # shape not a partition
    assert not is_ssyt(Tableau.of((), (1,)))            # empty row
    assert is_ssyt(Tableau.of((1, 1, 2), (2, 3)), 3)
    assert not is_ssyt(Tableau.of((1, 1, 2), (2, 3)), 2)


def test_is_sskt_examples():
    assert is_sskt(Tableau.of((), (1, 1, 1), (2, 2)))
    assert is_sskt(Tableau.of((1,), (2, 1)))
    assert not is_sskt(Tableau.of((2,)))                # entry above its row
    assert not is_sskt(Tableau.of((1, 2)))              # row increases
    assert not is_sskt(Tableau.of((1,), (1, 1)))        # column repeats
    # the smaller entry on top needs a larger one right of the lower cell
    assert not is_sskt(Tableau.of((), (2, 2), (1, 1)))
    t = Tableau.of((1,), (2, 1))
    assert t.shape == (1, 2) and is_sskt(t)
    assert not (t.shape == (2, 1) and is_sskt(t))


def test_highest_weight_tableau():
    assert highest_weight_tableau((3, 2, 0)).rows == ((1, 1, 1), (2, 2))
    assert highest_weight_tableau(()).rows == ()
    with pytest.raises(ValueError):
        highest_weight_tableau((1, 2))


def test_build_crystal_size_and_character():
    crystal = build_crystal((3, 2, 0), 3)
    assert len(crystal.elements) == 15
    assert crystal.highest == highest_weight_tableau((3, 2))
    assert all(is_ssyt(t, 3) for t in crystal.elements)
    assert character(crystal.elements, 3) == demazure_character((0, 2, 3))


def test_ssyt_operators_are_inverse():
    crystal = build_crystal((3, 2, 0), 3)
    for t in crystal.elements:
        for i in (1, 2):
            u = ssyt_lower(t, i)
            if u is not None:
                assert ssyt_raise(u, i) == t
            v = ssyt_raise(t, i)
            if v is not None:
                assert ssyt_lower(v, i) == t


def test_demazure_subset_examples():
    assert [t.rows for t in demazure_subset((3, 2, 0), (1, 2, 3), 3).elements] == [
        ((1, 1, 1), (2, 2))]
    assert {t.rows for t in demazure_subset((3, 2, 0), (1, 3, 2), 3).elements} == {
        ((1, 1, 1), (2, 2)), ((1, 1, 1), (2, 3)), ((1, 1, 1), (3, 3))}
    assert {t.rows for t in demazure_subset((3, 2, 0), (3, 1, 2), 3).elements} == set(B312_ROWS)
    full = demazure_subset((3, 2, 0), (3, 2, 1), 3)
    assert full.element_set == build_crystal((3, 2, 0), 3).element_set


def test_demazure_subset_word_independence():
    from kohnert.perms import all_permutations
    for w in all_permutations(3):
        a = demazure_subset((3, 2, 0), w, 3).element_set
        b = frozenset([highest_weight_tableau((3, 2, 0))])
        for i in reduced_word_last(w):
            b = demazure_set_op(b, i)
        assert a == b


def test_demazure_subset_validation():
    with pytest.raises(ValueError):
        demazure_subset((3, 2, 1), (2, 1), 2)
    with pytest.raises(ValueError):
        demazure_subset((2, 0), (3, 2, 1), 2)


def test_demazure_set_op_grows_and_is_idempotent():
    start = frozenset([highest_weight_tableau((3, 2))])
    once = demazure_set_op(start, 2)
    assert start <= once
    assert demazure_set_op(once, 2) == once


def test_demazure_set_op_braid():
    start = frozenset([highest_weight_tableau((3, 2))])

    def chain(s, *word):
        for i in word:
            s = demazure_set_op(s, i)
        return s

    assert chain(start, 1, 2, 1) == chain(start, 2, 1, 2)


def test_character_accepts_various_inputs():
    kset = generate_kd(composition_diagram((0, 2)))
    assert character(kset.members, 2) == demazure_character((0, 2))


def test_enumerate_ssyt_matches_crystal():
    got = enumerate_ssyt((3, 2, 0), 3)
    assert len(got) == 15
    assert set(got) == build_crystal((3, 2, 0), 3).element_set
    with pytest.raises(ValueError):
        enumerate_ssyt((1, 2), 3)


def test_enumerate_sskt_counts_and_characters():
    for a, count in (((0, 3, 2), 9), ((3, 0, 2), 3), ((3, 2, 0), 1)):
        tabs = enumerate_sskt(a)
        assert len(tabs) == count
        assert all(t.shape == tuple(a) and is_sskt(t) for t in tabs)
        assert character(tabs, len(a)) == demazure_character(a)


def test_psi_is_a_weight_preserving_bijection():
    a = (0, 3, 2)
    tabs = enumerate_sskt(a)
    members = generate_kd(composition_diagram(a)).member_set
    images = {psi(t) for t in tabs}
    assert images == members
    assert len(images) == len(tabs)
    for t in tabs:
        assert weight(psi(t), 3) == t.weight(3)


def test_psi_intertwines_raising():
    for t in enumerate_sskt((0, 3, 2)):
        for i in (1, 2):
            raised_tab = sskt_raise(t, i)
            raised_dia = raising(psi(t), i)
            if raised_tab is None:
                assert raised_dia is None
            else:
                assert psi(raised_tab) == raised_dia


def test_ssyt_operators_match_the_bracket_oracle():
    shapes = {strip_trailing_zeros(sorted(a, reverse=True))
              for a in compositions_up_to(5, 4)}
    checked = 0
    for lam in shapes:
        for n in range(max(len(lam), 1), 5):
            for t in enumerate_ssyt(lam, n):
                for i in range(1, n + 1):
                    assert ssyt_lower(t, i) == oracle_ssyt_lower(t, i), (t, i)
                    assert ssyt_raise(t, i) == oracle_ssyt_raise(t, i), (t, i)
                    checked += 1
    assert checked > 1000


def test_sskt_raise_matches_the_bracket_oracle():
    checked = 0
    for a in {strip_trailing_zeros(a) for a in compositions_up_to(5, 4)}:
        for t in enumerate_sskt(a):
            for i in range(1, len(a) + 1):
                assert sskt_raise(t, i) == oracle_sskt_raise(t, i), (t, i)
                checked += 1
    assert checked > 1000


def test_psi_rejects_non_key_tableaux():
    with pytest.raises(ValueError):
        psi(Tableau.of((1, 2)))


if __name__ == "__main__":
    pytest.main([__file__])
