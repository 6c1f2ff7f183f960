"""End-to-end acceptance checks.

Each test covers one headline identity at its stated scale, asserts the
result exactly, enforces the runtime budget, and prints a one-line
verdict.  Run with ``pytest -v tests/test_acceptance.py`` to see one
line per criterion.
"""

import random
import time

from kohnert.compositions import compositions_up_to
from kohnert.crystal import crystal_graph, raising
from kohnert.diagrams import composition_diagram, rothe_diagram, weight
from kohnert.labeling import component_demazure_data, demazure_expansion
from kohnert.moves import generate_kd, kohnert_polynomial
from kohnert.perms import all_permutations, compose, longest, reduced_word, sort_and_minimal_perm
from kohnert.polynomials import (
    IntPolynomial,
    apply_word,
    demazure_character,
    divided_difference,
    pi_op,
    schubert_polynomial,
)
from kohnert.tableaux import (demazure_set_op, demazure_subset, enumerate_sskt,
                              highest_weight_tableau, psi, sskt_raise)
from kohnert.verify import run_suite

from golden import COMPONENT_LARGE, COMPONENT_SMALL, D5, LETTER, MEMBERS
from oracle import reduced_word_last


def _finish(num, started, bound, detail):
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"criterion {num} took {elapsed:.1f}s, budget {bound}s"
    print(f"criterion {num} PASS: {detail} ({elapsed:.1f}s)")


def test_criterion_01_closure_polynomials_are_demazure_characters():
    started = time.monotonic()
    result = run_suite("kohnert-vs-pi")
    assert result.ok, result.summary()
    assert result.checked == 330
    _finish(1, started, 60, "closure polynomial equals the Demazure character "
            "for all 330 compositions with <= 4 parts and size <= 6")


def test_criterion_02_rothe_closures_give_schubert_polynomials():
    started = time.monotonic()
    for n in (4, 5):
        result = run_suite("schubert", n=n)
        assert result.ok, result.summary()
        assert result.checked == (24 if n == 4 else 120)
    _finish(2, started, 120, "Rothe closure polynomial equals the Schubert "
            "polynomial across S_4 and S_5")


def test_criterion_03_worked_example_golden_values():
    started = time.monotonic()
    kset = generate_kd(D5)
    assert set(kset.members) == set(MEMBERS.values())
    assert len(kset.members) == 19
    expected = demazure_character((0, 3, 2), 4) + demazure_character((0, 3, 1, 1), 4)
    assert kohnert_polynomial(D5) == expected
    graph = crystal_graph(kset)
    assert [len(c) for c in graph.components] == [9, 10]
    assert {LETTER[t] for t in graph.components[0]} == COMPONENT_SMALL
    assert {LETTER[t] for t in graph.components[1]} == COMPONENT_LARGE
    assert component_demazure_data(graph.components[0], D5) == \
        ((3, 2, 0), (3, 1, 2), (0, 3, 2))
    assert component_demazure_data(graph.components[1], D5) == \
        ((3, 1, 1, 0), (4, 1, 2, 3), (0, 3, 1, 1))
    _finish(3, started, 30, "19 members, polynomial, and component data of the "
            "five-cell example all match the frozen values")


def test_criterion_04_eight_row_rothe_key_expansion():
    started = time.monotonic()
    w = (1, 3, 6, 2, 5, 8, 4, 7)
    expansion = demazure_expansion(rothe_diagram(w))
    assert [a[:6] for a in expansion] == [
        (0, 1, 3, 0, 1, 2),
        (0, 1, 4, 0, 1, 1),
        (0, 2, 3, 0, 0, 2),
        (0, 2, 4, 0, 0, 1),
        (0, 3, 3, 0, 0, 1),
    ]
    assert all(a[6:] == (0,) * len(a[6:]) for a in expansion)
    _finish(4, started, 300, "the eight-row Rothe example expands into "
            "exactly the five expected key terms")


def test_criterion_05_raising_stays_inside_closures():
    started = time.monotonic()
    result = run_suite("closure")
    assert result.ok, result.summary()
    assert result.checked == 2749
    _finish(5, started, 600, "raising never leaves the closure for any "
            "southwest diagram in a 4x4 box with <= 6 cells")


def test_criterion_06_raising_commutes_with_rectification():
    started = time.monotonic()
    result = run_suite("commute")
    assert result.ok, result.summary()
    assert result.checked == 1000
    _finish(6, started, 60, "raising commutes with rectification steps on "
            "1000 random 5x5 diagrams, all row and column indices")


def test_criterion_07_labeling_membership_matches_search():
    started = time.monotonic()
    result = run_suite("membership")
    assert result.ok, result.summary()
    _finish(7, started, 600, f"labeling membership agrees with search on "
            f"{result.checked} candidate pairs with zero disagreements")


def test_criterion_08_components_match_demazure_crystals():
    started = time.monotonic()
    result = run_suite("components")
    assert result.ok, result.summary()
    _finish(8, started, 600, f"all {result.checked} components in the 3x3 "
            "family are isomorphic to their Demazure crystals")


def test_criterion_09_yamanouchi_members_index_the_expansion():
    started = time.monotonic()
    result = run_suite("yamanouchi")
    assert result.ok, result.summary()
    _finish(9, started, 600, f"one Yamanouchi member per component and key "
            f"sums reproduce the polynomial, {result.checked} diagrams")


def test_criterion_10_quasi_yamanouchi_members_give_slide_expansions():
    started = time.monotonic()
    result = run_suite("slide")
    assert result.ok, result.summary()
    _finish(10, started, 600, f"slide sums reproduce the polynomial and "
            f"Yamanouchi members are quasi-Yamanouchi, {result.checked} diagrams")


def test_criterion_11_vexillary_diagrams():
    started = time.monotonic()
    result = run_suite("vexillary")
    assert result.ok, result.summary()
    _finish(11, started, 600, "single-term expansions coincide with row "
            "chains, and 2143-avoiding Schubert polynomials are key polynomials")


def test_criterion_12_key_tableaux_biject_with_closures():
    started = time.monotonic()
    checked = 0
    for a in compositions_up_to(5, 4):
        n = len(a)
        tabs = enumerate_sskt(a)
        members = generate_kd(composition_diagram(a)).member_set
        images = {psi(t) for t in tabs}
        assert len(images) == len(tabs)
        assert images == members, a
        for t in tabs:
            assert weight(psi(t), n) == t.weight(n), a
            for i in range(1, n):
                raised_tab = sskt_raise(t, i)
                raised_dia = raising(psi(t), i)
                if raised_tab is None:
                    assert raised_dia is None, (a, t, i)
                else:
                    assert psi(raised_tab) == raised_dia, (a, t, i)
        checked += 1
    _finish(12, started, 120, f"the key tableau map is a weight-preserving, "
            f"operator-intertwining bijection for all {checked} shapes")


def _random_poly(rng, n):
    terms = {}
    for _ in range(5):
        exps = tuple(rng.randint(0, 3) for _ in range(n))
        terms[exps] = terms.get(exps, 0) + rng.randint(-3, 3)
    return IntPolynomial(n, terms)


def test_criterion_13_operator_algebra():
    started = time.monotonic()
    rng = random.Random(2023)
    for _ in range(40):
        f = _random_poly(rng, 4)
        for i in (1, 2, 3):
            assert not divided_difference(divided_difference(f, i), i).terms
            once = pi_op(f, i)
            assert pi_op(once, i) == once
        for i in (1, 2):
            assert apply_word(f, (i, i + 1, i)) == apply_word(f, (i + 1, i, i + 1))
            assert apply_word(f, (i, i + 1, i), pi_op) == \
                apply_word(f, (i + 1, i, i + 1), pi_op)
        assert apply_word(f, (1, 3)) == apply_word(f, (3, 1))
        assert apply_word(f, (1, 3), pi_op) == apply_word(f, (3, 1), pi_op)

    def chain(s, *word):
        for i in word:
            s = demazure_set_op(s, i)
        return s

    full = demazure_subset((2, 1, 1, 0), longest(4), 4).element_set
    for _ in range(10):
        sample = frozenset(rng.sample(sorted(full), 5))
        for i in (1, 2, 3):
            once = demazure_set_op(sample, i)
            assert sample <= once
            assert demazure_set_op(once, i) == once

        for i in (1, 2):
            assert chain(sample, i, i + 1, i) == chain(sample, i + 1, i, i + 1)
        assert chain(sample, 1, 3) == chain(sample, 3, 1)

    staircase = IntPolynomial.monomial((3, 2, 1, 0))
    for w in all_permutations(4):
        word_a = reduced_word(compose(longest(4), w))
        word_b = reduced_word_last(compose(longest(4), w))
        assert apply_word(staircase, word_a) == apply_word(staircase, word_b) \
            == schubert_polynomial(w)
        assert demazure_subset((3, 2, 1, 0), w, 4).element_set == \
            chain(frozenset([highest_weight_tableau((3, 2, 1, 0))]), *reduced_word_last(w))
    for a in ((0, 3, 2), (1, 0, 2, 1), (0, 0, 4), (2, 1, 0, 3)):
        lam, w = sort_and_minimal_perm(a)
        top = IntPolynomial.monomial(lam)
        assert apply_word(top, reduced_word(w), pi_op) == \
            apply_word(top, reduced_word_last(w), pi_op) == demazure_character(a)
    _finish(13, started, 60, "divided difference and Demazure operators "
            "satisfy their defining relations; all constructions are "
            "reduced-word independent")


if __name__ == "__main__":
    import pytest
    pytest.main(["-v", __file__])
