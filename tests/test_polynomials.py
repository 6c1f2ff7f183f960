"""Tests for sparse polynomials, divided differences, and the named families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import polynomials
from kohnert.compositions import compositions_up_to
from kohnert.moves import ResourceBoundError
from kohnert.perms import (
    all_permutations,
    compose,
    contains_2143,
    lehmer_code,
    longest,
    reduced_word,
    sort_and_minimal_perm,
)
from kohnert.polynomials import (
    ExpansionError,
    IntPolynomial,
    apply_word,
    basis_sum,
    demazure_character,
    divided_difference,
    expand_in_basis,
    fundamental_slide,
    pi_op,
    schubert_polynomial,
)

from oracle import (length, monomial_generating, oracle_expand_in_basis,
                    oracle_fundamental_slide, oracle_pi_op, poly_mul, poly_scale,
                    poly_sub, reduced_word_last, swap_vars, variable)


@st.composite
def polys(draw, n=3):
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(0, 3),) * n),
        st.integers(-3, 3),
        max_size=4,
    ))
    return IntPolynomial(n, terms)


def test_constructor_cleans_and_validates():
    f = IntPolynomial(2, {(1, 0): 2, (0, 1): 0})
    assert f.terms == {(1, 0): 2}
    with pytest.raises(ValueError):
        IntPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        IntPolynomial(2, {(-1, 0): 1})
    assert not IntPolynomial.zero(3).terms
    assert IntPolynomial.monomial((0, 0, 0)).eval_ones() == 1
    assert variable(2, 3) == IntPolynomial(3, {(0, 1, 0): 1})


def test_constructor_names_the_bad_exponent_tuple():
    with pytest.raises(ValueError, match=r"bad exponent tuple \(0, -1\) for n=2"):
        IntPolynomial(2, {(1, 0): 1, (0, -1): 0})
    with pytest.raises(ValueError, match=r"bad exponent tuple \(1, 0, 0\) for n=2"):
        IntPolynomial(2, {(1, 0): 1, (1, 0, 0): 1})
    with pytest.raises(ValueError, match=r"bad exponent tuple \(1,\) for n=0"):
        IntPolynomial(0, {(): 1, (1,): 1})
    assert IntPolynomial(0, {(): 3}).terms == {(): 3}
    assert not IntPolynomial(0, {(): 0}).terms
    assert IntPolynomial.monomial(()).eval_ones() == 1


@given(polys(), polys(), polys())
def test_ring_laws(f, g, h):
    zero = IntPolynomial.zero(3)
    one = IntPolynomial.monomial((0, 0, 0))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert poly_mul(f, g) == poly_mul(g, f)
    assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))
    assert poly_mul(f, g + h) == poly_mul(f, g) + poly_mul(f, h)
    assert poly_sub(f, f) == zero
    assert poly_mul(f, one) == f
    assert poly_scale(f, 2) == f + f
    assert (f + g).eval_ones() == f.eval_ones() + g.eval_ones()
    assert poly_mul(f, g).eval_ones() == f.eval_ones() * g.eval_ones()


@given(polys(), st.integers(1, 2))
def test_swap_vars_is_an_involution(f, i):
    assert swap_vars(swap_vars(f, i), i) == f


def test_swap_vars_range_check():
    with pytest.raises(ValueError):
        swap_vars(IntPolynomial.monomial((0, 0, 0)), 3)


def test_pad_to_and_matches():
    f = demazure_character((0, 2))
    assert f.pad_to(4).n == 4
    assert f.pad_to(4) != f
    assert f.pad_to(4).matches(f)
    assert f.matches(demazure_character((0, 2, 0, 0)))
    with pytest.raises(ValueError):
        f.pad_to(1)


def test_json_round_trip_and_exact_format():
    f = demazure_character((0, 2))
    assert f.to_json() == (
        '{"n": 2, "terms": [{"exps": [2, 0], "coef": 1}, '
        '{"exps": [1, 1], "coef": 1}, {"exps": [0, 2], "coef": 1}]}'
    )
    assert IntPolynomial.from_json(f.to_json()) == f


@given(polys())
def test_json_round_trips(f):
    assert IntPolynomial.from_json(f.to_json()) == f


@given(polys(), st.integers(1, 2))
def test_divided_difference_definition(f, i):
    # d_i(f) * (x_i - x_{i+1}) recovers f - s_i(f)
    diff = poly_mul(divided_difference(f, i), poly_sub(variable(i, 3), variable(i + 1, 3)))
    assert diff == poly_sub(f, swap_vars(f, i))


@given(polys(), st.integers(1, 2))
def test_divided_difference_squares_to_zero(f, i):
    assert not divided_difference(divided_difference(f, i), i).terms


@given(polys())
def test_divided_difference_braid(f):
    def d(g, *word):
        return apply_word(g, word)
    assert d(f, 1, 2, 1) == d(f, 2, 1, 2)


@given(polys(n=4))
def test_divided_difference_far_commutation(f):
    a = divided_difference(divided_difference(f, 1), 3)
    b = divided_difference(divided_difference(f, 3), 1)
    assert a == b


@given(polys(n=4), st.integers(1, 3))
def test_pi_op_matches_the_divided_difference_of_the_product(f, i):
    assert pi_op(f, i) == oracle_pi_op(f, i)


def test_pi_op_keeps_the_range_check_and_the_budget_message():
    f = IntPolynomial.monomial((3, 0, 0))
    for i in (0, 3):
        with pytest.raises(ValueError, match=rf"need 1 <= i < n, got i={i}, n=3"):
            pi_op(f, i)
    assert len(pi_op(f, 1, 4).terms) == 4
    with pytest.raises(ResourceBoundError, match=r"^divided difference at i=1 exceeds 3 "
                       r"monomials \(KOHNERT_MAX_DIAGRAMS\)$"):
        pi_op(f, 1, 3)


@given(polys(), st.integers(1, 2))
def test_pi_op_is_idempotent(f, i):
    once = pi_op(f, i)
    assert pi_op(once, i) == once


@given(polys(), st.integers(1, 2))
def test_pi_op_fixes_symmetric_polynomials(f, i):
    g = f + swap_vars(f, i)
    assert swap_vars(g, i) == g
    assert pi_op(g, i) == g


@given(polys())
def test_pi_op_braid(f):
    def p(g, *word):
        return apply_word(g, word, pi_op)
    assert p(f, 1, 2, 1) == p(f, 2, 1, 2)


@given(polys(n=4))
def test_pi_op_far_commutation(f):
    assert pi_op(pi_op(f, 1), 3) == pi_op(pi_op(f, 3), 1)


def test_demazure_character_examples():
    assert demazure_character((2, 0)) == IntPolynomial.monomial((2, 0))
    assert demazure_character((1, 1)) == IntPolynomial.monomial((1, 1))
    assert demazure_character((0, 2)) == IntPolynomial(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    exps = [(3, 2, 0), (3, 1, 1), (2, 3, 0), (3, 0, 2), (2, 2, 1),
            (2, 1, 2), (1, 3, 1), (1, 2, 2), (0, 3, 2)]
    assert demazure_character((0, 3, 2)) == IntPolynomial(3, {e: 1 for e in exps})


@given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_decreasing_compositions_give_monomials(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert demazure_character(lam) == IntPolynomial.monomial(lam)


def test_demazure_character_word_independence():
    for a in ((0, 3, 2), (1, 0, 2), (0, 1, 1, 2), (2, 0, 0, 1)):
        lam, w = sort_and_minimal_perm(a)
        f = IntPolynomial.monomial(lam)
        first = apply_word(f, reduced_word(w), pi_op)
        last = apply_word(f, reduced_word_last(w), pi_op)
        assert first == last == demazure_character(a)


def test_schubert_examples():
    assert schubert_polynomial((1, 2, 3)) == IntPolynomial.monomial((0, 0, 0))
    table = {
        (1, 3, 2): {(1, 0, 0): 1, (0, 1, 0): 1},
        (2, 1, 3): {(1, 0, 0): 1},
        (2, 3, 1): {(1, 1, 0): 1},
        (3, 1, 2): {(2, 0, 0): 1},
        (3, 2, 1): {(2, 1, 0): 1},
    }
    for w, terms in table.items():
        assert schubert_polynomial(w) == IntPolynomial(3, terms)
    assert schubert_polynomial((2, 3, 4, 1)) == IntPolynomial(4, {(1, 1, 1, 0): 1})
    assert schubert_polynomial(longest(4)) == IntPolynomial.monomial((3, 2, 1, 0))


def test_schubert_degree_and_stability():
    for w in all_permutations(4):
        f = schubert_polynomial(w)
        assert {sum(e) for e in f.terms} == ({length(w)} if f.terms else set())
        embedded = w + (5,)
        assert schubert_polynomial(embedded).matches(f)


def test_schubert_word_independence():
    for w in all_permutations(4):
        word = reduced_word_last(compose(longest(4), w))
        staircase = IntPolynomial.monomial((3, 2, 1, 0))
        assert apply_word(staircase, word) == schubert_polynomial(w)


def test_schubert_matches_key_when_2143_avoiding():
    for w in all_permutations(3):
        assert schubert_polynomial(w).matches(demazure_character(lehmer_code(w)))
    for w in all_permutations(4):
        if not contains_2143(w):
            assert schubert_polynomial(w).matches(demazure_character(lehmer_code(w)))


def test_fundamental_slide_examples():
    assert fundamental_slide((2, 0)) == IntPolynomial.monomial((2, 0))
    assert fundamental_slide((1, 1)) == IntPolynomial.monomial((1, 1))
    assert fundamental_slide((0, 2)) == demazure_character((0, 2))
    assert fundamental_slide((1, 1), 3) == IntPolynomial(3, {(1, 1, 0): 1})
    assert fundamental_slide((0, 1, 1)) == IntPolynomial(
        3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    with pytest.raises(ValueError):
        fundamental_slide((1, 1, 1), 2)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_fundamental_slide_support(parts):
    a = tuple(parts)
    f = fundamental_slide(a)
    assert f.terms[a] == 1
    for e in f.terms:
        assert f.terms[e] == 1
        assert sum(e) == sum(a)
        assert all(sum(e[:k]) >= sum(a[:k]) for k in range(len(a)))


def test_fundamental_slide_matches_the_filter_oracle():
    for a in compositions_up_to(7, 6):
        for n in (len(a), len(a) + 1):
            assert fundamental_slide(a, n) == oracle_fundamental_slide(a, n), (a, n)


def test_monomial_generating():
    f = monomial_generating([(1, 0), (1, 0), (0, 1)], 3)
    assert f == IntPolynomial(3, {(1, 0, 0): 2, (0, 1, 0): 1})
    assert not monomial_generating([], 2).terms


def test_expand_in_basis_round_trips():
    f = demazure_character((0, 3, 2), 4) + demazure_character((0, 3, 1, 1), 4)
    assert expand_in_basis(f, "key") == {(0, 3, 2, 0): 1, (0, 3, 1, 1): 1}
    slide = expand_in_basis(f, "slide")
    assert slide == {
        (0, 3, 1, 1): 1, (0, 3, 2, 0): 1, (1, 3, 0, 1): 1, (1, 3, 1, 0): 1,
        (2, 2, 0, 1): 1, (2, 2, 1, 0): 1, (2, 3, 0, 0): 1,
    }
    rebuilt = IntPolynomial.zero(4)
    for a, coef in slide.items():
        rebuilt = rebuilt + poly_scale(fundamental_slide(a, 4), coef)
    assert rebuilt == f
    assert basis_sum(slide, "slide", 4) == basis_sum([(0, 3, 2), (0, 3, 1, 1)], "key", 4) == f


@st.composite
def key_sums(draw, n=4):
    """Nonnegative sums of key polynomials, sometimes with one monomial
    added, so that some sums fail to expand."""
    f = IntPolynomial.zero(n)
    for a in draw(st.lists(st.tuples(*(st.integers(0, 3),) * n), max_size=4)):
        f = f + poly_scale(demazure_character(a, n), draw(st.integers(1, 2)))
    extra = draw(st.one_of(st.none(), st.tuples(*(st.integers(0, 3),) * n)))
    if extra is not None:
        f = f + poly_scale(IntPolynomial.monomial(extra), draw(st.integers(-1, 1)))
    return f


def _expansion_or_error(expand, f, basis):
    try:
        return expand(f, basis)
    except ExpansionError as exc:
        return str(exc)


@settings(deadline=None, max_examples=60)
@given(key_sums(), st.sampled_from(["key", "slide"]))
def test_heap_peel_matches_the_scan_oracle(f, basis):
    assert _expansion_or_error(expand_in_basis, f, basis) == \
        _expansion_or_error(oracle_expand_in_basis, f, basis)


@st.composite
def composition_multisets(draw, n=4):
    """Up to six draws from up to three compositions of at most n parts,
    so that compositions repeat."""
    distinct = draw(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=n)
                             .map(tuple), max_size=3))
    return draw(st.lists(st.sampled_from(distinct), max_size=6)) if distinct else []


@settings(deadline=None, max_examples=60)
@given(composition_multisets(), st.sampled_from(["key", "slide"]))
def test_basis_sum_matches_the_left_fold(comps, basis):
    gen = demazure_character if basis == "key" else fundamental_slide
    fold = sum((gen(a, 4) for a in comps), start=IntPolynomial.zero(4))
    assert basis_sum(comps, basis, 4) == fold


def test_expand_in_basis_errors():
    with pytest.raises(ValueError):
        expand_in_basis(IntPolynomial.monomial((0, 0)), "monomial")
    with pytest.raises(ValueError):
        basis_sum([(0, 1)], "monomial", 2)
    with pytest.raises(ExpansionError):
        expand_in_basis(variable(2, 2), "key")


def test_expand_in_basis_refuses_a_basis_that_keeps_its_leading_monomial(monkeypatch):
    def slide_without_b_equal_a(a, n=None):
        f = fundamental_slide(a, n)
        return IntPolynomial(f.n, {b: c for b, c in f.terms.items() if b != a})

    monkeypatch.setitem(polynomials._BASES, "slide", slide_without_b_equal_a)
    with pytest.raises(ExpansionError, match="leading monomial"):
        expand_in_basis(demazure_character((0, 2, 1)), "slide")


if __name__ == "__main__":
    pytest.main([__file__])
