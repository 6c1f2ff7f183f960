"""Sparse integer polynomials and the operators built on them.

A polynomial keeps a fixed number of variables n and a dict mapping
exponent tuples of length n to nonzero integer coefficients.

The operators and the Schubert, key and slide builds take an optional
``max_terms``: a build whose result, or a divided difference on the way
to it, passes that many monomials stops with ``ResourceBoundError``
(exit 3 on the command line, which passes the closure budget
``KOHNERT_MAX_DIAGRAMS``).  The default, None, bounds nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import accumulate

from .compositions import check_composition, flatten, pad
from .perms import (Permutation, check_permutation, compose, longest,
                    reduced_word, sort_and_minimal_perm)


class ExpansionError(ValueError):
    pass


def _over_budget(what: str, limit: int) -> Exception:
    from .moves import ResourceBoundError        # moves imports this module
    return ResourceBoundError(f"{what} exceeds {limit} monomials (KOHNERT_MAX_DIAGRAMS)")


class IntPolynomial:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], int]):
        # the lengths and the least exponent come from scans that run in C
        if terms and (set(map(len, terms)) != {n} or n and min(map(min, terms)) < 0):
            exps = next(e for e in terms if len(e) != n or min(e, default=0) < 0)
            raise ValueError(f"bad exponent tuple {exps} for n={n}")
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def zero(n: int) -> "IntPolynomial":
        return IntPolynomial(n, {})

    @staticmethod
    def monomial(exps) -> "IntPolynomial":
        exps = tuple(exps)
        return IntPolynomial(len(exps), {exps: 1})

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntPolynomial)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coef
        return IntPolynomial(self.n, terms)

    def pad_to(self, n: int) -> "IntPolynomial":
        if n == self.n:
            return self
        return IntPolynomial(n, {pad(e, n): c for e, c in self.terms.items()})

    def matches(self, other: "IntPolynomial") -> bool:
        """Equality after padding both to a common number of variables."""
        n = max(self.n, other.n)
        return self.pad_to(n).terms == other.pad_to(n).terms

    def eval_ones(self) -> int:
        return sum(self.terms.values())

    def __repr__(self) -> str:
        if not self.terms:
            return f"IntPolynomial({self.n}, 0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: t[::-1], reverse=True)[:4]:
            bits.append(f"{self.terms[e]}*x^{e}")
        more = "+..." if len(self.terms) > 4 else ""
        return f"IntPolynomial({self.n}, {' + '.join(bits)}{more})"

    def to_json(self) -> str:
        order = sorted(self.terms, reverse=True)
        return json.dumps({"n": self.n,
                           "terms": [{"exps": list(e), "coef": self.terms[e]} for e in order]})

    @staticmethod
    def from_json(text: str) -> "IntPolynomial":
        data = json.loads(text)
        terms: dict[tuple[int, ...], int] = {}
        for item in data["terms"]:
            exps = tuple(item["exps"])
            terms[exps] = terms.get(exps, 0) + item["coef"]
        return IntPolynomial(data["n"], terms)


def divided_difference(f: IntPolynomial, i: int, max_terms: int | None = None) -> IntPolynomial:
    """(f - s_i f) / (x_i - x_{i+1}), computed exactly term by term."""
    return _difference(f, i, 0, max_terms)


def pi_op(f: IntPolynomial, i: int, max_terms: int | None = None) -> IntPolynomial:
    """Demazure operator: divided difference of x_i * f, term by term."""
    return _difference(f, i, 1, max_terms)


def _difference(f: IntPolynomial, i: int, m: int, max_terms: int | None) -> IntPolynomial:
    """The divided difference at i of x_i^m * f, in one pass over the
    terms of f: a term x^e goes in with a = e_i + m, b = e_{i+1}."""
    if not 1 <= i < f.n:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={f.n}")
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        a, b = e[i - 1] + m, e[i]
        if a == b:
            continue
        lo, hi, sign = (b, a, c) if a > b else (a, b, -c)
        # the term's own hi - lo monomials are distinct: too many alone
        if max_terms is not None and hi - lo > max_terms:
            raise _over_budget(f"divided difference at i={i}", max_terms)
        # (x^hi y^lo - x^lo y^hi)/(x - y) = sum of x^k y^(hi+lo-1-k)
        base = list(e)
        for k in range(lo, hi):
            base[i - 1], base[i] = k, hi + lo - 1 - k
            key = tuple(base)
            out[key] = out.get(key, 0) + sign
        if max_terms is not None and len(out) > max_terms:
            raise _over_budget(f"divided difference at i={i}", max_terms)
    return IntPolynomial(f.n, out)


def apply_word(f: IntPolynomial, word, op=divided_difference,
               max_terms: int | None = None) -> IntPolynomial:
    for i in word:
        f = op(f, i, max_terms)
    return f


def schubert_polynomial(w: Permutation, max_terms: int | None = None) -> IntPolynomial:
    """Divided differences applied to the staircase monomial.

    Applying a word (i_1, ..., i_l) first-to-last realises the operator
    indexed by the inverse, so the word here belongs to w0 o w, whose
    inverse is w^-1 o w0 as required.
    """
    w = check_permutation(w)
    n = len(w)
    staircase = IntPolynomial.monomial(tuple(range(n - 1, -1, -1)))
    return apply_word(staircase, reduced_word(compose(longest(n), w)), max_terms=max_terms)


def demazure_character(a, n: int | None = None, max_terms: int | None = None) -> IntPolynomial:
    """Demazure operators applied to the dominant monomial of sort(a)."""
    a = check_composition(a)
    if n is None:
        n = len(a)
    lam, w = sort_and_minimal_perm(a)
    f = IntPolynomial.monomial(lam)
    return apply_word(f, reduced_word(w), pi_op, max_terms).pad_to(n)


def fundamental_slide(a, n: int | None = None, max_terms: int | None = None) -> IntPolynomial:
    """Sum of x^b over b dominating a whose flattening refines flat(a).

    The terms are built directly: each nonzero part of a is split into
    consecutive positive pieces, placed left to right, and a branch is
    cut as soon as a prefix sum of b falls below that of a.  The search
    keeps its own stack, so its depth is not bounded by the recursion
    limit, and a branch ends with zeros once every part is placed.
    """
    a = check_composition(a)
    if n is None:
        n = len(a)
    a = pad(a, n)
    parts = flatten(a) + (0,)      # a 0 after the last part: nothing left to place
    last = len(parts) - 1
    floor = list(accumulate(a))
    terms: dict[tuple[int, ...], int] = {}
    # (prefix of b, part j, what is left of part j, sum of the prefix);
    # left > 0 until j == last.  Larger v go on first, so the terms come
    # out in increasing lexicographic order.
    stack = [((), 0, parts[0], 0)]
    push = stack.append
    while stack:
        prefix, j, left, total = stack.pop()
        i = len(prefix)
        if j == last:
            terms[prefix + (0,) * (n - i)] = 1
            if max_terms is not None and len(terms) > max_terms:
                raise _over_budget("slide polynomial", max_terms)
            continue
        short = floor[i] - total    # what b lacks of a's prefix sum: v makes it up
        stop = short - 1 if short > 0 else -1
        # each pending branch ends in a term of its own
        if max_terms is not None and len(stack) + left - stop > max_terms:
            raise _over_budget("slide polynomial", max_terms)
        for v in range(left, stop, -1):
            if v == left:
                push((prefix + (v,), j + 1, parts[j + 1], total + v))
            else:
                push((prefix + (v,), j, left - v, total + v))
    return IntPolynomial(n, terms)


_BASES = {
    "key": demazure_character,
    "slide": fundamental_slide,
}


def expand_in_basis(f: IntPolynomial, basis: str) -> dict[tuple[int, ...], int]:
    """Expand f as a nonnegative sum of key or slide polynomials.

    Works by repeatedly stripping the basis element indexed by the
    surviving monomial that is last in the dominance order (largest when
    exponent tuples are compared reversed).  A heap keyed on the negated
    reversed exponents yields that monomial: a monomial is pushed when a
    subtraction first creates it, and entries for monomials gone since
    are skipped.  Raises ExpansionError if a negative coefficient turns
    up, or if a basis element leaves its own leading monomial in place,
    which would pick that monomial forever.
    """
    if basis not in _BASES:
        raise ValueError(f"unknown basis {basis!r}")
    gen = _BASES[basis]
    rest = dict(f.terms)
    heap = [(tuple(-x for x in reversed(e)), e) for e in rest]
    heapify(heap)
    out: dict[tuple[int, ...], int] = {}
    while heap:
        a = heappop(heap)[1]
        coef = rest.get(a)
        if coef is None:
            continue
        if coef < 0:
            raise ExpansionError("not nonnegative in this basis")
        out[a] = coef
        for e, c in gen(a, f.n).terms.items():
            held = rest.get(e, 0)
            left = held - coef * c
            if left:
                rest[e] = left
                if not held:
                    heappush(heap, (tuple(-x for x in reversed(e)), e))
            else:
                del rest[e]
        if a in rest:
            raise ExpansionError(f"basis element {a} does not cancel "
                                 f"its own leading monomial")
    return out


def basis_sum(compositions, basis: str, n: int) -> IntPolynomial:
    """Sum of the key or slide polynomials in n variables indexed by a
    multiset of compositions: an iterable, or a map to multiplicities
    such as ``expand_in_basis`` returns.  The terms are added up in one
    dict, with one basis polynomial per distinct composition."""
    if basis not in _BASES:
        raise ValueError(f"unknown basis {basis!r}")
    gen = _BASES[basis]
    terms: dict[tuple[int, ...], int] = {}
    for a, count in Counter(compositions).items():
        for e, c in gen(a, n).terms.items():
            terms[e] = terms.get(e, 0) + count * c
    return IntPolynomial(n, terms)
