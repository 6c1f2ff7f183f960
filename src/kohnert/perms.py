"""Permutations in one-line notation, as tuples of 1-based values.

Composition is standard: ``compose(u, v)`` maps i to u[v[i]].  Reduced
words are returned in operator application order: the first letter is
the first operator applied when building up a polynomial or crystal.
"""

from __future__ import annotations

from itertools import permutations as _permutations

Permutation = tuple[int, ...]


def check_permutation(w) -> Permutation:
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def longest(n: int) -> Permutation:
    """The longest permutation n, n-1, ..., 1."""
    return tuple(range(n, 0, -1))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """(u o v)(i) = u(v(i)); both must have the same length."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return tuple(u[x - 1] for x in v)


def _left_descents(w: Permutation) -> list[int]:
    # i is a left descent when value i+1 appears before value i
    pos = {v: i for i, v in enumerate(w)}
    return [i for i in range(1, len(w)) if pos[i + 1] < pos[i]]


def _swap_values(w: Permutation, i: int) -> Permutation:
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word for w, in operator application order: the word
    (i_1, ..., i_l) with w = s_{i_1} o ... o s_{i_l} as function
    composition, smallest left descent peeled first."""
    w = check_permutation(w)
    word = []
    while True:
        descents = _left_descents(w)
        if not descents:
            return tuple(word)
        i = descents[0]
        word.append(i)
        w = _swap_values(w, i)


def lehmer_code(w: Permutation) -> tuple[int, ...]:
    """Entry i counts j > i with w(i) > w(j)."""
    w = check_permutation(w)
    return tuple(sum(1 for j in range(i + 1, len(w)) if w[i] > w[j])
                 for i in range(len(w)))


def sort_and_minimal_perm(a) -> tuple[tuple[int, ...], Permutation]:
    """Sort a weak composition and the shortest permutation undoing the sort.

    Returns (lam, w) where lam is a weakly decreasing rearrangement of a
    and w is the unique minimal-length permutation with a_i = lam_{w(i)}
    for every i.
    """
    a = tuple(a)
    lam = tuple(sorted(a, reverse=True))
    # positions of each value in lam, handed out left to right; scanning a
    # left to right keeps equal values in order, which minimises length
    available: dict[int, list[int]] = {}
    for pos in range(len(lam) - 1, -1, -1):
        available.setdefault(lam[pos], []).append(pos + 1)
    w = tuple(available[x].pop() for x in a)
    return lam, w


def all_permutations(n: int):
    """All of S_n in lexicographic order."""
    for w in _permutations(range(1, n + 1)):
        yield w


def contains_2143(w: Permutation) -> bool:
    """True if some a<b<c<d has w(b) < w(a) < w(d) < w(c)."""
    n = len(w)
    for b in range(1, n):
        for a in range(b):
            if w[a] <= w[b]:
                continue
            for c in range(b + 1, n):
                if w[c] <= w[a]:
                    continue
                for d in range(c + 1, n):
                    if w[a] < w[d] < w[c]:
                        return True
    return False
