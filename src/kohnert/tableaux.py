"""Semistandard Young tableaux, semistandard key tableaux, their
crystal operators, and Demazure crystals inside Young tableau crystals.

Tableaux store their rows bottom up, so ``rows[0]`` is row 1.  Young
tableaux have partition shape with rows weakly increasing left to right
and columns strictly increasing upward.  Key tableaux have composition
shape with rows weakly decreasing, distinct entries in each column, and
every entry in row r at most r.  A column holds each entry at most once
in both kinds, so the crystal operators scan two column masks, one bit
per column, with the bracket rule ``kohnert.crystal._lone``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .compositions import Composition, check_composition, strip_trailing_zeros
from .crystal import _lone
from .diagrams import Diagram
from .perms import Permutation, reduced_word


@dataclass(frozen=True)
class Tableau:
    """A filling whose ``rows[r - 1]`` lists row r left to right."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(*rows) -> "Tableau":
        return Tableau(tuple(tuple(row) for row in rows))

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    def entry(self, c: int, r: int) -> int:
        return self.rows[r - 1][c - 1]

    def cells(self):
        for r, row in enumerate(self.rows, start=1):
            for c, value in enumerate(row, start=1):
                yield c, r, value

    def replace(self, c: int, r: int, value: int) -> "Tableau":
        rows = [list(row) for row in self.rows]
        rows[r - 1][c - 1] = value
        return Tableau(tuple(tuple(row) for row in rows))

    def weight(self, n: int | None = None) -> Composition:
        values = [v for _, _, v in self.cells()]
        if n is None:
            n = max(values, default=0)
        if any(v > n for v in values):
            raise ValueError(f"entry exceeds n={n}")
        counts = [0] * n
        for v in values:
            counts[v - 1] += 1
        return tuple(counts)

    def __len__(self) -> int:
        return sum(len(row) for row in self.rows)

    def __lt__(self, other: "Tableau"):
        return self.rows < other.rows


def is_sskt(t: Tableau) -> bool:
    """Key tableau validity, including distinct column entries."""
    for c, r, v in t.cells():
        if v < 1 or v > r:
            return False
        if c > 1 and t.entry(c - 1, r) < v:
            return False
    for c in range(1, max(t.shape, default=0) + 1):
        col = [(r, t.entry(c, r)) for r in range(1, len(t.rows) + 1)
               if len(t.rows[r - 1]) >= c]
        values = [v for _, v in col]
        if len(set(values)) != len(values):
            return False
        for r_up, i in col:
            for r_dn, k in col:
                if r_up > r_dn and i < k:
                    # the smaller entry on top forces a larger entry
                    # somewhere right of the lower cell in its row
                    if not any(j > i for j in t.rows[r_dn - 1][c:]):
                        return False
    return True


def highest_weight_tableau(lam: Composition) -> Tableau:
    """Row r of the Young diagram of lam filled with entry r."""
    lam = strip_trailing_zeros(tuple(lam))
    if list(lam) != sorted(lam, reverse=True):
        raise ValueError("shape must be a partition")
    return Tableau(tuple(tuple([r] * lam[r - 1])
                         for r in range(1, len(lam) + 1)))


def _last_lone(t: Tableau, opener: int, closer: int,
               mirrored: bool = False) -> tuple[int, int] | None:
    """The cell of the last ``closer`` left unpaired by the bracket rule,
    or None, scanning columns left to right, or right to left when
    ``mirrored``: a scan's free openers are the lone closers of the
    mirrored scan with the roles swapped."""
    width = max(t.shape, default=0)
    openers = closers = 0
    cells = {}
    for c, r, v in t.cells():
        bit = 1 << (c if mirrored else width - c)
        if v == opener:
            openers |= bit
        elif v == closer:
            closers |= bit
            cells[bit] = (c, r)
    lone = _lone(openers, closers)
    return cells[lone & -lone] if lone else None


def ssyt_lower(t: Tableau, i: int) -> Tableau | None:
    """Change the rightmost unpaired i to i+1, or None if there is none.

    After same-column pairs, an i+1 pairs with a free i to its right.
    """
    if i < 1:
        raise ValueError("operator index must be >= 1")
    cell = _last_lone(t, i + 1, i)
    return None if cell is None else t.replace(*cell, i + 1)


def ssyt_raise(t: Tableau, i: int) -> Tableau | None:
    """Change the leftmost unpaired i+1 to i; inverse of ssyt_lower."""
    if i < 1:
        raise ValueError("operator index must be >= 1")
    cell = _last_lone(t, i, i + 1, mirrored=True)
    return None if cell is None else t.replace(*cell, i)


@dataclass(frozen=True)
class TableauCrystal:
    """A set of tableaux with its highest weight element; its lowering is
    ``ssyt_lower`` wherever the image stays in the set."""

    elements: tuple[Tableau, ...]
    highest: Tableau

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)


def demazure_set_op(elements, i: int) -> frozenset:
    """Close a set of tableaux downward along its i-strings."""
    grown = set(elements)
    for t in elements:
        u = ssyt_lower(t, i)
        while u is not None:
            grown.add(u)
            u = ssyt_lower(u, i)
    return frozenset(grown)


def demazure_subset(lam: Composition, w: Permutation, n: int) -> TableauCrystal:
    """The Demazure crystal B_w(lam) inside B(lam).

    Starting from the highest weight tableau, each letter of a reduced
    word of w in turn closes the set downward along its i-strings.
    """
    top = highest_weight_tableau(lam)
    if len(top.rows) > n:
        raise ValueError("shape has more rows than allowed entries")
    if len(w) > n:
        raise ValueError("permutation is too long for this crystal")
    elements: frozenset[Tableau] = frozenset([top])
    for i in reduced_word(w):
        elements = demazure_set_op(elements, i)
    return TableauCrystal(elements=tuple(sorted(elements)), highest=top)


def enumerate_sskt(a: Composition) -> list[Tableau]:
    """All semistandard key tableaux of shape a, by filtered search."""
    check_composition(a)
    ranges = [range(1, r + 1) for r, k in enumerate(a, start=1)
              for _ in range(k)]
    results = []
    for values in product(*ranges):
        rows = []
        pos = 0
        for k in a:
            rows.append(tuple(values[pos:pos + k]))
            pos += k
        t = Tableau(tuple(rows))
        if is_sskt(t):
            results.append(t)
    return sorted(results)


def sskt_raise(t: Tableau, i: int) -> Tableau | None:
    """Raise a key tableau at index i.

    After same-column pairs, an i pairs with a free i+1 to its right.
    The rightmost unpaired i+1 becomes i; then every consecutive column
    to its left holding an i+1 in the same row with an i above gets
    those two entries swapped.
    """
    if i < 1:
        raise ValueError("operator index must be >= 1")
    cell = _last_lone(t, i, i + 1)
    if cell is None:
        return None
    c0, r0 = cell
    out = t.replace(c0, r0, i)
    for c in range(c0 - 1, 0, -1):
        if len(out.rows[r0 - 1]) < c or out.entry(c, r0) != i + 1:
            break
        above = [r for r in range(r0 + 1, len(out.rows) + 1)
                 if len(out.rows[r - 1]) >= c and out.entry(c, r) == i]
        if not above:
            break
        out = out.replace(c, r0, i).replace(c, above[0], i + 1)
    return out


def psi(t: Tableau) -> Diagram:
    """Turn a key tableau into a diagram: entry r in column c -> cell (c,r).

    Weight preserving, and intertwines the key tableau raising operator
    with the diagram raising operator.
    """
    if not is_sskt(t):
        raise ValueError("not a semistandard key tableau")
    return Diagram(frozenset((c, v) for c, _, v in t.cells()))
