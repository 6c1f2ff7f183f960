"""Kohnert moves and the closure of a diagram under them.

The closure comes from one breadth-first search over packed states.  A
state is one integer that holds a row bitmask per column, column 1 in
the high field: with W = max_row + 1 and n = max_col, column c owns bits
(n - c) * W up to (n - c + 1) * W - 1, and bit r of that field is set
when (c, r) is a cell.  A move at row r takes the rightmost column whose
field has bit r, the highest clear bit below r in that field, and flips
the two bits.  The search's step, ``_step``, memoizes per column the
moves of each (movable rows, column mask) pair it meets, as a tuple of
shared (bits to flip, weight change) pairs; this pays where masks repeat
across states, as in columns of few rows, and a memo stops growing at
``_MEMO_ENTRIES``, so a tall column, whose masks rarely repeat, costs one
bounded table.  Each state carries its row weight, packed with one field
per row, row 1 lowest, each field a whole number of bytes (one while the
diagram has fewer than 256 cells).  A move adds its weight change: -1 in
row r and +1 in the row it drops to.  ``_closure`` counts the weights
once per BFS level, and only ``_polynomial`` decodes them: one
``int.to_bytes`` call gives a weight's exponents, already padded to n
rows.  Members and the key expansion read the states alone.  A
``KohnertSet`` keeps only the states, and makes ``Diagram`` objects when
``members`` is read; its printers render each state, and list the moves
by ``_step`` on each state alone.  The states are the one packed layout
of the package: ``kohnert.crystal`` raises and rectifies on them too.
With ``_spread``, bit 0 of every field, ``state >> r & spread`` is row r,
which ``grid`` prints and raising reads.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .diagrams import Diagram, _columns
from .polynomials import IntPolynomial

DEFAULT_MAX_DIAGRAMS = 10 ** 6


class ResourceBoundError(RuntimeError):
    """Raised when a closure, or the cell subsets of a verify box, would
    exceed the configured diagram budget.

    The message gives the member count reached and the BFS depth, the
    number of moves from the source to the member that broke the budget,
    or the box and its subset count.
    """


class MaxDiagramsError(ValueError):
    """Raised when KOHNERT_MAX_DIAGRAMS is set but is not a positive integer."""


def _max_diagrams(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("KOHNERT_MAX_DIAGRAMS")
    if not env:
        return DEFAULT_MAX_DIAGRAMS
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise MaxDiagramsError(
            f"KOHNERT_MAX_DIAGRAMS must be a positive integer, got {env!r}")
    return limit


@dataclass(frozen=True)
class KohnertSet:
    source: Diagram
    states: tuple[int, ...]               # packed members, sorted canonically

    @cached_property
    def members(self) -> tuple[Diagram, ...]:
        """The member ``Diagram``s, in the order of ``states``, built on first
        read column by column: each column keeps a memo from a field mask to
        that column's cells."""
        width, ncols = self.source.max_row + 1, self.source.max_col
        field = (1 << width) - 1
        columns = [(c, (ncols - c) * width, {}) for c in range(1, ncols + 1)]
        members = []
        for state in self.states:
            cells = []
            for c, shift, memo in columns:
                mask = state >> shift & field
                col = memo.get(mask)
                if col is None:
                    col = memo[mask] = tuple((c, r) for r in range(width) if mask >> r & 1)
                cells += col
            members.append(Diagram(frozenset(cells)))
        return tuple(members)

    @cached_property
    def member_set(self) -> frozenset[Diagram]:
        return frozenset(self.members)

    @cached_property
    def edges(self) -> frozenset[tuple[Diagram, Diagram, int]]:
        """Every move (from, to, row moved) between members, found on demand."""
        return frozenset((self.members[n], self.members[m], r) for n, m, r in _moves(self))

    @cached_property
    def _rows(self) -> tuple[int, dict[int, str]]:
        """``grid``'s layout: bit 0 of every column field, and a memo from a
        row slice (a state shifted down by the row, masked to those bits)
        to its text across every column."""
        return _spread(self.source.max_row + 1, self.source.max_col), {}

    def grid(self, n: int) -> str:
        """Member n as ``render_grid`` text, '(empty)' when it has no cells:
        its rows from the top occupied one down to row 1, each cut at the
        last occupied column."""
        state, width, ncols = self.states[n], self.source.max_row + 1, self.source.max_col
        if not state:
            return "(empty)"
        spread, text = self._rows
        last = ncols - ((state & -state).bit_length() - 1) // width
        lines = []
        for r in range(width - 1, 0, -1):
            row = state >> r & spread
            if row or lines:
                line = text.get(row)
                if line is None:
                    line = text[row] = "".join("O" if row >> k * width & 1 else "."
                                               for k in range(ncols - 1, -1, -1))
                lines.append(line[:last])
        return "\n".join(lines)


def _pack(columns: list[int], width: int) -> int:
    """The packed state whose fields, ``width`` bits each, are these column
    masks, the first column in the high field."""
    state = 0
    for col in columns:
        state = state << width | col
    return state


def _spread(width: int, ncols: int) -> int:
    """Bit 0 of each of the ``ncols`` fields, ``width`` bits each, of a state."""
    return sum(1 << k * width for k in range(ncols))


def _weight_bytes(diagram: Diagram) -> int:
    """Bytes per row field of a packed weight: a row holds at most
    ``len(diagram)`` cells."""
    return max(1, (len(diagram).bit_length() + 7) // 8)


# Entries per column memo of ``_step``.  A column of w rows has at most
# 3**w (movable rows, mask) pairs, so the memo is complete up to 7 rows and
# holds 2,930 in the busiest column of the S10 Rothe diagram of 824,880
# members; in a tall column, where masks rarely repeat, it stops growing.
_MEMO_ENTRIES = 4096


def _step(diagram: Diagram, limit: int):
    """The closure search's one step, ``expand``, in the layout of ``diagram``."""
    width = diagram.max_row + 1
    field = (1 << width) - 1
    wbits = 8 * _weight_bytes(diagram)
    unit = {1 << r: 1 << wbits * (r - 1) for r in range(1, width)}
    # rightmost column first: its shift, its (flip, weight change) pair per
    # move, and its memo of the pairs per (movable rows, mask)
    columns = [(k * width, {}, {}) for k in range(diagram.max_col)]

    def column_moves(rows, mask, shift, pairs):
        found = []
        while rows:
            src = rows & -rows
            rows ^= src
            free = ~mask & (src - 2)     # clear bits in rows 1 .. r - 1
            if free:
                move = src | 1 << (free.bit_length() - 1)
                pair = pairs.get(move)
                if pair is None:
                    pair = pairs[move] = (move << shift, unit[move ^ src] - unit[src])
                found.append(pair)
        return tuple(found)

    def expand(states, weights, seen, depth):
        """The states first reached, at this depth, by one move from
        ``states``, and their weights."""
        next_states, next_weights = [], []
        add, push, push_weight = seen.add, next_states.append, next_weights.append
        for state, weight in zip(states, weights):
            covered = 0                    # rows already met in a column to the right
            for shift, pairs, memo in columns:
                mask = state >> shift & field
                rows = mask & ~covered
                if not rows:
                    continue
                covered |= mask
                key = rows << width | mask
                found = memo.get(key)
                if found is None:
                    found = column_moves(rows, mask, shift, pairs)
                    if len(memo) < _MEMO_ENTRIES:
                        memo[key] = found
                for flip, change in found:
                    nxt = state ^ flip
                    if nxt in seen:
                        continue
                    if len(seen) >= limit:
                        raise ResourceBoundError(
                            f"closure exceeds {limit} diagrams (KOHNERT_MAX_DIAGRAMS): "
                            f"reached {len(seen) + 1} members at BFS depth {depth}")
                    add(nxt)
                    push(nxt)
                    push_weight(weight + change)
        return next_states, next_weights

    return expand


def _closure(diagram: Diagram, limit: int) -> tuple[set[int], Counter[int]]:
    """Packed states of the closure, and the member count of each packed
    row weight, which ``_polynomial`` decodes."""
    wbits = 8 * _weight_bytes(diagram)
    start = _pack(_columns(diagram), diagram.max_row + 1)
    expand = _step(diagram, limit)
    seen = {start}
    weights = [sum(1 << wbits * (r - 1) for _, r in diagram.cells)]
    states, counts = [start], Counter(weights)
    depth = 0
    while states:
        depth += 1
        states, weights = expand(states, weights, seen, depth)
        counts.update(weights)
    return seen, counts


def _polynomial(diagram: Diagram, counts: Counter[int], n: int) -> IntPolynomial:
    """The polynomial in n >= ``diagram.max_row`` variables of the packed
    weight counts ``_closure`` gives for ``diagram``: each weight's bytes,
    low row first, are its exponents, zero past the top row."""
    size = _weight_bytes(diagram)
    if size == 1:
        return IntPolynomial(n, {tuple(w.to_bytes(n, "little")): k for w, k in counts.items()})
    terms = {}
    for w, k in counts.items():
        raw = w.to_bytes(n * size, "little")
        terms[tuple(int.from_bytes(raw[i:i + size], "little")
                    for i in range(0, n * size, size))] = k
    return IntPolynomial(n, terms)


def _fields(state: int, width: int, ncols: int) -> list[int]:
    """Column masks of a packed state, column 1 first: the inverse of ``_pack``."""
    field = (1 << width) - 1
    return [state >> shift & field for shift in range((ncols - 1) * width, -1, -width)]


def _cells(state: int, width: int, ncols: int) -> tuple[tuple[int, int], ...]:
    """Cells of a packed state of ``ncols`` columns in sorted (col, row) order."""
    cells = []
    for c, mask in enumerate(_fields(state, width, ncols), start=1):
        while mask:
            bit = mask & -mask
            mask ^= bit
            cells.append((c, bit.bit_length() - 1))
    return tuple(cells)


def generate_kd(diagram: Diagram, max_diagrams: int | None = None) -> KohnertSet:
    """Breadth-first closure of a diagram under Kohnert moves.  Moves keep
    column sizes, so sorted cell tuples compare column 1 first, and in a
    column the one holding the lowest differing row is less: members sort
    descending on their states with each field's bits reversed."""
    return _kset(diagram, _closure(diagram, _max_diagrams(max_diagrams))[0])


def _kset(diagram: Diagram, seen: set[int]) -> KohnertSet:
    """The ``KohnertSet`` of the closure states ``seen`` of ``diagram``,
    sorted as ``generate_kd`` describes."""
    width, ncols = diagram.max_row + 1, diagram.max_col
    field = (1 << width) - 1
    shifts = tuple(range((ncols - 1) * width, -1, -width))     # column 1 first
    flipped: dict[int, int] = {}        # field reversals, filled as fields occur

    def key(state: int) -> int:
        k = 0
        for shift in shifts:
            mask = state >> shift & field
            rev = flipped.get(mask)
            if rev is None:
                rev = flipped[mask] = int(f"{mask:0{width}b}"[::-1], 2)
            k = k << width | rev
        return k

    return KohnertSet(diagram, tuple(sorted(seen, key=key, reverse=True)))


def kohnert_polynomial(diagram: Diagram, n: int | None = None,
                       max_diagrams: int | None = None) -> IntPolynomial:
    """Generating polynomial of the row weights over the closure."""
    if n is None:
        n = diagram.max_row
    elif n < diagram.max_row:
        raise ValueError(f"diagram has cells above row {n}")
    return _polynomial(diagram, _closure(diagram, _max_diagrams(max_diagrams))[1], n)


def _moves(kset: KohnertSet) -> list[tuple[int, int, int]]:
    """Every move between members as (position, position, row moved), sorted:
    the search's step expands each stored state alone."""
    expand, width = _step(kset.source, len(kset.states)), kset.source.max_row + 1
    index = {state: n for n, state in enumerate(kset.states)}
    # a move flips two bits of one field, the higher one at the row moved
    return sorted((n, index[nxt], ((state ^ nxt).bit_length() - 1) % width)
                  for n, state in enumerate(kset.states)
                  for nxt in expand([state], [0], {state}, 1)[0])


def kd_to_json(kset: KohnertSet) -> str:
    width, ncols = kset.source.max_row + 1, kset.source.max_col
    return json.dumps({
        "source": kset.states.index(_pack(_columns(kset.source), width)),
        "count": len(kset.states),
        "members": [list(map(list, _cells(s, width, ncols))) for s in kset.states],
        "edges": [list(e) for e in _moves(kset)],
    })


def kd_to_dot(kset: KohnertSet) -> str:
    lines = ["digraph kohnert_moves {",
             '  node [shape=box fontname="monospace"];']
    for n in range(len(kset.states)):
        lines.append('  n%d [label="%s\\l"];' % (n, kset.grid(n).replace("\n", "\\l")))
    for n, m, r in _moves(kset):
        lines.append(f"  n{n} -> n{m} [row={r}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
