"""Reference computations the benchmark checks against.

Everything here is written apart from the package under test: Kohnert's
rule on plain cell sets, the southwest condition, the row-chain
(vexillary) test, fundamental slides by generating refinements, and the
case counts of the verification sweeps.  Diagrams are frozensets of
(col, row) pairs, both 1-based, row 1 at the bottom.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def kohnert_move(cells: frozenset, r: int) -> frozenset | None:
    """Drop the rightmost cell of row r to the first empty spot below."""
    cols = [c for c, rr in cells if rr == r]
    if not cols:
        return None
    c = max(cols)
    for dst in range(r - 1, 0, -1):
        if (c, dst) not in cells:
            return cells - {(c, r)} | {(c, dst)}
    return None


def closure(cells: frozenset) -> set[frozenset]:
    """All diagrams reachable by Kohnert moves (small inputs only)."""
    seen = {cells}
    frontier = [cells]
    while frontier:
        cur = frontier.pop()
        for r in {rr for _, rr in cur}:
            nxt = kohnert_move(cur, r)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def row_weight(cells, n: int) -> tuple[int, ...]:
    counts = [0] * n
    for _, r in cells:
        counts[r - 1] += 1
    return tuple(counts)


def is_southwest(cells) -> bool:
    """(c1, r2) and (c2, r1) with c1 < c2, r1 < r2 force the cell (c1, r1)."""
    return all((c1, r1) in cells
               for c1, r2 in cells for c2, r1 in cells
               if c1 < c2 and r1 < r2)


def southwest_closure(cells) -> frozenset:
    """Add corners until the diagram is southwest."""
    cells = set(cells)
    while True:
        missing = {(c1, r1) for c1, r2 in cells for c2, r1 in cells
                   if c1 < c2 and r1 < r2} - cells
        if not missing:
            return frozenset(cells)
        cells |= missing


def southwest_in_box(cols: int, rows: int, max_cells: int | None = None) -> list[frozenset]:
    grid = [(c, r) for c in range(1, cols + 1) for r in range(1, rows + 1)]
    top = len(grid) if max_cells is None else min(max_cells, len(grid))
    return [frozenset(pick) for k in range(top + 1)
            for pick in combinations(grid, k) if is_southwest(frozenset(pick))]


def rows_form_chain(cells) -> bool:
    """Nonempty rows, as column sets, are totally ordered by inclusion."""
    rows: dict[int, set] = {}
    for c, r in cells:
        rows.setdefault(r, set()).add(c)
    ordered = sorted(rows.values(), key=len)
    return all(a <= b for a, b in zip(ordered, ordered[1:]))


def lift_one_cell(cells, rng) -> frozenset:
    """Move one cell up its column to an empty spot.  Kohnert moves only
    lower cells, so the result is never in the closure of ``cells``."""
    top = max(r for _, r in cells)
    options = [((c, r), (c, s)) for c, r in sorted(cells)
               for s in range(r + 1, top + 2) if (c, s) not in cells]
    src, dst = rng.choice(options)
    return cells - {src} | {dst}


def random_moves(cells, rng, steps: int) -> frozenset:
    """Apply up to ``steps`` random Kohnert moves: a member by construction."""
    for _ in range(steps):
        moves = [m for m in (kohnert_move(cells, r) for r in sorted({r for _, r in cells}))
                 if m is not None]
        if not moves:
            break
        cells = rng.choice(moves)
    return cells


def slide_terms(a) -> set[tuple[int, ...]]:
    """Exponents of the fundamental slide polynomial of a, in len(a)
    variables: b dominating a whose nonzero parts refine those of a.

    Generated by splitting each nonzero part of a into consecutive
    positive pieces and placing all pieces left to right, rather than by
    filtering every composition.  Only refinements into at most len(a)
    pieces are generated, since no more fit.
    """
    n = len(a)
    parts = [x for x in a if x]
    total = sum(a)
    prefix_a = [sum(a[:k + 1]) for k in range(n)]

    def splits(x, most):
        """Compositions of x into at most ``most`` positive parts."""
        if x == 0:
            yield ()
            return
        for first in range(1, x + 1) if most > 0 else ():
            for rest in splits(x - first, most - 1):
                yield (first,) + rest

    def refinements(idx, room):
        if idx == len(parts):
            yield ()
            return
        later = len(parts) - idx - 1      # each later part takes a piece
        for head in splits(parts[idx], room - later):
            for tail in refinements(idx + 1, room - len(head)):
                yield head + tail

    found = set()
    for pieces in refinements(0, n):
        for pos in combinations(range(n), len(pieces)):
            b = [0] * n
            for p, v in zip(pos, pieces):
                b[p] = v
            run = 0
            ok = True
            for k in range(n):
                run += b[k]
                if run < prefix_a[k]:
                    ok = False
                    break
            if ok and run == total:
                found.add(tuple(b))
    return found


def weak_compositions_count(max_parts: int, max_size: int) -> int:
    """Weak compositions with at most max_parts parts and size at most max_size."""
    total = 1                       # the empty composition
    for length in range(1, max_parts + 1):
        total += sum(comb(t + length - 1, length - 1) for t in range(max_size + 1))
    return total


def membership_cases(cols: int, rows: int, t_rows: int) -> int:
    """Candidates the membership sweep compares: every southwest D in the
    box, times the diagrams with D's column weights in t_rows rows."""
    total = 0
    for d in southwest_in_box(cols, rows):
        count = 1
        for c in range(1, cols + 1):
            count *= comb(t_rows, sum(1 for cc, _ in d if cc == c))
        total += count
    return total
