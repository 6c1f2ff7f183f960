"""Crystal operators on diagrams and the rectification operators.

Both rest on one bracket rule, ``_lone``, on a pair of integer bitmasks.
Raising at i pairs each cell of row i+1 with a cell of row i to its
left; rectification at c pairs each cell of column c+1 with a cell of
column c above it.  Bits set in both masks pair off; then a counter of
free openers walks the rest from the high bit down, and a closer that
finds it at zero is unpaired.  Each operator reads its own layout, in
which that scan order is the high bit down:

* Row masks carry raising.  For a width w >= max_col, the mask of row r
  has bit w - c set when (c, r) is a cell, so the leftmost column is
  the high bit.  A row key holds the row masks side by side, row r in
  bits (r - 1) * w to r * w - 1.  One scan, ``_raises``, walks a row key
  from row 1 upward and yields each row at which raising moves a cell;
  ``_highest`` keeps the members it yields nothing for.  A raise at i
  flips one bit in the fields of rows i and i+1, so ``crystal_graph``
  finds each edge by looking the flipped key up among the members' keys.
* Column masks carry rectification.  The mask of column c has bit r set
  when (c, r) is a cell; they are the fields of a packed closure state
  of ``kohnert.moves``, so rectified members compare with a closure
  without building diagrams.  ``_rectify`` moves every unpaired
  column-(c+1) cell at once, since moving the lowest one turns the last
  free closer into an opener and changes no other match, and sweeps
  right to left until a sweep moves nothing.

The ``Diagram`` operators pack their input and call these helpers.  The
tableau operators in ``kohnert.tableaux`` build column masks of their
two entries and scan them with ``_lone`` too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Diagram, _columns, is_southwest
from .moves import KohnertSet, _pack


def _lone(openers: int, closers: int) -> int:
    """The bracket rule on two masks, scanned from the high bit down.

    Bits set in both pair off; then each closer takes a free opener
    scanned before it.  Returns the mask of the closers left unpaired.
    A count of free openers is enough, since which one a closer takes
    decides no later closer's fate.
    """
    shared = openers & closers
    closers ^= shared
    rest = (openers ^ shared) | closers
    lone = free = 0
    while closers:
        bit = 1 << (rest.bit_length() - 1)
        rest ^= bit
        if not bit & closers:
            free += 1
        elif free:
            free -= 1
            closers ^= bit
        else:
            lone |= bit
            closers ^= bit
    return lone


def _raise_bit(low: int, high: int) -> int:
    """The bit, in the masks of rows i and i+1, of the cell raising at i
    moves: the rightmost unpaired row-(i+1) cell, or 0 when there is none."""
    lone = _lone(low, high)
    return lone & -lone


def _row_key(diagram: Diagram, width: int) -> int:
    """The row masks of a diagram side by side, ``width`` bits each."""
    key = 0
    for c, r in diagram.cells:
        key |= 1 << (r * width - c)
    return key


def _bits(mask: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def raising(diagram: Diagram, i: int) -> Diagram | None:
    """Drop the rightmost unpaired row-(i+1) cell into row i, or None."""
    if i < 1:
        raise ValueError("row index must be >= 1")
    width = diagram.max_col
    field = (1 << width) - 1
    rows = _row_key(diagram, width) >> (i - 1) * width
    bit = _raise_bit(rows & field, rows >> width & field)
    if not bit:
        return None
    c = width + 1 - bit.bit_length()
    return diagram.move_cell((c, i + 1), (c, i))


def _raises(key: int, width: int):
    """Walk a row key from row 1 upward and yield (i, bit) for each row i
    at which raising moves a cell: ``bit`` marks its column in the masks
    of rows i and i+1."""
    field = (1 << width) - 1
    i = 1
    while above := key >> width:
        bit = _raise_bit(key & field, above & field)
        if bit:
            yield i, bit
        key = above
        i += 1


def _highest(diagrams) -> list[Diagram]:
    """The diagrams that no raising operator moves."""
    width = max((t.max_col for t in diagrams), default=0)
    return [t for t in diagrams if not any(_raises(_row_key(t, width), width))]


def rectify_step(diagram: Diagram, c: int) -> Diagram:
    """Move the lowest unpaired column-(c+1) cell left, or return unchanged."""
    if c < 1:
        raise ValueError("column index must be >= 1")
    lone = _lone(sum(1 << r for r in diagram.col(c)),
                 sum(1 << r for r in diagram.col(c + 1)))
    if not lone:
        return diagram
    r = (lone & -lone).bit_length() - 1
    return diagram.move_cell((c + 1, r), (c, r))


def _rectify(cols: list[int]) -> list[int]:
    """Rectify column masks in place by right-to-left sweeps, until a
    sweep moves nothing, and return them."""
    moved = True
    while moved:
        moved = False
        for k in range(len(cols) - 2, -1, -1):
            if not cols[k + 1] & ~cols[k]:     # every right-hand cell pairs in its row
                continue
            lone = _lone(cols[k], cols[k + 1])
            if lone:
                cols[k] |= lone
                cols[k + 1] ^= lone
                moved = True
    return cols


def rectify(diagram: Diagram) -> Diagram:
    """Fully rectify by right-to-left column sweeps."""
    cols = _rectify(_columns(diagram))
    return Diagram(frozenset((k + 1, r) for k, col in enumerate(cols) for r in _bits(col)))


def _rectified_states(diagrams, width: int) -> set[int]:
    """Each diagram rectified and packed as a closure state, in fields
    ``width`` bits wide, which must exceed every row."""
    return {_pack(_rectify(_columns(t)), width) for t in diagrams}


@dataclass(frozen=True)
class CrystalGraph:
    source: Diagram
    members: tuple[Diagram, ...]
    edges: frozenset[tuple[Diagram, int, Diagram]]      # raising edges
    components: tuple[frozenset[Diagram], ...]          # by (size, least member)
    highest: tuple[Diagram, ...]                        # one per component


def crystal_graph(kset: KohnertSet) -> CrystalGraph:
    """Raising-operator graph over the closure of a southwest diagram,
    split into components.

    Only southwest sources are guaranteed closed under the operators, so
    any other source is refused.
    """
    source = kset.source
    if not is_southwest(source):
        raise ValueError("source diagram is not southwest")
    members = kset.members
    width = source.max_col                 # moves and raises keep every column
    keys = [_row_key(t, width) for t in members]
    index = {key: n for n, key in enumerate(keys)}
    edges = []                             # (member, i, member) by position
    for n, key in enumerate(keys):
        for i, bit in _raises(key, width):
            m = index.get(key ^ (bit << width | bit) << (i - 1) * width)
            if m is None:
                raise AssertionError(f"southwest closure not stable under raising "
                                     f"at i={i}: {members[n].sorted_cells}")
            edges.append((n, i, m))
    # connected components over the undirected edge relation
    neighbours: list[list[int]] = [[] for _ in keys]
    for n, _, m in edges:
        neighbours[n].append(m)
        neighbours[m].append(n)
    seen = [False] * len(keys)
    groups = []
    for seed in range(len(keys)):
        if seen[seed]:
            continue
        seen[seed] = True
        group = [seed]
        for n in group:                    # grows as the search reaches members
            for m in neighbours[n]:
                if not seen[m]:
                    seen[m] = True
                    group.append(m)
        groups.append(group)
    # members are sorted, so seeds come least member first and a stable
    # sort by size orders components by (size, least member)
    groups.sort(key=len)
    has_out = {n for n, _, _ in edges}
    highest = []
    for group in groups:
        tops = [n for n in group if n not in has_out]
        if len(tops) != 1:
            raise AssertionError("component without a unique highest weight")
        highest.append(members[tops[0]])
    return CrystalGraph(source=source,
                        members=members,
                        edges=frozenset((members[n], i, members[m]) for n, i, m in edges),
                        components=tuple(frozenset(members[n] for n in group)
                                         for group in groups),
                        highest=tuple(highest))


_EDGE_COLORS = ["blue", "purple", "violet", "red", "green", "orange", "brown"]


def crystal_to_dot(graph: CrystalGraph, component_labels) -> str:
    index = {t: i for i, t in enumerate(graph.members)}
    lines = ["digraph kohnert_crystal {",
             '  node [shape=box fontname="monospace"];']
    for ci, comp in enumerate(graph.components):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="component {ci}: {component_labels[ci]}";')
        for t in sorted(comp, key=index.__getitem__):
            lines.append(f'    n{index[t]} [label="{t.dot_label()}"];')
        lines.append("  }")
    for t, i, u in sorted(graph.edges, key=lambda e: (index[e[0]], e[1], index[e[2]])):
        color = _EDGE_COLORS[(i - 1) % len(_EDGE_COLORS)]
        lines.append(f'  n{index[t]} -> n{index[u]} [label="{i}" color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
