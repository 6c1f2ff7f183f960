"""Crystal operators on diagrams and the rectification operators.

Both rest on one bracket rule, ``_lone``, on a pair of integer bitmasks.
Raising at i pairs each cell of row i+1 with a cell of row i to its
left; rectification at c pairs each cell of column c+1 with a cell of
column c above it.  Bits set in both masks pair off; then a counter of
free openers walks the rest from the high bit down, and a closer that
finds it at zero is unpaired.

Both operators read the one packed layout of ``kohnert.moves``: a state
holds a row bitmask per column, column 1 in the high field.

* Raising reads rows out of a state.  With ``spread`` holding bit 0 of
  every field, ``state >> i & spread`` is the mask of row i with one bit
  per column and the leftmost column as the high bit, the order the
  bracket scan wants.  One scan, ``_raises``, walks a state from row 1
  upward and yields each row at which raising moves a cell, with the
  two bits whose flip raises it.  ``_crystal`` builds the raising graph
  of a closure on the positions of its members' states, looking each
  raised state up; a state the scan yields nothing for is a highest member.
* Column masks carry rectification: the fields of a state.
  ``_rectify`` moves every unpaired column-(c+1) cell at once, since
  moving the lowest one turns the last free closer into an opener and
  changes no other match, and sweeps right to left until a sweep moves
  nothing; ``labeling._rectified_component`` rectifies states this way.

``kohnert crystal``, the sweeps and ``crystal_to_dot`` read the
positions ``_crystal`` gives.  ``crystal_graph`` and the ``Diagram``
operators are the ``Diagram``-level API over these helpers.  The
tableau operators in ``kohnert.tableaux`` scan column masks of their
two entries with ``_lone`` too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Diagram, _columns, is_southwest
from .moves import KohnertSet, _cells


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


def _bits(mask: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def raising(diagram: Diagram, i: int) -> Diagram | None:
    """Drop the rightmost unpaired row-(i+1) cell into row i, or None."""
    if i < 1:
        raise ValueError("row index must be >= 1")
    width = diagram.max_col
    low = sum(1 << width - c for c in diagram.row(i))
    high = sum(1 << width - c for c in diagram.row(i + 1))
    bit = _raise_bit(low, high) if high & ~low else 0
    if not bit:
        return None
    c = width + 1 - bit.bit_length()
    return diagram.move_cell((c, i + 1), (c, i))


def _spread(width: int, ncols: int) -> int:
    """Bit 0 of each of the ``ncols`` fields, ``width`` bits each, of a state."""
    return sum(1 << k * width for k in range(ncols))


def _raises(state: int, spread: int, width: int, flips: dict[int, int]):
    """Walk a packed state from row 1 upward and yield (i, flip) for each
    row i at which raising moves a cell; ``state ^ flip`` is the raised
    state.  ``spread`` holds bit 0 of every column field.  ``flips`` maps
    the rows i and i+1 of a state, shifted down to bits 0 and 1 of each
    field, to their flip shifted down alike (0 for none); closure states
    share few such slices, so one dict serves every state of a scan."""
    pairs = spread * 3
    for i in range(1, width - 1):
        pair = state >> i & pairs
        flip = flips.get(pair)
        if flip is None:
            low, high = pair & spread, pair >> 1 & spread
            flip = flips[pair] = _raise_bit(low, high) * 3 if high & ~low else 0
        if flip:
            yield i, flip << i


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


@dataclass(frozen=True)
class CrystalGraph:
    source: Diagram
    members: tuple[Diagram, ...]
    edges: frozenset[tuple[Diagram, int, Diagram]]      # raising edges
    components: tuple[frozenset[Diagram], ...]          # by (size, least member)
    highest: tuple[Diagram, ...]                        # one per component


def _crystal(states, d: Diagram):
    """The raising graph on packed states of the closure of ``d``, one field
    of ``d.max_row + 1`` bits per column, as ``kohnert.moves`` packs them.

    Returns the edges as (position, i, position), the components as lists
    of positions ordered by (size, least position), and the position of
    each component's one member that no operator raises.  Raises
    AssertionError when a raise leaves the states, or when a component
    has no unique highest member.
    """
    width, ncols = d.max_row + 1, d.max_col
    spread = _spread(width, ncols)
    flips: dict[int, int] = {}
    index = {state: n for n, state in enumerate(states)}
    edges = []
    for n, state in enumerate(states):
        for i, flip in _raises(state, spread, width, flips):
            m = index.get(state ^ flip)
            if m is None:
                raise AssertionError(f"southwest closure not stable under raising "
                                     f"at i={i}: {_cells(state, width, ncols)}")
            edges.append((n, i, m))
    # connected components over the undirected edge relation
    neighbours: list[list[int]] = [[] for _ in states]
    for n, _, m in edges:
        neighbours[n].append(m)
        neighbours[m].append(n)
    seen = [False] * len(states)
    groups = []
    for seed in range(len(states)):
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
    # seeds come least position first, so a stable sort by size orders
    # components by (size, least position)
    groups.sort(key=len)
    has_out = {n for n, _, _ in edges}
    highest = []
    for group in groups:
        tops = [n for n in group if n not in has_out]
        if len(tops) != 1:
            raise AssertionError("component without a unique highest weight")
        highest.append(tops[0])
    return edges, groups, highest


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
    # members are sorted, so positions order like members
    edges, groups, highest = _crystal(kset.states, source)
    return CrystalGraph(source=source,
                        members=members,
                        edges=frozenset((members[n], i, members[m]) for n, i, m in edges),
                        components=tuple(frozenset(members[n] for n in group)
                                         for group in groups),
                        highest=tuple(members[n] for n in highest))


_EDGE_COLORS = ["blue", "purple", "violet", "red", "green", "orange", "brown"]


def crystal_to_dot(kset: KohnertSet, edges, components, component_labels) -> str:
    """DOT of ``_crystal(kset.states, kset.source)``'s edges and components, in
    that order, each member drawn by ``kset.grid``; the edges are printed
    as given, so they must come (n, i) ascending, as ``_crystal`` lists them."""
    lines = ["digraph kohnert_crystal {",
             '  node [shape=box fontname="monospace"];']
    for ci, group in enumerate(components):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="component {ci}: {component_labels[ci]}";')
        for n in sorted(group):
            lines.append('    n%d [label="%s\\l"];' % (n, kset.grid(n).replace("\n", "\\l")))
        lines.append("  }")
    for n, i, m in edges:
        color = _EDGE_COLORS[(i - 1) % len(_EDGE_COLORS)]
        lines.append(f'  n{n} -> n{m} [label="{i}" color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
