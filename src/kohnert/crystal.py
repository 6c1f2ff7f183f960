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
* Rectification reads columns out of a state: the fields.  With
  ``two`` the mask of two fields, ``state >> shift & two`` holds a pair
  of adjacent columns, the left one in the high field.  ``_rectified``
  moves every unpaired right-hand cell of a pair at once, since moving
  the lowest one turns the last free closer into an opener and changes
  no other match; the XOR mask that does so is memoized per pair slice
  in a ``flips`` dict, as ``_raises`` memoizes row pairs.  One walk goes
  from the rightmost pair leftward; after a pair moves cells it steps
  one pair back to the right, whose left column just lost cells, so the
  walk ends with no pair left to move.  Slices mean the same in every
  state of one layout, so ``kohnert crystal`` and the ``components``
  sweep share one dict across all components of a crystal, through
  ``labeling._rectified_component``; ``rectify`` goes through it too.
* Single steps act on one state: ``_raised`` raises at row i through
  ``_raise_bit`` on the slice ``state >> i & spread``, and
  ``_rectify_step`` moves the lowest unpaired cell of one column pair
  through ``_lone``.  The ``commute`` sweep takes them on each packed
  sample, and ``raising`` and ``rectify_step`` are thin ``Diagram``
  wrappers over them.

``kohnert crystal``, the sweeps and ``crystal_to_dot`` read the
positions ``_crystal`` gives.  ``crystal_graph`` and the ``Diagram``
operators are the ``Diagram``-level API over these helpers.  The
tableau operators in ``kohnert.tableaux`` scan column masks of their
two entries with ``_lone`` too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Diagram, _columns, is_southwest
from .moves import KohnertSet, _cells, _pack, _spread


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


def _raised(state: int, i: int, spread: int) -> int | None:
    """The packed state raised at row i, or None when no cell moves.
    ``spread`` holds bit 0 of every column field, and row i + 1 lies in
    the fields, so ``state >> i & spread`` is row i, leftmost column high."""
    low, high = state >> i & spread, state >> i + 1 & spread
    bit = _raise_bit(low, high) if high & ~low else 0
    return state ^ bit * 3 << i if bit else None


def raising(diagram: Diagram, i: int) -> Diagram | None:
    """Drop the rightmost unpaired row-(i+1) cell into row i, or None."""
    if i < 1:
        raise ValueError("row index must be >= 1")
    if i >= diagram.max_row:        # row i + 1 is empty
        return None
    width, ncols = diagram.max_row + 1, diagram.max_col
    state = _raised(_pack(_columns(diagram), width), i, _spread(width, ncols))
    return None if state is None else Diagram(frozenset(_cells(state, width, ncols)))


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


def _rectify_step(state: int, c: int, width: int, ncols: int) -> int:
    """The packed state, ``ncols`` fields ``width`` bits wide, with the
    lowest unpaired cell of column c + 1 <= ``ncols`` moved left, or
    unchanged when there is none."""
    field = (1 << width) - 1
    shift = (ncols - c - 1) * width             # column c + 1's field
    lone = _lone(state >> shift + width & field, state >> shift & field)
    return state ^ (lone & -lone) * (field + 2) << shift


def rectify_step(diagram: Diagram, c: int) -> Diagram:
    """Move the lowest unpaired column-(c+1) cell left, or return unchanged."""
    if c < 1:
        raise ValueError("column index must be >= 1")
    if c >= diagram.max_col:        # column c + 1 is empty
        return diagram
    width, ncols = diagram.max_row + 1, diagram.max_col
    state = _pack(_columns(diagram), width)
    moved = _rectify_step(state, c, width, ncols)
    return diagram if moved == state else Diagram(frozenset(_cells(moved, width, ncols)))


def _rectified(state: int, width: int, ncols: int, flips: dict[int, int]) -> int:
    """Rectify a packed state of ``ncols`` fields, ``width`` bits each, in
    one walk over its column pairs, and drop its trailing empty fields.
    ``flips`` maps a pair slice, the left column in the high field, to the
    XOR mask that moves its unpaired right-hand cells left (0 for none)."""
    field = (1 << width) - 1
    two, both = field << width | field, field + 2      # lone * both: a bit in each field
    shift, last = 0, (ncols - 2) * width                # the rightmost pair first
    while shift <= last:
        pair = state >> shift & two
        flip = flips.get(pair)
        if flip is None:
            flip = flips[pair] = _lone(pair >> width, pair & field) * both
        if flip:
            state ^= flip << shift
            if shift:                   # the right-hand column lost cells
                shift -= width
                continue
        shift += width
    # a rectified state has no empty field left of a full one
    return state >> ((state & -state).bit_length() - 1) // width * width if state else 0


def rectify(diagram: Diagram) -> Diagram:
    """Fully rectify: no column pair has an unpaired right-hand cell left."""
    width = diagram.max_row + 1
    state = _rectified(_pack(_columns(diagram), width), width, diagram.max_col, {})
    return Diagram(frozenset(_cells(state, width, -(-state.bit_length() // width))))


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
