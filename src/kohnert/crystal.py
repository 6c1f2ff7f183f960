"""Crystal operators on diagrams and the rectification operators.

Row pairing matches cells of row i+1 against cells of row i; column
pairing matches cells of column c+1 against cells of column c.  Both are
bracket matchings: after removing pairs that share a column (for rows)
or a row (for columns), each closer takes the nearest available opener
behind it in scan order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Cell, Diagram, is_southwest
from .moves import KohnertSet


def _bracket(openers, closers):
    """Match each closer to the nearest unmatched opener earlier in scan order.

    openers/closers are lists of (scan_key, cell) with distinct keys.
    """
    events = sorted([(k, 0, cell) for k, cell in openers]
                    + [(k, 1, cell) for k, cell in closers])
    stack: list[Cell] = []
    pairs = []
    unpaired_closers = []
    for _, kind, cell in events:
        if kind == 0:
            stack.append(cell)
        elif stack:
            pairs.append((stack.pop(), cell))
        else:
            unpaired_closers.append(cell)
    return pairs, stack, unpaired_closers


@dataclass(frozen=True)
class RowPairing:
    """Pairing between rows i (low) and i+1 (high)."""
    i: int
    pairs: tuple[tuple[Cell, Cell], ...]     # (low cell, high cell)
    unpaired_low: tuple[Cell, ...]
    unpaired_high: tuple[Cell, ...]


@dataclass(frozen=True)
class ColumnPairing:
    """Pairing between columns c (left) and c+1 (right)."""
    c: int
    pairs: tuple[tuple[Cell, Cell], ...]     # (left cell, right cell)
    unpaired_left: tuple[Cell, ...]
    unpaired_right: tuple[Cell, ...]


def row_pairing(diagram: Diagram, i: int) -> RowPairing:
    """Match row-(i+1) cells with row-i cells to their left."""
    if i < 1:
        raise ValueError("row index must be >= 1")
    low = diagram.row(i)
    high = diagram.row(i + 1)
    common = set(low) & set(high)
    pairs = [((c, i), (c, i + 1)) for c in sorted(common)]
    openers = [(c, (c, i)) for c in low if c not in common]
    closers = [(c, (c, i + 1)) for c in high if c not in common]
    matched, open_rest, close_rest = _bracket(openers, closers)
    pairs.extend(matched)
    return RowPairing(i=i,
                      pairs=tuple(sorted(pairs)),
                      unpaired_low=tuple(sorted(open_rest)),
                      unpaired_high=tuple(sorted(close_rest)))


def column_pairing(diagram: Diagram, c: int) -> ColumnPairing:
    """Match column-(c+1) cells with column-c cells above them."""
    if c < 1:
        raise ValueError("column index must be >= 1")
    left = diagram.col(c)
    right = diagram.col(c + 1)
    common = set(left) & set(right)
    pairs = [((c, r), (c + 1, r)) for r in sorted(common)]
    openers = [(-r, (c, r)) for r in left if r not in common]
    closers = [(-r, (c + 1, r)) for r in right if r not in common]
    matched, open_rest, close_rest = _bracket(openers, closers)
    pairs.extend(matched)
    return ColumnPairing(c=c,
                         pairs=tuple(sorted(pairs)),
                         unpaired_left=tuple(sorted(open_rest)),
                         unpaired_right=tuple(sorted(close_rest)))


def raising(diagram: Diagram, i: int) -> Diagram | None:
    """Drop the rightmost unpaired row-(i+1) cell into row i, or None."""
    pairing = row_pairing(diagram, i)
    if not pairing.unpaired_high:
        return None
    c, _ = pairing.unpaired_high[-1]
    return diagram.move_cell((c, i + 1), (c, i))


def rectify_step(diagram: Diagram, c: int) -> Diagram:
    """Move the lowest unpaired column-(c+1) cell left, or return unchanged."""
    pairing = column_pairing(diagram, c)
    if not pairing.unpaired_right:
        return diagram
    _, r = pairing.unpaired_right[0]
    return diagram.move_cell((c + 1, r), (c, r))


def rectify_column(diagram: Diagram, c: int) -> Diagram:
    """Apply rectify_step at column c until it stops moving cells."""
    while True:
        nxt = rectify_step(diagram, c)
        if nxt == diagram:
            return diagram
        diagram = nxt


def is_rectified(diagram: Diagram) -> bool:
    """Every column must dominate the next one from each height upward."""
    for c in range(1, diagram.max_col):
        left = diagram.col(c)
        right = diagram.col(c + 1)
        for r in right:
            if sum(1 for s in left if s >= r) < sum(1 for s in right if s >= r):
                return False
    return True


def rectify(diagram: Diagram) -> Diagram:
    """Fully rectify by right-to-left column sweeps."""
    while not is_rectified(diagram):
        for c in range(diagram.max_col - 1, 0, -1):
            diagram = rectify_column(diagram, c)
    return diagram


@dataclass(frozen=True)
class CrystalGraph:
    source: Diagram
    members: tuple[Diagram, ...]
    max_index: int
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
    member_set = kset.member_set
    max_index = max(source.max_row - 1, 0)
    edges = []
    for t in members:
        for i in range(1, max_index + 1):
            u = raising(t, i)
            if u is None:
                continue
            if u not in member_set:
                raise AssertionError(
                    f"southwest closure not stable under raising at i={i}: {t.sorted_cells}")
            edges.append((t, i, u))
    # connected components over the undirected edge relation
    neighbours: dict[Diagram, list[Diagram]] = {t: [] for t in members}
    for t, _, u in edges:
        neighbours[t].append(u)
        neighbours[u].append(t)
    seen: set[Diagram] = set()
    components = []
    for seed in members:
        if seed in seen:
            continue
        comp = {seed}
        frontier = [seed]
        while frontier:
            for nxt in neighbours[frontier.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        components.append(frozenset(comp))
    # members are sorted, so seeds come least member first and a stable
    # sort by size orders components by (size, least member)
    components.sort(key=len)
    has_out = {t for t, _, _ in edges}
    highest = []
    for comp in components:
        tops = [t for t in comp if t not in has_out]
        if len(tops) != 1:
            raise AssertionError("component without a unique highest weight")
        highest.append(tops[0])
    return CrystalGraph(source=source,
                        members=members,
                        max_index=max_index,
                        edges=frozenset(edges),
                        components=tuple(components),
                        highest=tuple(highest))


_EDGE_COLORS = ["blue", "purple", "violet", "red", "green", "orange", "brown"]


def crystal_to_dot(graph: CrystalGraph, component_labels=None) -> str:
    index = {t: i for i, t in enumerate(graph.members)}
    lines = ["digraph kohnert_crystal {",
             '  node [shape=box fontname="monospace"];']
    for ci, comp in enumerate(graph.components):
        label = f"component {ci}"
        if component_labels is not None:
            label = f"{label}: {component_labels[ci]}"
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="{label}";')
        for t in sorted(comp):
            lines.append(f'    n{index[t]} [label="{t.dot_label()}"];')
        lines.append("  }")
    for t, i, u in sorted(graph.edges, key=lambda e: (index[e[0]], e[1], index[e[2]])):
        color = _EDGE_COLORS[(i - 1) % len(_EDGE_COLORS)]
        lines.append(f'  n{index[t]} -> n{index[u]} [label="{i}" color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
