"""Crystal operators on diagrams and the rectification operators.

Both rest on one bracket rule, ``_unpaired``.  Raising at i pairs each
cell of row i+1 with a cell of row i to its left; rectification at c
pairs each cell of column c+1 with a cell of column c above it.  Cells
that share a column (for rows) or a row (for columns) pair off first;
then each closer takes the nearest free opener behind it in scan order.
One bracket pass per column pair finds every unpaired column-(c+1)
cell: a rectify step moves the lowest, ``rectify_column`` moves them
all at once, and a diagram is rectified when no column pair has any.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Diagram, is_southwest
from .moves import KohnertSet


def _unpaired(openers, closers) -> tuple[list, list]:
    """The bracket rule on two disjoint sets of scan keys.

    Each closer takes the nearest free opener before it.  Returns the
    free openers and the free closers, each in scan order.
    """
    free, lone = [], []
    for key, closes in sorted([(k, False) for k in openers]
                              + [(k, True) for k in closers]):
        if not closes:
            free.append(key)
        elif free:
            free.pop()
        else:
            lone.append(key)
    return free, lone


def raising(diagram: Diagram, i: int) -> Diagram | None:
    """Drop the rightmost unpaired row-(i+1) cell into row i, or None."""
    if i < 1:
        raise ValueError("row index must be >= 1")
    low = set(diagram.row(i))
    high = set(diagram.row(i + 1))
    _, lone = _unpaired(low - high, high - low)
    if not lone:
        return None
    c = lone[-1]
    return diagram.move_cell((c, i + 1), (c, i))


def _unpaired_right(diagram: Diagram, c: int) -> list[int]:
    """Rows of the unpaired column-(c+1) cells against column c, top first."""
    if c < 1:
        raise ValueError("column index must be >= 1")
    left = set(diagram.col(c))
    right = set(diagram.col(c + 1))
    _, lone = _unpaired({-r for r in left - right}, {-r for r in right - left})
    return [-k for k in lone]


def rectify_step(diagram: Diagram, c: int) -> Diagram:
    """Move the lowest unpaired column-(c+1) cell left, or return unchanged."""
    rows = _unpaired_right(diagram, c)
    if not rows:
        return diagram
    return diagram.move_cell((c + 1, rows[-1]), (c, rows[-1]))


def rectify_column(diagram: Diagram, c: int) -> Diagram:
    """Move every unpaired column-(c+1) cell left, or return unchanged.

    Moving the lowest one turns the last free closer into an opener,
    which changes no other match, so repeated steps move exactly these.
    """
    rows = _unpaired_right(diagram, c)
    if not rows:
        return diagram
    return Diagram(diagram.cells - {(c + 1, r) for r in rows} | {(c, r) for r in rows})


def is_rectified(diagram: Diagram) -> bool:
    """No column has a cell left unpaired against the column to its left."""
    return not any(_unpaired_right(diagram, c) for c in range(1, diagram.max_col))


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
