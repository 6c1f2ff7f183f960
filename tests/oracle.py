"""Reference closure: the breadth-first search over ``Diagram`` objects.

This is the closure engine the packed search in ``kohnert.moves``
replaced.  It applies ``kohnert_move`` to whole diagrams and records
every edge it walks, so the differential tests can hold the packed
engine to the same members, edges, polynomial and budget boundary.
"""

from collections import deque
from dataclasses import dataclass

from kohnert.diagrams import Diagram
from kohnert.moves import DEFAULT_MAX_DIAGRAMS, ResourceBoundError, kohnert_move


@dataclass(frozen=True)
class OracleSet:
    source: Diagram
    members: tuple[Diagram, ...]          # sorted canonically
    edges: frozenset[tuple[Diagram, Diagram, int]]   # (from, to, row moved)


def oracle_generate_kd(diagram: Diagram, max_diagrams: int = DEFAULT_MAX_DIAGRAMS) -> OracleSet:
    seen = {diagram}
    queue = deque([diagram])
    edges = []
    while queue:
        current = queue.popleft()
        for r in current.by_row:
            nxt = kohnert_move(current, r)
            if nxt is None:
                continue
            edges.append((current, nxt, r))
            if nxt not in seen:
                if len(seen) >= max_diagrams:
                    raise ResourceBoundError(
                        f"closure exceeds {max_diagrams} diagrams (KOHNERT_MAX_DIAGRAMS)")
                seen.add(nxt)
                queue.append(nxt)
    return OracleSet(source=diagram,
                     members=tuple(sorted(seen)),
                     edges=frozenset(edges))
