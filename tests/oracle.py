"""Reference code the tests hold the package to.

``oracle_generate_kd`` is the breadth-first search over ``Diagram``
objects that the packed search in ``kohnert.moves`` replaced.  It
applies ``kohnert_move`` to whole diagrams and records every edge it
walks, so the differential tests can hold the packed engine to the same
members, edges, polynomial and budget boundary.

``word_to_permutation`` recomposes a word of simple transpositions, so
the tests can check ``reduced_word``.

``reverse_kohnert_moves`` enumerates the sources of a Kohnert move by
lifting cells, so the tests can check ``kohnert_move`` from the other
side.  ``crystal_components_json`` summarises each crystal component
(size, partition, highest weight diagram) as JSON.

``oracle_fundamental_slide`` is the filter over every weak composition
of |a| that the direct construction in ``kohnert.polynomials`` replaced,
with the refinement and dominance orders it filters by.

``southwest_hull`` closes a set of cells under the southwest condition,
so property tests can draw southwest diagrams.
"""

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from kohnert.compositions import compositions_of, flatten, pad
from kohnert.crystal import CrystalGraph
from kohnert.diagrams import Diagram, weight
from kohnert.moves import DEFAULT_MAX_DIAGRAMS, ResourceBoundError, kohnert_move
from kohnert.perms import Permutation, identity
from kohnert.polynomials import IntPolynomial


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


def word_to_permutation(word, n: int) -> Permutation:
    """Recompose a word from reduced_word back into a permutation."""
    w = list(identity(n))
    for i in word:
        if not 1 <= i < n:
            raise ValueError(f"letter {i} out of range for S_{n}")
        # composing with s_i on the right swaps positions i and i+1
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def reverse_kohnert_moves(diagram: Diagram, max_row: int | None = None) -> list[tuple[Diagram, int]]:
    """All (source, row) pairs whose Kohnert move yields this diagram.

    Candidate sources lift one cell within its column up to ``max_row``
    (default: the top occupied row of the diagram itself).
    """
    if max_row is None:
        max_row = diagram.max_row
    found = []
    for c, r0 in diagram.sorted_cells:
        occupied = set(diagram.col(c))
        for r in range(r0 + 1, max_row + 1):
            if r in occupied:
                continue
            source = diagram.move_cell((c, r0), (c, r))
            if kohnert_move(source, r) == diagram:
                found.append((source, r))
    found.sort(key=lambda pair: (pair[0].sorted_cells, pair[1]))
    return found


def crystal_components_json(graph: CrystalGraph) -> str:
    payload = []
    for ci, comp in enumerate(graph.components):
        top = graph.highest[ci]
        lam = tuple(sorted(weight(top), reverse=True))
        payload.append({
            "component_id": ci,
            "size": len(comp),
            "highest_weight_diagram": sorted(map(list, top.cells)),
            "partition": list(lam),
        })
    return json.dumps(payload)


def refines(fine, coarse) -> bool:
    """True if consecutive blocks of ``fine`` sum to the parts of ``coarse``.

    Both arguments must have all parts positive.
    """
    it = iter(fine)
    for part in coarse:
        acc = 0
        while acc < part:
            try:
                acc += next(it)
            except StopIteration:
                return False
        if acc != part:
            return False
    return next(it, None) is None


def dominates(b, a) -> bool:
    """Prefix-sum dominance: b_1+...+b_k >= a_1+...+a_k for every k."""
    sb = sa = 0
    for x, y in zip(b, a):
        sb += x
        sa += y
        if sb < sa:
            return False
    return True


@lru_cache(maxsize=None)
def _flattened_compositions(total: int, n: int) -> tuple:
    # cached: the exhaustive slide test asks for each (total, n) many times
    return tuple((b, flatten(b)) for b in compositions_of(total, n))


def oracle_fundamental_slide(a, n: int) -> IntPolynomial:
    """Sum of x^b over the weak compositions b of |a| into n parts that
    dominate a and whose flattening refines flat(a)."""
    a = pad(a, n)
    fa = flatten(a)
    return IntPolynomial(n, {b: 1 for b, fb in _flattened_compositions(sum(a), n)
                             if dominates(b, a) and refines(fb, fa)})


def southwest_hull(cells) -> Diagram:
    """The smallest southwest diagram holding the cells: add missing corners."""
    cells = set(cells)
    while True:
        corners = {(c1, r1) for c1, r2 in cells for c2, r1 in cells
                   if c1 < c2 and r1 < r2} - cells
        if not corners:
            return Diagram.of(*cells)
        cells |= corners
