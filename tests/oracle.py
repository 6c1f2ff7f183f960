"""Reference code the tests hold the package to.

``kohnert_move`` is one Kohnert move on a whole diagram, and
``oracle_generate_kd`` is the breadth-first search over ``Diagram``
objects that the packed search in ``kohnert.moves`` replaced.  It
applies ``kohnert_move`` and records every edge it walks, so the
differential tests can hold the packed engine to the same members,
edges, polynomial and budget boundary.

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
so property tests can draw southwest diagrams.  ``oracle_is_southwest``
tests the condition on every pair of columns, the pairwise loop that the
one right-to-left pass over column masks in ``kohnert.diagrams``
replaced.

``_bracket``, ``row_pairing`` and ``column_pairing`` are the pairing
code that the bracket scan ``kohnert.crystal._lone`` replaced: they box every pair
and sort every result.  ``oracle_raising``, ``oracle_rectify_step``,
``oracle_ssyt_lower``, ``oracle_ssyt_raise`` and ``oracle_sskt_raise``
are the five operators as they were built on them, so differential
tests can hold the operators to the old bracket matching.
``oracle_rectify_column`` iterates ``oracle_rectify_step`` to a
fixpoint, and ``oracle_is_rectified`` is the dominance count, the two
that the single bracket pass per column in ``kohnert.crystal`` replaced;
``oracle_rectify`` sweeps the one until the other holds.  The package
keeps no rectified test of its own, since only tests asked it.
``oracle_crystal_graph`` builds the raising graph of a closure from
``oracle_raising`` on whole diagrams, and
``oracle_component_demazure_data`` is ``component_demazure_data`` as it
was on diagrams, raising every member to find the top and comparing
the rectified members with the diagram-level closure of D(a), the
route that the packed row and column masks in ``kohnert.crystal``
replaced.

``EMPTY`` is the diagram with no cells, for the edge-case tests.
``identity``, ``inverse`` and ``act`` are the permutation basics the
tests of ``compose``, ``reduced_word`` and ``sort_and_minimal_perm``
are stated with.

``is_ssyt`` and ``enumerate_ssyt`` test and list semistandard Young
tableaux by brute force, and ``build_crystal`` closes the highest
weight tableau under lowering, so the tests can hold
``demazure_subset`` for the longest permutation to the full crystal.
``character`` sums x^weight over tableaux or diagrams, to compare a
set of either against a Demazure character.

``Labeling`` is a frozen map from the cells of a base diagram to
positive labels, which checks that the labels cover the base exactly;
``is_strict`` and ``is_flagged`` test distinct labels per column and
labels at least their row, and ``Labeling.from_grid`` parses the grid
``kohnert.labeling.label_grid`` prints, so the tests can round-trip it.
``_columns_of`` and ``_labeling_of`` convert a ``Labeling`` to and from
the one ``{row: label}`` dict per column that the labelling engine in
``kohnert.labeling`` runs on, so the tests can drive ``_pair``,
``_relabel_rectify``, ``_rect_labels`` and ``_label`` with a
``Labeling`` and compare with the oracles below.

``oracle_label_pairing``, ``oracle_relabel_rectify``,
``oracle_rect_labeling`` and ``oracle_labeling_with_reason`` are the
labelling operators as they were on ``Labeling`` objects, a new
``Labeling`` per step, before ``kohnert.labeling`` moved them onto the
column form; ``oracle_relabel_rectify`` moves its cells with
``oracle_rectify_column``, and ``oracle_component_key`` is
``_component_key`` built on them.  ``oracle_yamanouchi_diagrams`` and
``oracle_quasi_yamanouchi_diagrams`` scan every member of a closure
with the Yamanouchi and quasi-Yamanouchi tests, the references that
``demazure_expansion`` and ``slide_expansion`` are held to.

``super_standard`` labels each cell by its row, the labeling a diagram
gets with respect to itself.  ``is_kohnert_tableau`` is the Kohnert
tableau test of Assaf and Searles (arXiv:1711.09498), which the
rectified labelings of a closure's members must pass.
"""

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from kohnert.compositions import (check_composition, compositions_of, flatten,
                                  pad, strip_trailing_zeros)
from kohnert.crystal import CrystalGraph
from kohnert.diagrams import (Cell, Diagram, GridParseError, column_weights,
                              composition_diagram, grid_rows,
                              is_composition_diagram, is_southwest, weight)
from kohnert.labeling import (_component_key, _quasi_yamanouchi_core,
                              _yamanouchi_core)
from kohnert.moves import DEFAULT_MAX_DIAGRAMS, ResourceBoundError, generate_kd
from kohnert.perms import Permutation, sort_and_minimal_perm
from kohnert.polynomials import IntPolynomial, monomial_generating
from kohnert.tableaux import (Tableau, TableauCrystal, highest_weight_tableau,
                              ssyt_lower)

EMPTY = Diagram(frozenset())


def kohnert_move(diagram: Diagram, r: int) -> Diagram | None:
    """Drop the rightmost cell of row r to the first empty spot below it.

    Returns None when row r is empty or the cell has nowhere to go.
    """
    cols = diagram.row(r)
    if not cols:
        return None
    c = cols[-1]
    occupied = set(diagram.col(c))
    for dst in range(r - 1, 0, -1):
        if dst not in occupied:
            return diagram.move_cell((c, r), (c, dst))
    return None


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


def oracle_is_southwest(diagram: Diagram) -> bool:
    """Whenever (c1, r2) and (c2, r1) are cells with c1 < c2 and r1 < r2,
    the corner (c1, r1) must also be a cell: every pair of columns."""
    by_col = diagram.by_col
    for c1, rows1 in by_col.items():
        for c2, rows2 in by_col.items():
            if c1 >= c2:
                continue
            have1 = set(rows1)
            for r2 in rows1:
                for r1 in rows2:
                    if r1 < r2 and r1 not in have1:
                        return False
    return True


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def act(w: Permutation, a) -> tuple[int, ...]:
    """Rearrange a by w: result_i = a_{w(i)}."""
    a = tuple(a)
    if len(w) != len(a):
        raise ValueError("length mismatch")
    return tuple(a[w[i] - 1] for i in range(len(w)))


def is_ssyt(t: Tableau, n: int | None = None) -> bool:
    """Partition shape, rows weakly increase, columns strictly increase."""
    shape = t.shape
    if any(k == 0 for k in shape) or list(shape) != sorted(shape, reverse=True):
        return False
    for c, r, v in t.cells():
        if v < 1 or (n is not None and v > n):
            return False
        if c > 1 and t.entry(c - 1, r) > v:
            return False
        if r > 1 and t.entry(c, r - 1) >= v:
            return False
    return True


def enumerate_ssyt(lam, n: int) -> list[Tableau]:
    """All SSYT of shape lam with entries at most n, by filtered search."""
    lam = strip_trailing_zeros(tuple(lam))
    if list(lam) != sorted(lam, reverse=True):
        raise ValueError("shape must be a partition")
    results = []
    for values in product(range(1, n + 1), repeat=sum(lam)):
        rows = []
        pos = 0
        for k in lam:
            rows.append(tuple(values[pos:pos + k]))
            pos += k
        t = Tableau(tuple(rows))
        if is_ssyt(t, n):
            results.append(t)
    return sorted(results)


def build_crystal(lam, n: int) -> TableauCrystal:
    """The full crystal on SSYT_n(lam): closure of u_lam under lowering."""
    top = highest_weight_tableau(lam)
    if len(top.rows) > n:
        raise ValueError("shape has more rows than allowed entries")
    elements = {top}
    edges = []
    frontier = [top]
    while frontier:
        t = frontier.pop()
        for i in range(1, n):
            u = ssyt_lower(t, i)
            if u is None:
                continue
            edges.append((t, i, u))
            if u not in elements:
                elements.add(u)
                frontier.append(u)
    return TableauCrystal(n=n, elements=tuple(sorted(elements)),
                          edges=frozenset(edges), highest=top)


def character(elements, n: int) -> IntPolynomial:
    """Sum of x^weight over tableaux or diagrams."""
    weights = [weight(x, n) if isinstance(x, Diagram) else x.weight(n)
               for x in elements]
    return monomial_generating(weights, n)


@dataclass(frozen=True)
class Labeling:
    """A positive integer label on every cell of a base diagram."""

    base: Diagram
    labels: tuple[tuple[Cell, int], ...]

    def __post_init__(self):
        items = tuple(sorted(self.labels))
        object.__setattr__(self, "labels", items)
        if len(items) != len(self.base) or \
                {cell for cell, _ in items} != set(self.base.cells):
            raise ValueError("labels must cover the base diagram exactly")
        if any(v < 1 for _, v in items):
            raise ValueError("labels must be positive")

    @staticmethod
    def of(base: Diagram, mapping) -> "Labeling":
        return Labeling(base, tuple(dict(mapping).items()))

    @cached_property
    def label_map(self) -> dict[Cell, int]:
        return dict(self.labels)

    def label(self, cell: Cell) -> int:
        return self.label_map[cell]

    def is_strict(self) -> bool:
        """Distinct labels within every column."""
        for c in range(1, self.base.max_col + 1):
            col = [self.label((c, r)) for r in self.base.col(c)]
            if len(set(col)) != len(col):
                return False
        return True

    @staticmethod
    def from_grid(text: str) -> "Labeling":
        """Parse the labeled grid format: digits 1-9 or bracketed labels
        like '[12]' for cells, '.' for gaps; see ``grid_rows``."""
        cells: dict[Cell, int] = {}
        for idx, r, line in grid_rows(text):
            col = 0
            i = 0
            while i < len(line):
                ch = line[i]
                col += 1
                if ch == ".":
                    i += 1
                elif ch.isdigit() and ch != "0":
                    cells[(col, r)] = int(ch)
                    i += 1
                elif ch == "[":
                    end = line.find("]", i)
                    body = line[i + 1:end]
                    if end < 0 or not body.isdigit() or int(body) < 1:
                        raise GridParseError(
                            f"line {idx}, column {col}: bad bracketed label")
                    cells[(col, r)] = int(body)
                    i = end + 1
                else:
                    raise GridParseError(
                        f"line {idx}, column {col}: unexpected character {ch!r}")
        return Labeling.of(Diagram.of(*cells), cells)


def is_flagged(lab: Labeling) -> bool:
    """Every label at least its row index."""
    return all(v >= r for (_, r), v in lab.labels)


def _columns_of(lab: Labeling, width: int = 0) -> list[dict[int, int]]:
    """The column form of a labeling: column c's rows and labels at index
    c - 1, padded with empty columns out to ``width``."""
    cols: list[dict[int, int]] = [{} for _ in range(max(lab.base.max_col, width))]
    for (c, r), v in lab.labels:
        cols[c - 1][r] = v
    return cols


def _labeling_of(cols: list[dict[int, int]]) -> Labeling:
    """The labeling with the rows and labels of a column form."""
    labels = {(k + 1, r): v for k, col in enumerate(cols) for r, v in col.items()}
    return Labeling.of(Diagram(frozenset(labels)), labels)


def super_standard(d: Diagram) -> Labeling:
    """Label r on every cell of row r."""
    return Labeling.of(d, {(c, r): r for c, r in d})


def is_kohnert_tableau(lab: Labeling, a) -> bool:
    """Content-a Kohnert tableau test.

    One label i in each column 1..a_i, labels at least their row, each
    label's cells weakly descending left to right, and every inverted
    pair within a column excused by a matching label up and to the right.
    """
    check_composition(a)
    by_label: dict[int, dict[int, int]] = {}
    for (c, r), v in lab.labels:
        cols = by_label.setdefault(v, {})
        if c in cols or v > len(a):
            return False
        cols[c] = r
    for i in range(1, len(a) + 1):
        cols = by_label.get(i, {})
        if sorted(cols) != list(range(1, a[i - 1] + 1)):
            return False
        rows = [cols[c] for c in sorted(cols)]
        if any(rows[k] < rows[k + 1] for k in range(len(rows) - 1)):
            return False
    if not is_flagged(lab):
        return False
    for c in range(1, lab.base.max_col + 1):
        col_rows = sorted(lab.base.col(c))
        for r_lo in col_rows:
            for r_hi in col_rows:
                if r_hi > r_lo and lab.label((c, r_hi)) < lab.label((c, r_lo)):
                    nxt = by_label[lab.label((c, r_hi))].get(c + 1)
                    if nxt is None or nxt <= r_lo:
                        return False
    return True


def oracle_label_pairing(lab: Labeling, c: int) -> tuple[dict[Cell, Cell], list[Cell]]:
    """Pair the column-(c+1) cells of a Labeling top to bottom, each
    with the available column-c cell weakly above it carrying the largest
    label weakly below its own, ties toward the lower cell."""
    if c < 1:
        raise ValueError("column index must be >= 1")
    t = lab.base
    avail = set(t.col(c))
    partner = {}
    unpaired = []
    for r in sorted(t.col(c + 1), reverse=True):
        x = (c + 1, r)
        lx = lab.label(x)
        cands = [(lab.label((c, s)), -s, s) for s in avail
                 if s >= r and lab.label((c, s)) <= lx]
        if cands:
            s = max(cands)[2]
            avail.discard(s)
            partner[x] = (c, s)
        else:
            unpaired.append(x)
    return partner, unpaired


def oracle_relabel_rectify(lab: Labeling, c: int) -> Labeling:
    """Rectify column c+1 into column c of a Labeling: upward label trades
    of the unpaired cells, partner labels for the paired ones, then
    oracle_rectify_column moves the cells and each carries its new label."""
    partner, unpaired = oracle_label_pairing(lab, c)
    new = dict(lab.label_map)
    for x in unpaired:
        while True:
            cands = [z for z, y in partner.items()
                     if z[1] > x[1] and lab.label(y) <= new[x] < new[z]]
            if not cands:
                break
            z = max(cands, key=lambda cell: (new[cell], cell[1]))
            new[x], new[z] = new[z], new[x]
    for z, y in partner.items():
        new[z] = lab.label(y)
    moved = oracle_rectify_column(lab.base, c)
    carried = {cell: new[cell] if cell in lab.base else new[(c + 1, cell[1])]
               for cell in moved}
    return Labeling.of(moved, carried)


def oracle_rect_labeling(lab: Labeling) -> Labeling:
    """Right-to-left sweeps of oracle_relabel_rectify until a sweep leaves
    the Labeling equal."""
    for _ in range(4 + len(lab.base) * max(lab.base.max_col, 1)):
        before = lab
        for c in range(lab.base.max_col - 1, 0, -1):
            lab = oracle_relabel_rectify(lab, c)
        if lab == before:
            return lab
    raise ValueError("labeling failed to stabilise under rectification")


def oracle_labeling_with_reason(t: Diagram, d: Diagram) -> tuple[Labeling | None, str | None]:
    """labeling_with_reason as a Labeling: each column's labels anchored on
    the oracle_rect_labeling of the part already labeled to its right."""
    n = max(t.max_col, d.max_col)
    if n and column_weights(t, n) != column_weights(d, n):
        raise ValueError("diagrams must have equal column weights")
    assigned: dict[Cell, int] = {}
    for c in range(t.max_col, 0, -1):
        right = [(cc, r) for cc, r in t if cc > c]
        anchor: dict[int, int] = {}
        if right:
            part = {(cc - c, r): assigned[(cc, r)] for cc, r in right}
            rlab = oracle_rect_labeling(Labeling.of(Diagram.of(*part), part))
            anchor = {rlab.label((1, r)): r for r in rlab.base.col(1)}
        avail = sorted(t.col(c))
        for r in sorted(d.col(c)):
            floor = anchor.get(r)
            cands = [s for s in avail if floor is None or s >= floor]
            if not cands:
                return None, f"label {r} has no admissible cell in column {c}"
            avail.remove(cands[0])
            assigned[(c, cands[0])] = r
    return Labeling.of(t, assigned), None


def oracle_component_key(u: Diagram, d: Diagram):
    """_component_key through the oracle labeling and rectification, with
    the same checks and messages."""
    lab, _ = oracle_labeling_with_reason(u, d)
    if lab is None or not is_flagged(lab):
        raise ValueError("component contains a non-member")
    rl = oracle_rect_labeling(lab)
    if not rl.is_strict():
        raise ValueError("labeling diagram requires a strict labeling")
    label_dgm = Diagram.of(*((c, v) for (c, _), v in rl.labels))
    if not is_composition_diagram(label_dgm):
        raise AssertionError("rectified labels are not a composition diagram")
    return weight(label_dgm)


def oracle_yamanouchi_diagrams(d: Diagram) -> list[Diagram]:
    """The Yamanouchi members of the closure of d, sorted: a scan of every
    member."""
    if not is_southwest(d):
        raise ValueError("Yamanouchi analysis requires a southwest diagram")
    return [t for t in generate_kd(d).members if _yamanouchi_core(t, d)]


def oracle_quasi_yamanouchi_diagrams(d: Diagram) -> list[Diagram]:
    """The quasi-Yamanouchi members of the closure of d, sorted: a scan of
    every member."""
    if not is_southwest(d):
        raise ValueError("slide analysis requires a southwest diagram")
    return [t for t in generate_kd(d).members if _quasi_yamanouchi_core(t, d)]


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


def oracle_raising(diagram: Diagram, i: int) -> Diagram | None:
    """Drop the rightmost unpaired row-(i+1) cell into row i, or None."""
    pairing = row_pairing(diagram, i)
    if not pairing.unpaired_high:
        return None
    c, _ = pairing.unpaired_high[-1]
    return diagram.move_cell((c, i + 1), (c, i))


def oracle_rectify_step(diagram: Diagram, c: int) -> Diagram:
    """Move the lowest unpaired column-(c+1) cell left, or return unchanged."""
    pairing = column_pairing(diagram, c)
    if not pairing.unpaired_right:
        return diagram
    _, r = pairing.unpaired_right[0]
    return diagram.move_cell((c + 1, r), (c, r))



def oracle_rectify_column(diagram: Diagram, c: int) -> Diagram:
    """Apply oracle_rectify_step at column c until it stops moving cells."""
    while True:
        nxt = oracle_rectify_step(diagram, c)
        if nxt == diagram:
            return diagram
        diagram = nxt


def oracle_is_rectified(diagram: Diagram) -> bool:
    """Every column must dominate the next one from each height upward."""
    for c in range(1, diagram.max_col):
        left = diagram.col(c)
        right = diagram.col(c + 1)
        for r in right:
            if sum(1 for s in left if s >= r) < sum(1 for s in right if s >= r):
                return False
    return True


def oracle_rectify(diagram: Diagram) -> Diagram:
    """Right-to-left sweeps of oracle_rectify_column until oracle_is_rectified."""
    while not oracle_is_rectified(diagram):
        for c in range(diagram.max_col - 1, 0, -1):
            diagram = oracle_rectify_column(diagram, c)
    return diagram


def oracle_crystal_graph(kset) -> CrystalGraph:
    """The raising graph of a southwest closure from oracle_raising, its
    components ordered by (size, least member), each with its one member
    that no operator raises."""
    members = kset.members
    max_index = max(kset.source.max_row - 1, 0)
    edges = frozenset((t, i, u) for t in members for i in range(1, max_index + 1)
                      if (u := oracle_raising(t, i)) is not None)
    neighbours = {t: set() for t in members}
    for t, _, u in edges:
        neighbours[t].add(u)
        neighbours[u].add(t)
    components = []
    left = set(members)
    while left:
        comp = {min(left)}
        frontier = list(comp)
        while frontier:
            fresh = neighbours[frontier.pop()] - comp
            comp |= fresh
            frontier.extend(fresh)
        left -= comp
        components.append(frozenset(comp))
    components.sort(key=lambda comp: (len(comp), min(comp)))
    has_out = {t for t, _, _ in edges}
    highest = []
    for comp in components:
        (top,) = [t for t in comp if t not in has_out]
        highest.append(top)
    return CrystalGraph(source=kset.source, members=members, max_index=max_index,
                        edges=edges, components=tuple(components),
                        highest=tuple(highest))


def oracle_component_demazure_data(component, d: Diagram):
    """(lam, w, a) for one crystal component, with the same checks and
    messages as component_demazure_data, all on diagrams."""
    if not is_southwest(d):
        raise ValueError("component data requires a southwest diagram")
    comp = set(component)
    if not comp:
        raise ValueError("component is empty")
    top_row = max(t.max_row for t in comp)
    tops = [t for t in comp
            if all(oracle_raising(t, i) is None for i in range(1, top_row + 1))]
    if len(tops) != 1:
        raise ValueError("not a single crystal component")
    u = tops[0]
    a = _component_key(u, d)
    lam, w = sort_and_minimal_perm(a)
    if weight(u, len(a)) != lam:
        raise AssertionError("highest weight does not match the sorted labels")
    rect_image = {oracle_rectify(t) for t in comp}
    if len(rect_image) != len(comp):
        raise AssertionError("rectification is not injective on the component")
    if rect_image != set(oracle_generate_kd(composition_diagram(a)).members):
        raise AssertionError("rectified component misses the composition closure")
    return lam, w, a

def _tableau_unpaired(t: Tableau, opener: int, closer: int):
    """Unmatched cells holding ``opener`` and ``closer``, sorted by column,
    after same-column pairs; each closer seeks an opener to its left."""
    open_cells = t.positions_of(opener)
    close_cells = t.positions_of(closer)
    common = {c for c, _ in open_cells} & {c for c, _ in close_cells}
    _, open_rest, close_rest = _bracket(
        [(c, (c, r)) for c, r in open_cells if c not in common],
        [(c, (c, r)) for c, r in close_cells if c not in common])
    return sorted(open_rest), sorted(close_rest)


def oracle_ssyt_lower(t: Tableau, i: int) -> Tableau | None:
    """Change the rightmost unpaired i to i+1, or None if there is none."""
    _, unpaired_low = _tableau_unpaired(t, i + 1, i)
    if not unpaired_low:
        return None
    c, r = unpaired_low[-1]
    return t.replace(c, r, i + 1)


def oracle_ssyt_raise(t: Tableau, i: int) -> Tableau | None:
    """Change the leftmost unpaired i+1 to i, or None if there is none."""
    unpaired_high, _ = _tableau_unpaired(t, i + 1, i)
    if not unpaired_high:
        return None
    c, r = unpaired_high[0]
    return t.replace(c, r, i)


def oracle_sskt_raise(t: Tableau, i: int) -> Tableau | None:
    """The key tableau raising operator: the rightmost unpaired i+1
    becomes i, then the swaps to its left as in ``sskt_raise``."""
    _, unpaired = _tableau_unpaired(t, i, i + 1)
    if not unpaired:
        return None
    c0, r0 = unpaired[-1]
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
