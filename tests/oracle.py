"""Reference code the tests hold the package to.

``kohnert_move`` is one Kohnert move on a whole diagram, and
``oracle_generate_kd`` is the breadth-first search over ``Diagram``
objects that the packed search in ``kohnert.moves`` replaced.  It
applies ``kohnert_move`` and records every edge it walks, so the
differential tests can hold the packed engine to the same members,
edges, polynomial and budget boundary.  ``oracle_kd_to_json`` and
``oracle_kd_to_dot`` print its ``OracleSet`` by looking each ``Diagram``
up, as ``kd_to_json`` and ``kd_to_dot`` did before they rendered
members straight from their packed states.

``word_to_permutation`` recomposes a word of simple transpositions, so
the tests can check ``reduced_word``.  ``reduced_word_last`` peels the
largest left descent first where ``reduced_word`` peels the smallest, so
the tests can check that the constructions built on a reduced word do
not depend on which one.

``reverse_kohnert_moves`` enumerates the sources of a Kohnert move by
lifting cells, so the tests can check ``kohnert_move`` from the other
side.  ``crystal_components_json`` summarises each crystal component
(size, partition, highest weight diagram) as JSON.

``oracle_fundamental_slide`` is the filter over every weak composition
of |a| that the direct construction in ``kohnert.polynomials`` replaced,
with the refinement and dominance orders it filters by.
``oracle_expand_in_basis`` peels basis elements off a polynomial with a
scan of every surviving monomial per term, the loop that the heap in
``kohnert.polynomials.expand_in_basis`` replaced.

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
``oracle_commute_case`` is the ``commute`` sweep's case on whole
diagrams with ``oracle_raising`` and ``oracle_rectify_step``, the case
that ``kohnert.verify`` replaced with single steps on one packed state.
``oracle_crystal_graph`` builds the raising graph of a closure from
``oracle_raising`` on whole diagrams, and
``oracle_component_demazure_data`` is ``component_demazure_data`` as it
was on diagrams, raising every member to find the top and comparing
the rectified members with the diagram-level closure of D(a), the
route that the packed row and column masks in ``kohnert.crystal``
replaced.  ``oracle_crystal_to_dot`` prints a ``CrystalGraph`` as DOT,
looking each ``Diagram`` up and sorting the edges, as
``crystal_to_dot`` did before it read ``_crystal``'s positions.

``EMPTY`` is the diagram with no cells, for the edge-case tests.
``variable``, ``poly_scale``, ``poly_sub``, ``poly_mul`` and
``swap_vars`` are the ring operations on ``IntPolynomial`` that only
tests use: the ring laws, the definition of the divided difference and
the symmetric polynomials that the Demazure operator fixes are stated
with them.  ``oracle_pi_op`` is the Demazure operator as the divided
difference of the product x_i * f, the route that the one pass over the
terms of f in ``kohnert.polynomials.pi_op`` replaced.
``monomial_generating`` sums x^weight over a multiset of weights, the
polynomial a closure is compared with, and ``column_weights`` counts the
cells per column, the precondition of ``oracle_labeling_with_reason``.
``identity``, ``inverse``, ``act`` and ``length`` (the inversion
count) are the permutation basics the tests of ``compose``,
``reduced_word``, ``lehmer_code`` and ``sort_and_minimal_perm`` are
stated with.

``by_row`` and ``row`` read a diagram's occupied columns row by row,
``to_grid`` renders a diagram with ``render_grid``, and
``is_composition_diagram`` tests that every row is left-justified: the
``Diagram`` views and tests that only tests used, moved out of the
package.  ``oracle_is_vexillary_diagram`` is the row-chain test on row
sets that ``kohnert.labeling.is_vexillary_diagram``, on column masks,
replaced.

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
``_relabel_rectify`` and ``_label`` with a ``Labeling`` and compare with
the oracles below; ``_label`` itself takes a diagram's column masks,
from ``kohnert.diagrams._columns``.

``_pair`` and ``_relabel_rectify`` are the column-pair operators as
``kohnert.labeling`` had them before it accepted only southwest sources:
label ties break toward the lower row (``_pair``) and the higher row
(the trade loop), and the cells that move are the ones the unlabeled
bracket rule ``kohnert.crystal._lone`` leaves lone, not the ones
``_pair`` leaves unpaired.  They define rectification on any labelling;
the tests hold the production operators to them on every call the
labeller makes.  ``oracle_yamanouchi_core`` is the Yamanouchi test as it
was, which also asks the rows of each column to hold the next column's.
``_rect_labels`` rectifies a column form by right-to-left sweeps of
``_relabel_rectify`` to a joint fixpoint of cells and labels, and
``_label_by_sweeps`` is the labeller built on it, which rectifies a fresh
copy of the labelled part right of each column from scratch: the two
that ``kohnert.labeling._label``, which walks each new column onto the
rectified part it holds, replaced.  ``oracle_walk`` is that walk as it
was, stepping back one pair after each pair that changes, the walk that
the single forward pass of ``kohnert.labeling._walk`` replaced.  ``_column_weight_candidates`` lists
every diagram of a box with d's column weights, and
``oracle_membership_case`` labels each one with ``membership`` and looks
it up in the closure's member set: the ``membership`` sweep's case as it
was before ``kohnert.verify`` searched the candidates by column masks.
``_label_diagram`` is the diagram with a cell (c, v) for each label v in
column c; ``_component_key`` reads the weight of that diagram off the
label masks.

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
from itertools import combinations, product

from kohnert.compositions import (check_composition, compositions_of, flatten,
                                  pad, strip_trailing_zeros)
from kohnert.crystal import _EDGE_COLORS, CrystalGraph, _lone
from kohnert.diagrams import (Cell, Diagram, GridParseError, _columns,
                              composition_diagram, grid_rows, is_southwest,
                              render_grid, weight)
from kohnert.labeling import (Columns, _label, _mask, _quasi_yamanouchi_core,
                              _rectified_labels, membership)
from kohnert.moves import DEFAULT_MAX_DIAGRAMS, ResourceBoundError, generate_kd
from kohnert.perms import Permutation, sort_and_minimal_perm
from kohnert.polynomials import (_BASES, ExpansionError, IntPolynomial,
                                 divided_difference)
from kohnert.tableaux import (Tableau, TableauCrystal, highest_weight_tableau,
                              ssyt_lower)

EMPTY = Diagram(frozenset())


def variable(i: int, n: int) -> IntPolynomial:
    """x_i as a polynomial in n variables."""
    return IntPolynomial(n, {tuple(int(j == i) for j in range(1, n + 1)): 1})


def poly_scale(f: IntPolynomial, k: int) -> IntPolynomial:
    return IntPolynomial(f.n, {e: k * c for e, c in f.terms.items()})


def poly_sub(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    return f + poly_scale(g, -1)


def poly_mul(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """The product, multiplying every pair of terms."""
    if f.n != g.n:
        raise ValueError("variable count mismatch")
    terms: dict[tuple[int, ...], int] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return IntPolynomial(f.n, terms)


def oracle_pi_op(f: IntPolynomial, i: int) -> IntPolynomial:
    """The Demazure operator as it is defined: the divided difference of
    x_i * f, with the product built first."""
    return divided_difference(poly_mul(variable(i, f.n), f), i)


def swap_vars(f: IntPolynomial, i: int) -> IntPolynomial:
    """Apply the substitution exchanging x_i and x_{i+1}."""
    if not 1 <= i < f.n:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={f.n}")
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        s = list(e)
        s[i - 1], s[i] = s[i], s[i - 1]
        key = tuple(s)
        out[key] = out.get(key, 0) + c
    return IntPolynomial(f.n, out)


def monomial_generating(weights, n: int) -> IntPolynomial:
    """Sum of x^wt over a multiset of weights, padded to n variables."""
    terms: dict[tuple[int, ...], int] = {}
    for wt in weights:
        e = pad(tuple(wt), n)
        terms[e] = terms.get(e, 0) + 1
    return IntPolynomial(n, terms)


def column_weights(diagram: Diagram, n: int | None = None) -> tuple[int, ...]:
    """Cells per column, from column 1 out to column n."""
    if n is None:
        n = diagram.max_col
    elif n < diagram.max_col:
        raise ValueError(f"diagram has cells beyond column {n}")
    return tuple(len(diagram.col(c)) for c in range(1, n + 1))


def by_row(diagram: Diagram) -> dict[int, tuple[int, ...]]:
    """Occupied columns of each nonempty row, sorted, rows ascending."""
    rows: dict[int, list[int]] = {}
    for c, r in diagram.cells:
        rows.setdefault(r, []).append(c)
    return {r: tuple(sorted(cs)) for r, cs in sorted(rows.items())}


def row(diagram: Diagram, r: int) -> tuple[int, ...]:
    """Occupied columns of row r, sorted."""
    return tuple(sorted(c for c, s in diagram.cells if s == r))


def to_grid(diagram: Diagram) -> str:
    """The diagram as ``render_grid`` text, every cell printing as 'O'."""
    return render_grid(dict.fromkeys(diagram.cells, "O"))


def is_composition_diagram(diagram: Diagram) -> bool:
    """Every row is left-justified: columns 1 up to its size."""
    return all(cols == tuple(range(1, len(cols) + 1)) for cols in by_row(diagram).values())


def oracle_is_vexillary_diagram(diagram: Diagram) -> bool:
    """Rows, as sets of occupied columns, form a chain under inclusion."""
    rows = [set(row(diagram, r)) for r in range(1, diagram.max_row + 1) if row(diagram, r)]
    rows.sort(key=len)
    return all(rows[i] <= rows[i + 1] for i in range(len(rows) - 1))


def kohnert_move(diagram: Diagram, r: int) -> Diagram | None:
    """Drop the rightmost cell of row r to the first empty spot below it.

    Returns None when row r is empty or the cell has nowhere to go.
    """
    cols = row(diagram, r)
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
        for r in by_row(current):
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
                     members=tuple(sorted(seen, key=lambda t: t.sorted_cells)),
                     edges=frozenset(edges))


def _dot_label(t: Diagram) -> str:
    """The grid as a left-justified DOT label; '(empty)' for no cells."""
    return (to_grid(t) or "(empty)").replace("\n", "\\l") + "\\l"


def oracle_kd_to_json(kset: OracleSet) -> str:
    index = {t: i for i, t in enumerate(kset.members)}
    edges = sorted((index[s], index[t], r) for s, t, r in kset.edges)
    return json.dumps({
        "source": index[kset.source],
        "count": len(kset.members),
        "members": [sorted(map(list, t.cells)) for t in kset.members],
        "edges": [list(e) for e in edges],
    })


def oracle_kd_to_dot(kset: OracleSet) -> str:
    index = {t: i for i, t in enumerate(kset.members)}
    lines = ["digraph kohnert_moves {",
             '  node [shape=box fontname="monospace"];']
    for i, t in enumerate(kset.members):
        lines.append(f'  n{i} [label="{_dot_label(t)}"];')
    for s, t, r in sorted(kset.edges, key=lambda e: (index[e[0]], index[e[1]], e[2])):
        lines.append(f"  n{index[s]} -> n{index[t]} [row={r}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def word_to_permutation(word, n: int) -> Permutation:
    """Recompose a word from reduced_word back into a permutation."""
    w = list(identity(n))
    for i in word:
        if not 1 <= i < n:
            raise ValueError(f"letter {i} out of range for S_{n}")
        # composing with s_i on the right swaps positions i and i+1
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def reduced_word_last(w: Permutation) -> tuple[int, ...]:
    """The reduced word of w, in operator application order, that peels
    the largest left descent first."""
    w, word = list(w), []
    while True:
        pos = {v: k for k, v in enumerate(w)}
        descents = [i for i in range(1, len(w)) if pos[i + 1] < pos[i]]
        if not descents:
            return tuple(word)
        i = descents[-1]
        word.append(i)
        w = [i + 1 if v == i else i if v == i + 1 else v for v in w]


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


def oracle_expand_in_basis(f: IntPolynomial, basis: str) -> dict[tuple[int, ...], int]:
    """Expand f in the key or slide basis by stripping, term by term, the
    basis element of the surviving monomial largest in reversed exponents."""
    gen = _BASES[basis]
    rest = dict(f.terms)
    out: dict[tuple[int, ...], int] = {}
    while rest:
        a = max(rest, key=lambda e: e[::-1])
        coef = rest[a]
        if coef < 0:
            raise ExpansionError("not nonnegative in this basis")
        out[a] = coef
        for e, c in gen(a, f.n).terms.items():
            left = rest.get(e, 0) - coef * c
            if left:
                rest[e] = left
            else:
                del rest[e]
        if a in rest:
            raise ExpansionError(f"basis element {a} does not cancel "
                                 f"its own leading monomial")
    return out


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


def length(w: Permutation) -> int:
    """Number of inversions."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


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
    """The full crystal on SSYT_n(lam) as a set: the closure of u_lam
    under lowering."""
    top = highest_weight_tableau(lam)
    if len(top.rows) > n:
        raise ValueError("shape has more rows than allowed entries")
    elements = {top}
    frontier = [top]
    while frontier:
        t = frontier.pop()
        for i in range(1, n):
            u = ssyt_lower(t, i)
            if u is not None and u not in elements:
                elements.add(u)
                frontier.append(u)
    return TableauCrystal(elements=tuple(sorted(elements)), highest=top)


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
    carried = {cell: new[cell] if cell in lab.base.cells else new[(c + 1, cell[1])]
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
    """_component_key of the diagram u through the oracle labeling and
    rectification, with the same checks and messages; like the public
    entry points, and unlike _component_key, it refuses unequal column
    weights."""
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


def _label_diagram(cols: Columns) -> Diagram:
    """The diagram with a cell (c, r) when column c carries label r."""
    cells = frozenset((k + 1, v) for k, col in enumerate(cols) for v in col.values())
    if len(cells) != sum(map(len, cols)):
        raise ValueError("labeling diagram requires a strict labeling")
    return Diagram(cells)


def _pair(left: dict[int, int], right: dict[int, int]) -> tuple[dict[int, int], list[int]]:
    """Pair the rows of a right column, top to bottom, each with the
    available left row weakly above it carrying the largest label that
    stays weakly below its own; label ties break toward the lower row.
    Returns each paired row's partner row, and the unpaired rows top down."""
    avail = dict(left)
    partner = {}
    unpaired = []
    for r in sorted(right, reverse=True):
        lx = right[r]
        best = 0
        top = 0
        for s, ls in avail.items():
            if s >= r and ls <= lx and (ls > top or ls == top and s < best):
                best, top = s, ls
        if best:
            partner[r] = best
            del avail[best]
        else:
            unpaired.append(r)
    return partner, unpaired


def _relabel_rectify(cols: Columns, k: int) -> bool:
    """Rectify the column at index k+1 of a column form into the one at
    index k, re-labeling first, in place; says whether anything changed.

    Unpaired cells repeatedly trade labels upward with paired cells
    whose partner's label fits below their own; then every paired cell
    adopts its partner's original label; then the cells the unlabeled
    bracket rule ``_lone`` leaves unpaired slide left carrying their
    new labels.
    """
    left, right = cols[k], cols[k + 1]
    # each right cell beside a left cell of its label pairs with it, keeps
    # its label and stays: nothing changes (an empty column included)
    if right.items() <= left.items():
        return False
    partner, unpaired = _pair(left, right)
    new = dict(right)
    for x in unpaired:
        while True:
            z = 0
            for y in partner:
                if y > x and left[partner[y]] <= new[x] < new[y] and \
                        (not z or new[y] > new[z] or new[y] == new[z] and y > z):
                    z = y
            if not z:
                break
            new[x], new[z] = new[z], new[x]
    for z, y in partner.items():
        new[z] = left[y]
    lone = _lone(_mask(left), _mask(right))
    while lone:
        bit = lone & -lone
        lone ^= bit
        r = bit.bit_length() - 1
        left[r] = new.pop(r)
    changed = new != right
    cols[k + 1] = new
    return changed


def oracle_yamanouchi_core(rl: Columns) -> bool:
    """Whether ``rl``, the rectified labeling (``_rectified_labels``) of a
    member of a closure, is super-standard on a composition diagram; such
    members index the Demazure expansion."""
    return all(v == r for col in rl for r, v in col.items()) and \
        all(rl[k + 1].keys() <= rl[k].keys() for k in range(len(rl) - 1))


def _rect_labels(cols: Columns) -> Columns:
    """Fully rectify a column form in place by right-to-left column
    sweeps, and return it.  The re-labeling phases can rewrite labels
    even after the cells stop moving, so sweeps continue to a joint
    fixpoint of cells and labels."""
    for _ in range(4 + sum(map(len, cols)) * max(len(cols), 1)):
        changed = False
        for k in range(len(cols) - 2, -1, -1):
            changed |= _relabel_rectify(cols, k)
        if not changed:
            return cols
    raise ValueError("labeling failed to stabilise under rectification")


def oracle_walk(col: dict[int, int], rect: Columns) -> Columns:
    """The rectification of ``[col, *rect]`` for a rectified ``rect``, whose
    columns it rewrites: one walk left to right over the column pairs.
    After a pair changes the walk steps back one pair (pair 0 re-runs),
    since re-labeling can go on after the cells stop moving; it stops
    once it has passed the last column that changed."""
    cols = [col, *rect]
    k = last = 0
    for _ in range((4 + sum(map(len, cols)) * len(cols)) * len(cols)):
        if k > last or k + 1 == len(cols):
            return cols
        if _relabel_rectify(cols, k):
            last = max(last, k + 1)
            k = max(k - 1, 0)
        else:
            k += 1
    raise ValueError("labeling failed to stabilise under rectification")


def _label_by_sweeps(cols: list[int], d: Diagram) -> tuple[Columns | None, str | None]:
    """``labeling_with_reason`` in column form, for column masks ``cols``
    (``diagrams._columns``, ``moves._fields``); moves keep column weights,
    so only the public entry points, given diagrams from outside, check them."""
    width = len(cols)
    assigned: Columns = [{} for _ in range(width)]
    for k in range(width - 1, -1, -1):
        anchor: dict[int, int] = {}
        if k + 1 < width:
            first = _rect_labels([dict(col) for col in assigned[k + 1:]])[0]
            anchor = {v: r for r, v in sorted(first.items())}
        avail = [s for s in range(cols[k].bit_length()) if cols[k] >> s & 1]
        for r in d.col(k + 1):
            floor = anchor.get(r, 0)
            for s in avail:
                if s >= floor:
                    break
            else:
                return None, f"label {r} has no admissible cell in column {k + 1}"
            avail.remove(s)
            assigned[k][s] = r
    return assigned, None


def _column_weight_candidates(d: Diagram, cols: int, rows: int):
    """All diagrams in the box whose column weights match d's."""
    picks = [combinations(range(1, rows + 1), len(d.col(c))) for c in range(1, cols + 1)]
    for choice in product(*picks):
        yield Diagram(frozenset((c, r) for c, pick in enumerate(choice, start=1)
                                for r in pick))


def oracle_membership_case(cols: int, t_rows: int, d: Diagram) -> tuple[int, list[str]]:
    """``verify._membership_case`` one candidate at a time: ``membership``
    on each candidate diagram against the closure's member set."""
    member_set = generate_kd(d).member_set
    checked = 0
    failures = []
    for t in _column_weight_candidates(d, cols, t_rows):
        checked += 1
        labelled = membership(t, d)
        searched = t in member_set
        if labelled != searched:
            failures.append(f"D={d.sorted_cells}, T={t.sorted_cells}: "
                            f"labeling says {labelled}, search says {searched}")
    return checked, failures


def oracle_yamanouchi_diagrams(d: Diagram) -> list[Diagram]:
    """The Yamanouchi members of the closure of d, sorted: a scan of every
    member."""
    if not is_southwest(d):
        raise ValueError("Yamanouchi analysis requires a southwest diagram")
    return [t for t in generate_kd(d).members
            if oracle_yamanouchi_core(_rectified_labels(*_label(_columns(t), d)[:2]))]


def oracle_quasi_yamanouchi_diagrams(d: Diagram) -> list[Diagram]:
    """The quasi-Yamanouchi members of the closure of d, sorted: a scan of
    every member."""
    if not is_southwest(d):
        raise ValueError("slide analysis requires a southwest diagram")
    return [t for t in generate_kd(d).members
            if _quasi_yamanouchi_core(_label(_columns(t), d)[0])]


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
    low = row(diagram, i)
    high = row(diagram, i + 1)
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


def oracle_commute_case(box: tuple[int, int], t: Diagram) -> tuple[int, list[str]]:
    """``verify._commute_case`` on whole diagrams, with the bracket
    oracles for raising and the rectify step."""
    cols, rows = box
    failures = []
    for r in range(1, rows):
        for c in range(1, cols):
            left = oracle_raising(oracle_rectify_step(t, c), r)
            lifted = oracle_raising(t, r)
            right = None if lifted is None else oracle_rectify_step(lifted, c)
            if (lifted is None) != (left is None) or left != right:
                failures.append(f"T={t.sorted_cells}, r={r}, c={c}")
    return 1, failures


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
    edges = frozenset((t, i, u) for t in members for i in range(1, kset.source.max_row)
                      if (u := oracle_raising(t, i)) is not None)
    neighbours = {t: set() for t in members}
    for t, _, u in edges:
        neighbours[t].add(u)
        neighbours[u].add(t)
    components = []
    left = set(members)
    while left:
        comp = {min(left, key=lambda t: t.sorted_cells)}
        frontier = list(comp)
        while frontier:
            fresh = neighbours[frontier.pop()] - comp
            comp |= fresh
            frontier.extend(fresh)
        left -= comp
        components.append(frozenset(comp))
    components.sort(key=lambda comp: (len(comp), min(t.sorted_cells for t in comp)))
    has_out = {t for t, _, _ in edges}
    highest = []
    for comp in components:
        (top,) = [t for t in comp if t not in has_out]
        highest.append(top)
    return CrystalGraph(source=kset.source, members=members, edges=edges,
                        components=tuple(components), highest=tuple(highest))


def oracle_crystal_to_dot(graph: CrystalGraph, component_labels) -> str:
    index = {t: i for i, t in enumerate(graph.members)}
    lines = ["digraph kohnert_crystal {",
             '  node [shape=box fontname="monospace"];']
    for ci, comp in enumerate(graph.components):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="component {ci}: {component_labels[ci]}";')
        for t in sorted(comp, key=index.__getitem__):
            lines.append(f'    n{index[t]} [label="{_dot_label(t)}"];')
        lines.append("  }")
    for t, i, u in sorted(graph.edges, key=lambda e: (index[e[0]], e[1], index[e[2]])):
        color = _EDGE_COLORS[(i - 1) % len(_EDGE_COLORS)]
        lines.append(f'  n{index[t]} -> n{index[u]} [label="{i}" color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_component_demazure_data(component, d: Diagram):
    """(lam, w, a) for one crystal component, with the same checks and
    messages as component_demazure_data, all on diagrams: the key comes
    from oracle_component_key, which checks the top's column weights."""
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
    a = oracle_component_key(u, d)
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
    open_cells = [(c, r) for c, r, v in t.cells() if v == opener]
    close_cells = [(c, r) for c, r, v in t.cells() if v == closer]
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
