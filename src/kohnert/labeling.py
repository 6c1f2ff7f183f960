"""Diagram labelings and what they decide: the labeling of a diagram
with respect to another, a membership test for move closures that
avoids generating them, and the Demazure and fundamental slide
expansions of Kohnert polynomials.

A labeling attaches a positive integer to every cell.  Rectifying a
labeled diagram re-labels cells column by column before they slide
left, so that the final labels record which row of the source diagram
each cell came from.

The labelling engine works on a column form: a list with one
``{row: label}`` dict per column, column 1 first.  ``_label`` labels a
diagram in that form, ``_pair`` pairs two columns by their labels,
``_relabel_rectify`` re-labels one column pair and moves its cells in
place (by the unlabeled bracket rule ``crystal._lone`` on the two row
masks), and ``_rect_labels`` sweeps to a joint fixpoint.  The key
expansion, the membership test and the Yamanouchi and quasi-Yamanouchi
tests call them directly.  The one public labelling output,
``labeling_with_reason``, hands the labels back as a plain
``{cell: label}`` map, and ``label_grid`` prints such a map.
"""

from __future__ import annotations

from .compositions import Composition, pad
from .crystal import _highest, _lone, _rectified_states, crystal_graph
from .diagrams import (Cell, Diagram, composition_diagram,
                       is_composition_diagram, is_southwest, render_grid,
                       weight)
from .moves import _closure, _max_diagrams, generate_kd, kohnert_polynomial
from .perms import sort_and_minimal_perm
from .polynomials import expand_in_basis


Columns = list[dict[int, int]]


def _mask(col: dict[int, int]) -> int:
    """The row mask of a column: bit r set when row r holds a cell."""
    mask = 0
    for r in col:
        mask |= 1 << r
    return mask


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
    if not right:
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


def _equal_column_weights(t: Diagram, d: Diagram) -> bool:
    return {c: len(rs) for c, rs in t.by_col.items()} == \
        {c: len(rs) for c, rs in d.by_col.items()}


def _label(t: Diagram, d: Diagram) -> tuple[Columns | None, str | None]:
    """``labeling_with_reason`` in column form."""
    if not _equal_column_weights(t, d):
        raise ValueError("diagrams must have equal column weights")
    width = t.max_col                      # labeled first, and never left empty
    assigned: Columns = [{} for _ in range(width)]
    for k in range(width - 1, -1, -1):
        anchor: dict[int, int] = {}
        if k + 1 < width:
            first = _rect_labels([dict(col) for col in assigned[k + 1:]])[0]
            anchor = {v: r for r, v in sorted(first.items())}
        avail = list(t.col(k + 1))
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


def labeling_with_reason(t: Diagram, d: Diagram) -> tuple[dict[Cell, int] | None, str | None]:
    """Label t with respect to d, or explain why no labeling fits.

    Columns are labeled right to left.  The already labeled part right
    of column c is rectified, anchored so its leftmost column is c+1;
    the row indices of column c of d are then assigned smallest first,
    each to the lowest unlabeled column-c cell lying weakly above the
    like-labeled cell of that rectified part, when present.
    """
    cols, reason = _label(t, d)
    if cols is None:
        return None, reason
    return {(k + 1, r): v for k, col in enumerate(cols) for r, v in col.items()}, None


def label_grid(labels: dict[Cell, int]) -> str:
    """The grid of a labeling with labels in place of 'O'; labels past 9
    print bracketed, like '[12]'."""
    return render_grid({cell: str(v) if v <= 9 else f"[{v}]"
                        for cell, v in labels.items()})


def membership(t: Diagram, d: Diagram) -> bool:
    """Whether t lies in the move closure of d, decided by labels alone."""
    return membership_report(t, d)[0]


def membership_report(t: Diagram, d: Diagram) -> tuple[bool, str]:
    """Membership by labels, with the reason a non-member fails.

    A failed labeling and an unflagged labeling both mean non-member,
    but the diagnostics tell them apart.
    """
    if not is_southwest(d):
        raise ValueError("membership test requires a southwest diagram")
    if not _equal_column_weights(t, d):
        return False, "column weights differ"
    cols, reason = _label(t, d)
    if cols is None:
        return False, f"no labeling exists: {reason}"
    for k, col in enumerate(cols):
        for r, v in sorted(col.items()):
            if v < r:
                return False, (f"labeling is not flagged: label {v} below row {r} "
                               f"at column {k + 1}")
    return True, "member"


def _yamanouchi_core(y: Diagram, d: Diagram) -> bool:
    """Whether rectifying the labeling of y, a member of the closure of
    d, lands on a super-standard composition diagram; such members index
    the Demazure expansion."""
    rl = _rect_labels(_label(y, d)[0])
    return all(v == r for col in rl for r, v in col.items()) and \
        all(rl[k + 1].keys() <= rl[k].keys() for k in range(len(rl) - 1))


def _component_key(u: Diagram, d: Diagram) -> Composition:
    """The key index a of the crystal component whose highest member is u:
    the weight of the labeling diagram of u's rectified labeling."""
    cols, _ = _label(u, d)
    if cols is None or any(v < r for col in cols for r, v in col.items()):
        raise ValueError("component contains a non-member")
    label_dgm = _label_diagram(_rect_labels(cols))
    if not is_composition_diagram(label_dgm):
        raise AssertionError("rectified labels are not a composition diagram")
    return weight(label_dgm)


def demazure_expansion(d: Diagram, max_diagrams=None) -> list[Composition]:
    """The multiset e with kohnert_polynomial(d) equal to the sum of
    Demazure characters over e: one key index per crystal component,
    read off its highest member.  Each component holds exactly one
    Yamanouchi member, whose weight this is."""
    if not is_southwest(d):
        raise ValueError("Yamanouchi analysis requires a southwest diagram")
    graph = crystal_graph(generate_kd(d, max_diagrams))
    return sorted(pad(_component_key(u, d), d.max_row) for u in graph.highest)


def _quasi_yamanouchi_core(t: Diagram, d: Diagram) -> bool:
    """Whether every fully liftable row of t, a member of the closure of
    d, is pinned by its label.

    A row r with no row-(r+1) cell weakly right of its leftmost cell
    must carry label r there; failing rows could slide up, so t would
    not contribute a fundamental slide term.
    """
    cols, _ = _label(t, d)
    for r in sorted({r for _, r in t}):
        leftmost = min(t.row(r))
        if any(c >= leftmost for c in t.row(r + 1)):
            continue
        if cols[leftmost - 1][r] != r:
            return False
    return True


def slide_expansion(d: Diagram, max_diagrams=None) -> list[Composition]:
    """The multiset e with kohnert_polynomial(d) equal to the sum of slide
    polynomials over e, peeled off the polynomial; slide polynomials are
    a basis, so e is the weights of the quasi-Yamanouchi members."""
    if not is_southwest(d):
        raise ValueError("slide analysis requires a southwest diagram")
    f = kohnert_polynomial(d, d.max_row, max_diagrams)
    return sorted(a for a, coef in expand_in_basis(f, "slide").items()
                  for _ in range(coef))


def is_vexillary_diagram(d: Diagram) -> bool:
    """Rows, as sets of occupied columns, form a chain under inclusion."""
    rows = [set(d.row(r)) for r in range(1, d.max_row + 1) if d.row(r)]
    rows.sort(key=len)
    return all(rows[i] <= rows[i + 1] for i in range(len(rows) - 1))


def component_demazure_data(component, d: Diagram):
    """(lam, w, a) for one crystal component of the closure of d.

    lam is the weight of the unique highest member, a the weight of the
    labeling diagram after rectifying that member's labeling, and w the
    minimal permutation carrying sorted a to a.  The rectified members
    are checked to tile the closure of the composition diagram of a,
    compared as packed closure states.
    """
    if not is_southwest(d):
        raise ValueError("component data requires a southwest diagram")
    comp = set(component)
    if not comp:
        raise ValueError("component is empty")
    tops = _highest(comp)
    if len(tops) != 1:
        raise ValueError("not a single crystal component")
    u = tops[0]
    a = _component_key(u, d)
    lam, w = sort_and_minimal_perm(a)
    if weight(u, len(a)) != lam:
        raise AssertionError("highest weight does not match the sorted labels")
    # rectification keeps every cell in its row, so no field overflows
    top_row = max(t.max_row for t in comp)
    rect_image = _rectified_states(comp, top_row + 1)
    if len(rect_image) != len(comp):
        raise AssertionError("rectification is not injective on the component")
    source = composition_diagram(a)
    states, _ = _closure(source, _max_diagrams(None))
    # equal images have equal top rows, and then equal fields
    if source.max_row != top_row or rect_image != states:
        raise AssertionError("rectified component misses the composition closure")
    return lam, w, a
