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
diagram given by its column masks in that form, one column at a time by
``_label_column``, which the ``membership`` sweep's column search calls
too; ``_pair`` pairs two columns by their labels,
``_relabel_rectify`` re-labels one column pair and moves its cells (the
right-hand cells ``_pair`` leaves unpaired) into new columns, and ``_walk``
rectifies one new column onto a rectified suffix, left to right up to
the first pair left unchanged.  ``_label`` labels
right to left and walks each labelled column onto the rectified part to
its right, so a labelling rectifies once, not once per column; it hands
back that part with the labels, and ``_rectified_labels`` walks column 1
on for the whole rectification.  The key expansion and the membership
test call them directly; the Yamanouchi test reads a member's rectified
labeling and the quasi-Yamanouchi test its labeling, so a sweep labels
each member once for both.  The one public labelling output,
``labeling_with_reason``, hands the labels back as a plain
``{cell: label}`` map, and ``label_grid`` prints such a map.

On the southwest sources it accepts, the labeller relies on four
unproven conditions: L1, every column it holds has distinct labels, so
no label ties; L2, the rows ``_pair`` leaves unpaired are the rows the
bracket rule ``crystal._lone`` leaves lone on the row masks (not so off
that domain); L3, the trade of ``_relabel_rectify`` has one row to take
at each step beside two or more unpaired cells; and the walk condition
of ``_walk``.  Each held on every call over the members of the 4x4 and
5x4 boxes (and 4x5, for the walk) and of the S7 Rothe closures and on
the 4x3 and 4x4 ``membership`` cases.
"""

from __future__ import annotations

from collections import Counter

from .compositions import Composition, pad
from .crystal import _crystal, _raises, _rectified
from .diagrams import (Cell, Diagram, _columns, _mask_weight, composition_diagram,
                       is_southwest, render_grid)
from .moves import _cells, _closure, _fields, _max_diagrams, _pack, _polynomial, _spread
from .perms import sort_and_minimal_perm
from .polynomials import IntPolynomial, expand_in_basis


Columns = list[dict[int, int]]


def _mask(col) -> int:
    """The row mask of a column: bit r set when row r holds a cell (given
    its labels, bit v set when some cell carries label v)."""
    mask = 0
    for r in col:
        mask |= 1 << r
    return mask


def _pair(left: dict[int, int], right: dict[int, int]) -> tuple[dict[int, int], list[int]]:
    """Pair the rows of a right column, top to bottom, each with the
    available left row weakly above it carrying the largest label that
    stays weakly below its own (labels in a column are distinct, L1).
    Returns each paired row's partner row, and the unpaired rows top down."""
    avail = dict(left)
    partner = {}
    unpaired = []
    for r in sorted(right, reverse=True):
        lx = right[r]
        best = 0
        top = 0
        for s, ls in avail.items():
            if s >= r and top < ls <= lx:
                best, top = s, ls
        if best:
            partner[r] = best
            del avail[best]
        else:
            unpaired.append(r)
    return partner, unpaired


def _relabel_rectify(left: dict[int, int], right: dict[int, int]) -> tuple[dict, dict] | None:
    """Rectify a right column into the left one beside it, re-labeling
    first: the pair's new columns, or None when nothing changes.  Neither
    argument is written.

    Unpaired cells repeatedly trade labels upward with the first paired
    cell whose partner's label fits below their own; then every paired
    cell adopts its partner's original label; then the unpaired cells
    slide left carrying their new labels: the cells the unlabeled
    bracket rule ``crystal._lone`` leaves lone (L2).  Which cell qualifies
    first is free beside one unpaired cell, of label v: a row y qualifies
    while v lies in [its partner's label, its label), and each trade lifts
    v to the top of such an interval for good, so v ends at the least
    label from its start that none holds.  Two can qualify there (on S7
    Rothe closure members); beside more, one at most (L3).
    """
    # each right cell beside a left cell of its label pairs with it, keeps
    # its label and stays: nothing changes (an empty column included)
    if right.items() <= left.items():
        return None
    partner, unpaired = _pair(left, right)
    new = dict(right)
    for x in unpaired:
        while True:
            for y in partner:
                if y > x and left[partner[y]] <= new[x] < new[y]:
                    new[x], new[y] = new[y], new[x]
                    break
            else:
                break
    for z, y in partner.items():
        new[z] = left[y]
    moved = dict(left)
    for r in unpaired:
        moved[r] = new.pop(r)
    return None if new == right else (moved, new)


def _walk(col: dict[int, int], rect: Columns) -> Columns:
    """The rectification of ``[col, *rect]`` for a rectified ``rect``: one
    pass left to right over the column pairs, stopping at the first pair
    left unchanged, since the columns right of it are ``rect``'s, settled.
    It relies on the walk condition: no pair needs a re-run after the pair
    to its right changes, so every pair ends settled."""
    cols = [col, *rect]
    for k in range(len(cols) - 1):
        pair = _relabel_rectify(cols[k], cols[k + 1])
        if pair is None:
            break
        cols[k], cols[k + 1] = pair
    return cols


def _equal_column_weights(t: Diagram, d: Diagram) -> bool:
    return list(map(int.bit_count, _columns(t))) == list(map(int.bit_count, _columns(d)))


def _label_column(mask: int, labels, anchor: dict[int, int]) -> tuple[dict[int, int], int]:
    """Label the column of row mask ``mask`` with ``labels``, the rows of
    d's like column, smallest first, on ``anchor``, the row of each label
    in the first column of the rectified labelled part to its right: each
    label takes the lowest free cell weakly above its anchor row.
    Returns the column's labels and 0, or the first label with no
    admissible cell in place of 0."""
    col = {}
    for r in labels:
        free = mask & -(1 << anchor.get(r, 0))      # free cells from the floor up
        if not free:
            return col, r
        low = free & -free
        mask ^= low
        col[low.bit_length() - 1] = r
    return col, 0


def _label(cols: list[int], d: Diagram) -> tuple[Columns | None, Columns | None, str | None]:
    """``labeling_with_reason`` in column form, for column masks ``cols``
    (``diagrams._columns``, ``moves._fields``), with the rectified labeling
    right of column 1, which ``_rectified_labels`` finishes; moves keep
    column weights, so only the public entry points, given diagrams from
    outside, check them.  Each column is labelled by ``_label_column`` on
    the rectified part to its right and then walked onto it, so no part
    is rectified twice.  An anchor map has one row per label (L1)."""
    width = len(cols)
    assigned: Columns = [{} for _ in range(width)]
    rect: Columns = []
    for k in range(width - 1, -1, -1):
        anchor = {v: r for r, v in rect[0].items()} if rect else {}
        assigned[k], missing = _label_column(cols[k], d.col(k + 1), anchor)
        if missing:
            return None, None, f"label {missing} has no admissible cell in column {k + 1}"
        if k:
            rect = _walk(assigned[k], rect)
    return assigned, rect, None


def _rectified_labels(cols: Columns, suffix: Columns) -> Columns:
    """The whole rectified labeling of ``cols`` from the rectified
    ``suffix`` that ``_label`` returned with it."""
    if not cols:                    # the empty diagram
        return []
    return _walk(cols[0], suffix)


def labeling_with_reason(t: Diagram, d: Diagram) -> tuple[dict[Cell, int] | None, str | None]:
    """Label t with respect to d, or explain why no labeling fits.

    Columns are labeled right to left.  The already labeled part right
    of column c is rectified, anchored so its leftmost column is c+1;
    the row indices of column c of d are then assigned smallest first,
    each to the lowest unlabeled column-c cell lying weakly above the
    like-labeled cell of that rectified part, when present; d must be
    southwest (L2).
    """
    if not is_southwest(d):
        raise ValueError("labeling requires a southwest diagram")
    if not _equal_column_weights(t, d):
        raise ValueError("diagrams must have equal column weights")
    cols, _, reason = _label(_columns(t), d)
    if cols is None:
        return None, reason
    return _cell_labels(cols), None


def _cell_labels(cols: Columns) -> dict[Cell, int]:
    """A column form as a plain ``{cell: label}`` map."""
    return {(k + 1, r): v for k, col in enumerate(cols) for r, v in col.items()}


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
    labels, reason = _membership(t, d)
    return labels is not None, reason


def _membership(t: Diagram, d: Diagram) -> tuple[dict[Cell, int] | None, str]:
    """``membership_report`` with the labels of a member in place of True,
    from one labelling."""
    if not is_southwest(d):
        raise ValueError("membership test requires a southwest diagram")
    if not _equal_column_weights(t, d):
        return None, "column weights differ"
    cols, _, reason = _label(_columns(t), d)
    if cols is None:
        return None, f"no labeling exists: {reason}"
    for k, col in enumerate(cols):
        for r, v in sorted(col.items()):
            if v < r:
                return None, (f"labeling is not flagged: label {v} below row {r} "
                              f"at column {k + 1}")
    return _cell_labels(cols), "member"


def _yamanouchi_core(rl: Columns) -> bool:
    """Whether ``rl``, the rectified labeling (``_rectified_labels``) of a
    member of a closure, is super-standard on a composition diagram; such
    members index the Demazure expansion.  Labels equal to rows make the
    rows nest: ``rl`` is settled, so ``_pair`` pairs a right cell of row
    and label r with a left row s >= r of label s <= r, row r itself."""
    return all(v == r for col in rl for r, v in col.items())


def _component_key(top: list[int], d: Diagram) -> Composition:
    """The key index a of the crystal component of the closure of d whose
    highest member has column masks ``top``: the weight of the labeling
    diagram of that member's rectified labeling, read off each column's
    label mask."""
    cols, suffix, _ = _label(top, d)
    if cols is None or any(v < r for col in cols for r, v in col.items()):
        raise ValueError("component contains a non-member")
    rl = _rectified_labels(cols, suffix)
    masks = [_mask(col.values()) for col in rl]
    if any(mask.bit_count() != len(col) for mask, col in zip(masks, rl)):
        raise ValueError("labeling diagram requires a strict labeling")
    if any(right & ~left for left, right in zip(masks, masks[1:])):
        raise AssertionError("rectified labels are not a composition diagram")
    return _mask_weight(masks, max(masks, default=0).bit_length() - 1)


def demazure_expansion(d: Diagram, max_diagrams=None) -> list[Composition]:
    """The multiset e with kohnert_polynomial(d) equal to the sum of
    Demazure characters over e: one key index per crystal component,
    read off its highest member.  Each component holds exactly one
    Yamanouchi member, whose weight this is.  The crystal is built on the
    packed closure states, and each highest member is labelled from its
    column masks."""
    if not is_southwest(d):
        raise ValueError("Yamanouchi analysis requires a southwest diagram")
    return _expansion(d, "key", max_diagrams)[0]


def _key_terms(states, highest, d: Diagram) -> list[Composition]:
    """``demazure_expansion`` on the positions ``_crystal`` finds highest."""
    return sorted(pad(_component_key(_fields(states[n], d.max_row + 1, d.max_col), d), d.max_row)
                  for n in highest)


def _quasi_yamanouchi_core(cols: Columns) -> bool:
    """Whether every fully liftable row of a closure member is pinned by
    its label; ``cols`` is the member's labeling from ``_label``.

    A row r with no row-(r+1) cell weakly right of its leftmost cell
    must carry label r there; failing rows could slide up, so the member
    would not contribute a fundamental slide term.
    """
    cells = [(k, r) for k, col in enumerate(cols) for r in col]
    leftmost, rightmost = {r: k for k, r in reversed(cells)}, {r: k for k, r in cells}
    return all(rightmost.get(r + 1, -1) >= k or cols[k][r] == r
               for r, k in leftmost.items())


def slide_expansion(d: Diagram, max_diagrams=None) -> list[Composition]:
    """The multiset e with kohnert_polynomial(d) equal to the sum of slide
    polynomials over e, peeled off the polynomial; slide polynomials are
    a basis, so e is the weights of the quasi-Yamanouchi members."""
    if not is_southwest(d):
        raise ValueError("slide analysis requires a southwest diagram")
    return _expansion(d, "slide", max_diagrams)[0]


def _expansion(d: Diagram, basis: str,
               max_diagrams=None) -> tuple[list[Composition], Counter[int]]:
    """The key or slide expansion of a southwest d, and the packed weight
    counts of its closure, from one ``_closure`` search: key terms off the
    crystal on its states, slide terms peeled off the polynomial of its
    weights."""
    seen, counts = _closure(d, _max_diagrams(max_diagrams))
    if basis == "slide":
        return _slide_terms(_polynomial(d, counts, d.max_row)), counts
    states = list(seen)
    del seen            # the list alone goes on into the crystal
    return _key_terms(states, _crystal(states, d)[2], d), counts


def _slide_terms(f: IntPolynomial) -> list[Composition]:
    """The slide expansion of f as a sorted multiset of indices."""
    return sorted(a for a, coef in expand_in_basis(f, "slide").items() for _ in range(coef))


def is_vexillary_diagram(d: Diagram) -> bool:
    """Rows, as sets of occupied columns, form a chain under inclusion.
    Two rows that do not nest and two columns that do not nest make the
    same pattern, cells (a, r) and (b, s) without (b, r) and (a, s), so
    this reads the column masks: sorted by size, each holds the one before."""
    cols = sorted(_columns(d), key=int.bit_count)
    return all(not low & ~high for low, high in zip(cols, cols[1:]))


def _rectified_component(states, top: int, width: int, ncols: int, d: Diagram,
                         flips: dict[int, int]):
    """``component_demazure_data`` on a component's packed states, ``ncols``
    fields ``width`` bits wide, and its highest state ``top``; also the
    rectified states, in order, as ``_rectified_raises`` reads them.  The
    layout is given, not read off ``d``: ``component_demazure_data`` packs
    an arbitrary component in a layout of its own.  The top is labelled on
    its fields; the states rectify by ``crystal._rectified`` with the
    caller's ``flips`` memo, which components of one layout may share, and
    are repacked only when the component's top row + 1 is not ``width``."""
    top_cols = _fields(top, width, ncols)
    a = _component_key(top_cols, d)
    lam, w = sort_and_minimal_perm(a)
    if _mask_weight(top_cols, len(a)) != lam:
        raise AssertionError("highest weight does not match the sorted labels")
    occupied = 0
    for state in states:
        occupied |= state
    top_row = max((r for _, r in _cells(occupied, width, ncols)), default=0)
    images = [_rectified(state, width, ncols, flips) for state in states]
    if top_row + 1 != width:
        # rectification keeps every cell in its row, so no field overflows
        images = [_pack(_fields(x, width, ncols), top_row + 1) for x in images]
    if len(set(images)) != len(images):
        raise AssertionError("rectification is not injective on the component")
    # D(a) has top row len(a); equal top rows make equal fields
    if len(a) != top_row or \
            set(images) != _closure(composition_diagram(a), _max_diagrams(None))[0]:
        raise AssertionError("rectified component misses the composition closure")
    return lam, w, a, images


def _rectified_raises(images, a: Composition) -> list[set[tuple[int, int]]]:
    """The (i, raised state) pairs of each state ``_rectified_component``
    returns for key a, a member of the closure of D(a) in its layout."""
    width, flips = len(a) + 1, {}
    spread = _spread(width, max(a, default=0))
    return [{(i, x ^ flip) for i, flip in _raises(x, spread, width, flips)} for x in images]


def component_demazure_data(component, d: Diagram):
    """(lam, w, a) for one crystal component of the closure of d.

    lam is the weight of the unique highest member, a the weight of the
    labeling diagram after rectifying that member's labeling, and w the
    minimal permutation carrying sorted a to a.  Each member is packed
    once, in the layout of the union of the members' cells, by summing
    the bits of its cells, and rectified in that layout with one memo for
    the call; the images must tile the closure of D(a) as packed states.
    """
    if not is_southwest(d):
        raise ValueError("component data requires a southwest diagram")
    members = list(set(component))
    if not members:
        raise ValueError("component is empty")
    union = frozenset().union(*(t.cells for t in members))
    width = max((r for _, r in union), default=0) + 1
    ncols = max((c for c, _ in union), default=0)
    bit = {(c, r): 1 << (ncols - c) * width + r for c, r in union}
    states = [sum(map(bit.__getitem__, t.cells)) for t in members]
    spread, flips = _spread(width, ncols), {}
    tops = [n for n, state in enumerate(states) if not any(_raises(state, spread, width, flips))]
    if len(tops) != 1:
        raise ValueError("not a single crystal component")
    if not _equal_column_weights(members[tops[0]], d):
        raise ValueError("diagrams must have equal column weights")
    return _rectified_component(states, states[tops[0]], width, ncols, d, {})[:3]
