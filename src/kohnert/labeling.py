"""Diagram labelings and what they decide: the labeling of a diagram
with respect to another, a membership test for move closures that
avoids generating them, and the Demazure and fundamental slide
expansions of Kohnert polynomials.

A labeling attaches a positive integer to every cell.  Rectifying a
labeled diagram re-labels cells column by column before they slide
left, so that the final labels record which row of the source diagram
each cell came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .compositions import Composition, pad
from .crystal import _highest, _rectified_states, crystal_graph, rectify_column
from .diagrams import (Cell, Diagram, GridParseError, column_weights,
                       composition_diagram, grid_rows, is_composition_diagram,
                       is_southwest, render_grid, weight)
from .moves import _closure, _max_diagrams, generate_kd, kohnert_polynomial
from .perms import sort_and_minimal_perm
from .polynomials import expand_in_basis


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

    def to_grid(self) -> str:
        """The diagram grid with labels in place of 'O'; labels past 9
        print bracketed, like '[12]'."""
        return render_grid({cell: str(v) if v <= 9 else f"[{v}]"
                            for cell, v in self.labels})

    @staticmethod
    def from_grid(text: str) -> "Labeling":
        """Parse the labeled grid format; see ``grid_rows``."""
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


def labeling_diagram(lab: Labeling) -> Diagram:
    """The diagram with a cell (c, r) when column c carries label r."""
    if not lab.is_strict():
        raise ValueError("labeling diagram requires a strict labeling")
    return Diagram.of(*((c, v) for (c, _), v in lab.labels))


def label_pairing(lab: Labeling, c: int) -> tuple[dict[Cell, Cell], list[Cell]]:
    """Pair column-(c+1) cells, top to bottom, each with the available
    column-c cell weakly above it carrying the largest label that stays
    weakly below its own.  Label ties break toward the lower cell.
    Returns each paired cell's partner, and the unpaired cells top down."""
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


def relabel_rectify(lab: Labeling, c: int) -> Labeling:
    """Rectify column c+1 into column c, re-labeling first.

    Unpaired cells repeatedly trade labels upward with paired cells
    whose partner's label fits below their own; then every paired cell
    adopts its partner's original label; then the unpaired cells slide
    left carrying their new labels.
    """
    partner, unpaired = label_pairing(lab, c)
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
    moved = rectify_column(lab.base, c)
    carried = {cell: new[cell] if cell in lab.base else new[(c + 1, cell[1])]
               for cell in moved}
    return Labeling.of(moved, carried)


def rect_labeling(lab: Labeling) -> Labeling:
    """Fully rectify a labeled diagram by right-to-left column sweeps.

    The re-labeling phases can rewrite labels even after the cells stop
    moving, so sweeps continue to a joint fixpoint of cells and labels.
    """
    for _ in range(4 + len(lab.base) * max(lab.base.max_col, 1)):
        before = lab
        for c in range(lab.base.max_col - 1, 0, -1):
            lab = relabel_rectify(lab, c)
        if lab == before:
            return lab
    raise ValueError("labeling failed to stabilise under rectification")


def _equal_column_weights(t: Diagram, d: Diagram) -> bool:
    n = max(t.max_col, d.max_col)
    return n == 0 or column_weights(t, n) == column_weights(d, n)


def labeling_with_reason(t: Diagram, d: Diagram) -> tuple[Labeling | None, str | None]:
    """Label t with respect to d, or explain why no labeling fits.

    Columns are labeled right to left.  The already labeled part right
    of column c is rectified, anchored so its leftmost column is c+1;
    the row indices of column c of d are then assigned smallest first,
    each to the lowest unlabeled column-c cell lying weakly above the
    like-labeled cell of that rectified part, when present.
    """
    if not _equal_column_weights(t, d):
        raise ValueError("diagrams must have equal column weights")
    assigned: dict[Cell, int] = {}
    for c in range(t.max_col, 0, -1):
        right = [(cc, r) for cc, r in t if cc > c]
        anchor: dict[int, int] = {}
        if right:
            part = {(cc - c, r): assigned[(cc, r)] for cc, r in right}
            rlab = rect_labeling(Labeling.of(Diagram.of(*part), part))
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


def kohnert_labeling(t: Diagram, d: Diagram) -> Labeling | None:
    """Label t with respect to d, or None when no labeling fits."""
    lab, _ = labeling_with_reason(t, d)
    return lab


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
    lab, reason = labeling_with_reason(t, d)
    if lab is None:
        return False, f"no labeling exists: {reason}"
    for (c, r), v in lab.labels:
        if v < r:
            return False, f"labeling is not flagged: label {v} below row {r} at column {c}"
    return True, "member"


def _yamanouchi_core(y: Diagram, d: Diagram) -> bool:
    """Whether rectifying the labeling of y, a member of the closure of
    d, lands on a super-standard composition diagram; such members index
    the Demazure expansion."""
    rl = rect_labeling(kohnert_labeling(y, d))
    return is_composition_diagram(rl.base) and \
        all(v == r for (_, r), v in rl.labels)


def yamanouchi_diagrams(d: Diagram) -> list[Diagram]:
    """The Yamanouchi members of the closure of d, sorted: a scan of every
    member, kept as the reference demazure_expansion is checked against."""
    if not is_southwest(d):
        raise ValueError("Yamanouchi analysis requires a southwest diagram")
    return [t for t in generate_kd(d).members if _yamanouchi_core(t, d)]


def _component_key(u: Diagram, d: Diagram) -> Composition:
    """The key index a of the crystal component whose highest member is u:
    the weight of the labeling diagram of u's rectified labeling."""
    lab = kohnert_labeling(u, d)
    if lab is None or not is_flagged(lab):
        raise ValueError("component contains a non-member")
    rl = rect_labeling(lab)
    label_dgm = labeling_diagram(rl)
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
    lab = kohnert_labeling(t, d)
    for r in sorted({r for _, r in t}):
        leftmost = min(t.row(r))
        if any(c >= leftmost for c in t.row(r + 1)):
            continue
        if lab.label((leftmost, r)) != r:
            return False
    return True


def quasi_yamanouchi_diagrams(d: Diagram) -> list[Diagram]:
    """The quasi-Yamanouchi members of the closure of d, sorted: a scan of
    every member, kept as the reference slide_expansion is checked against."""
    if not is_southwest(d):
        raise ValueError("slide analysis requires a southwest diagram")
    return [t for t in generate_kd(d).members if _quasi_yamanouchi_core(t, d)]


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
