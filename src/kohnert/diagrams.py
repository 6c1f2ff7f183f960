"""Diagrams: finite sets of unit cells in the first quadrant.

A cell is a pair (col, row), both 1-based, with row 1 at the bottom.
Diagrams are immutable; the canonical form is the sorted cell tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .compositions import check_composition
from .perms import Permutation, check_permutation

Cell = tuple[int, int]


class GridParseError(ValueError):
    """Raised for malformed grid text; carries line and column info."""


def check_cell(cell) -> Cell:
    c, r = cell
    if not (isinstance(c, int) and isinstance(r, int) and c >= 1 and r >= 1):
        raise ValueError(f"bad cell {cell!r}: coordinates must be integers >= 1")
    return (c, r)


@dataclass(frozen=True)
class Diagram:
    cells: frozenset[Cell]

    @staticmethod
    def of(*cells) -> "Diagram":
        return Diagram(frozenset(check_cell(c) for c in cells))

    @cached_property
    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))

    @cached_property
    def max_row(self) -> int:
        return max((r for _, r in self.cells), default=0)

    @cached_property
    def max_col(self) -> int:
        return max((c for c, _ in self.cells), default=0)

    @cached_property
    def by_col(self) -> dict[int, tuple[int, ...]]:
        """Occupied rows of each nonempty column, sorted."""
        cols: dict[int, list[int]] = {}
        for c, r in self.cells:
            cols.setdefault(c, []).append(r)
        return {c: tuple(sorted(rs)) for c, rs in sorted(cols.items())}

    def col(self, c: int) -> tuple[int, ...]:
        return self.by_col.get(c, ())

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.sorted_cells)

    def move_cell(self, src: Cell, dst: Cell) -> "Diagram":
        if src not in self.cells:
            raise ValueError(f"cell {src} not present")
        dst = check_cell(dst)
        if dst in self.cells:
            raise ValueError(f"cell {dst} already present")
        return Diagram(self.cells - {src} | {dst})

    @staticmethod
    def from_grid(text: str) -> "Diagram":
        """Parse the textual grid format; see ``grid_rows``."""
        cells = []
        for idx, r, line in grid_rows(text):
            for col0, ch in enumerate(line):
                if ch == "O":
                    cells.append((col0 + 1, r))
                elif ch != ".":
                    raise GridParseError(
                        f"line {idx}, column {col0 + 1}: unexpected character {ch!r}")
        return Diagram.of(*cells)


def render_grid(marks: dict[Cell, str]) -> str:
    """One line per row, from the top row down to row 1, with each cell's
    mark and '.' in the gaps; no cells render as the empty string."""
    if not marks:
        return ""
    width = max(c for c, _ in marks)
    height = max(r for _, r in marks)
    lines = [["."] * width for _ in range(height)]
    for (c, r), mark in marks.items():
        lines[height - r][c - 1] = mark
    return "\n".join(map("".join, lines))


def grid_rows(text: str):
    """Yield (line number, row, line) for each line of grid text.

    Lines starting with '#' are comments.  The last other line is row 1,
    the line above it row 2, and so on.
    """
    raw = text.split("\n")
    if raw and raw[-1] == "":
        raw = raw[:-1]
    lines = [(idx, line) for idx, line in enumerate(raw, start=1)
             if not line.startswith("#")]
    for pos, (idx, line) in enumerate(lines):
        yield idx, len(lines) - pos, line


def weight(diagram: Diagram, n: int | None = None) -> tuple[int, ...]:
    """Cells per row, from row 1 up to row n (default: the top occupied row)."""
    if n is None:
        n = diagram.max_row
    elif n < diagram.max_row:
        raise ValueError(f"diagram has cells above row {n}")
    return _mask_weight(_columns(diagram), n)


def composition_diagram(a) -> Diagram:
    """Left-justified diagram with a_r cells in row r."""
    a = check_composition(a)
    return Diagram.of(*((c, r + 1) for r, parts in enumerate(a) for c in range(1, parts + 1)))


def rothe_diagram(w: Permutation) -> Diagram:
    """Cells (w_j, i) for every inversion i < j with w_i > w_j."""
    w = check_permutation(w)
    cells = [(w[j], i + 1)
             for i in range(len(w))
             for j in range(i + 1, len(w))
             if w[i] > w[j]]
    return Diagram.of(*cells)


def _columns(diagram: Diagram) -> list[int]:
    """Column masks, column 1 first: bit r of a mask is set when row r holds a cell."""
    cols = [0] * diagram.max_col
    for c, r in diagram.cells:
        cols[c - 1] |= 1 << r
    return cols


def _mask_weight(cols: list[int], n: int) -> tuple[int, ...]:
    """``weight`` of the diagram with these column masks, rows 1 to n."""
    return tuple(sum(col >> r & 1 for col in cols) for r in range(1, n + 1))


def is_southwest(diagram: Diagram) -> bool:
    """Whenever (c1, r2) and (c2, r1) are cells with c1 < c2 and r1 < r2,
    the corner (c1, r1) must also be a cell.  On column masks, in one pass
    from the right: each column holds every row below its top cell that
    some column to its right holds."""
    right = 0                              # rows held by some column to the right
    for col in reversed(_columns(diagram)):
        below_top = ((1 << col.bit_length()) - 1) >> 1
        if right & below_top & ~col:
            return False
        right |= col
    return True
