"""Tests for the Diagram type, grid parsing, and standard constructions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert.diagrams import (
    Diagram,
    GridParseError,
    check_cell,
    composition_diagram,
    is_southwest,
    rothe_diagram,
    weight,
)
from kohnert.perms import all_permutations, lehmer_code

from oracle import EMPTY, column_weights, is_composition_diagram, oracle_is_southwest, to_grid

cell_sets = st.sets(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=10)


def test_check_cell_rejects_bad_input():
    for bad in ((0, 1), (1, 0), (1,), (1.5, 2), "xy"):
        with pytest.raises(ValueError):
            check_cell(bad)
    assert check_cell((3, 2)) == (3, 2)
    assert check_cell([3, 2]) == (3, 2)


def test_diagram_basics():
    d = Diagram.of((1, 2), (3, 1), (1, 2))
    assert len(d) == 2
    assert (1, 2) in d.cells and (2, 2) not in d.cells
    assert d.sorted_cells == ((1, 2), (3, 1))
    assert d.max_row == 2 and d.max_col == 3
    assert d.col(1) == (2,) and d.col(3) == (1,) and d.col(9) == ()
    assert d.by_col == {1: (2,), 3: (1,)}
    assert EMPTY.max_row == 0 and EMPTY.max_col == 0 and len(EMPTY) == 0


def test_move_cell():
    d = Diagram.of((1, 2), (2, 1))
    assert d.move_cell((1, 2), (1, 1)) == Diagram.of((1, 1), (2, 1))
    with pytest.raises(ValueError):
        d.move_cell((5, 5), (1, 1))
    with pytest.raises(ValueError):
        d.move_cell((1, 2), (2, 1))


def test_to_grid_example():
    d = Diagram.of((1, 2), (2, 2), (3, 1))
    assert to_grid(d) == "OO.\n..O"
    assert to_grid(EMPTY) == ""


def test_from_grid_example():
    text = "# a comment\nOO.\n..O\n"
    d = Diagram.from_grid(text)
    assert d == Diagram.of((1, 2), (2, 2), (3, 1))


def test_from_grid_rejects_bad_characters():
    with pytest.raises(GridParseError) as err:
        Diagram.from_grid("O.X")
    assert "line 1, column 3" in str(err.value) and "'X'" in str(err.value)


@given(cell_sets)
def test_grid_round_trip(cells):
    d = Diagram.of(*cells)
    assert Diagram.from_grid(to_grid(d)) == d


def test_weight_and_column_weights():
    d = Diagram.of((1, 2), (2, 2), (1, 4))
    assert weight(d) == (0, 2, 0, 1)
    assert weight(d, 6) == (0, 2, 0, 1, 0, 0)
    assert column_weights(d) == (2, 1)
    assert weight(EMPTY) == ()
    with pytest.raises(ValueError):
        weight(d, 2)
    with pytest.raises(ValueError):
        column_weights(d, 1)


def test_composition_diagram():
    d = composition_diagram((0, 3, 2))
    assert d == Diagram.of((1, 2), (2, 2), (3, 2), (1, 3), (2, 3))
    assert is_composition_diagram(d)
    assert not is_composition_diagram(Diagram.of((2, 1)))
    assert is_composition_diagram(EMPTY)
    assert weight(d, 3) == (0, 3, 2)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple))
def test_composition_diagram_weight_round_trips(a):
    assert weight(composition_diagram(a), len(a)) == a


def test_rothe_diagram_example():
    d = rothe_diagram((1, 3, 6, 2, 5, 8, 4, 7))
    assert set(d.cells) == {(2, 2), (2, 3), (4, 3), (5, 3), (4, 5), (4, 6), (7, 6)}
    assert rothe_diagram((1, 2, 3)) == EMPTY


def test_rothe_weight_is_the_lehmer_code():
    for n in (4, 5):
        for w in all_permutations(n):
            assert weight(rothe_diagram(w), n) == lehmer_code(w)


def test_is_southwest_examples():
    assert is_southwest(Diagram.of((1, 1), (2, 2)))
    assert not is_southwest(Diagram.of((1, 2), (2, 1)))
    assert is_southwest(EMPTY)


@pytest.mark.parametrize("cols, rows", [(3, 3), (4, 3)])
def test_is_southwest_matches_the_pairwise_oracle_on_every_box_subset(cols, rows):
    grid = [(c, r) for c in range(1, cols + 1) for r in range(1, rows + 1)]
    for pick in range(1 << len(grid)):
        d = Diagram(frozenset(cell for k, cell in enumerate(grid) if pick >> k & 1))
        assert is_southwest(d) == oracle_is_southwest(d), d.sorted_cells


@settings(max_examples=500)
@given(st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5))))
def test_is_southwest_matches_the_pairwise_oracle_on_random_cells(cells):
    d = Diagram(frozenset(cells))
    assert is_southwest(d) == oracle_is_southwest(d)


def test_standard_constructions_are_southwest():
    for w in all_permutations(4):
        assert is_southwest(rothe_diagram(w))
    for a in ((0, 3, 2), (1, 0, 2, 1), (4,)):
        assert is_southwest(composition_diagram(a))


if __name__ == "__main__":
    pytest.main([__file__])
