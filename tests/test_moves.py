"""Tests for single moves, move closures, and their serialisations."""

import json
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kohnert import moves
from kohnert.diagrams import Diagram, composition_diagram, render_grid, rothe_diagram, \
    weight
from kohnert.moves import (
    KohnertSet,
    MaxDiagramsError,
    ResourceBoundError,
    generate_kd,
    kd_to_dot,
    kd_to_json,
    kohnert_polynomial,
)
from kohnert.polynomials import demazure_character

from golden import D5, LETTER, MEMBERS, MOVE_EDGES
from oracle import (kohnert_move, monomial_generating, oracle_generate_kd,
                    oracle_kd_to_dot, oracle_kd_to_json, reverse_kohnert_moves,
                    southwest_hull)

cell_sets = st.sets(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=6)
box_cells = st.sets(st.tuples(st.integers(1, 4), st.integers(1, 5)), max_size=6)
diagrams = st.one_of(box_cells.map(lambda cells: Diagram.of(*cells)), box_cells.map(southwest_hull))
ROTHE_S5 = rothe_diagram((2, 1, 5, 4, 3))


def test_move_drops_to_first_empty_spot_below():
    assert kohnert_move(Diagram.of((1, 3)), 3) == Diagram.of((1, 2))
    d = Diagram.of((1, 3), (1, 1))
    assert kohnert_move(d, 3) == Diagram.of((1, 2), (1, 1))


def test_move_passes_occupied_cells():
    d = Diagram.of((1, 4), (1, 3), (1, 1))
    assert kohnert_move(d, 4) == Diagram.of((1, 3), (1, 2), (1, 1))
    assert kohnert_move(Diagram.of((1, 3), (1, 2)), 3) == Diagram.of((1, 2), (1, 1))
    assert kohnert_move(MEMBERS["D"], 3) == MEMBERS["G"]


def test_move_takes_rightmost_cell():
    d = Diagram.of((1, 2), (3, 2))
    assert kohnert_move(d, 2) == Diagram.of((1, 2), (3, 1))


def test_move_returns_none_when_stuck():
    assert kohnert_move(Diagram.of((1, 2), (1, 1)), 2) is None
    assert kohnert_move(Diagram.of((1, 1)), 1) is None
    assert kohnert_move(Diagram.of((1, 1)), 5) is None


def test_closure_of_a_single_column_pair():
    kset = generate_kd(composition_diagram((0, 2)))
    assert kset.member_set == {
        Diagram.of((1, 2), (2, 2)),
        Diagram.of((1, 2), (2, 1)),
        Diagram.of((1, 1), (2, 1)),
    }
    assert len(kset.edges) == 2


def test_closure_members_match_hand_enumeration():
    kset = generate_kd(D5)
    assert kset.source == D5
    assert set(kset.members) == set(MEMBERS.values())
    assert len(kset.members) == 19


def test_closure_edges_match_hand_enumeration():
    kset = generate_kd(D5)
    seen = {frozenset((LETTER[s], LETTER[t])) for s, t, _ in kset.edges}
    assert seen == MOVE_EDGES
    assert len(kset.edges) == len(MOVE_EDGES) == 31
    for s, t, r in kset.edges:
        assert kohnert_move(s, r) == t


def test_source_membership():
    kset = generate_kd(D5)
    assert D5 in kset.member_set
    assert Diagram.of((9, 9)) not in kset.member_set


@given(cell_sets, st.integers(1, 5))
def test_reverse_moves_list_each_forward_move(cells, r):
    d = Diagram.of(*cells)
    dropped = kohnert_move(d, r)
    if dropped is not None:
        assert (d, r) in reverse_kohnert_moves(dropped, max_row=d.max_row)


@given(cell_sets)
def test_reverse_moves_are_genuine(cells):
    d = Diagram.of(*cells)
    for source, r in reverse_kohnert_moves(d, max_row=6):
        assert kohnert_move(source, r) == d


def test_kohnert_polynomial_of_the_sample_closure():
    expected = demazure_character((0, 3, 2), 4) + demazure_character((0, 3, 1, 1), 4)
    got = kohnert_polynomial(D5)
    assert got == expected
    assert got.eval_ones() == 19


def test_resource_bound_explicit():
    with pytest.raises(ResourceBoundError) as err:
        generate_kd(D5, max_diagrams=5)
    assert "KOHNERT_MAX_DIAGRAMS" in str(err.value)


def test_resource_bound_from_environment(monkeypatch):
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", "3")
    with pytest.raises(ResourceBoundError):
        generate_kd(D5)
    monkeypatch.delenv("KOHNERT_MAX_DIAGRAMS")
    assert len(generate_kd(D5).members) == 19


def test_resource_bound_reports_count_and_depth():
    # D(0,2) has one member at each depth 0, 1 and 2
    d = composition_diagram((0, 2))
    with pytest.raises(ResourceBoundError,
                       match="reached 2 members at BFS depth 1"):
        generate_kd(d, max_diagrams=1)
    with pytest.raises(ResourceBoundError,
                       match="reached 3 members at BFS depth 2"):
        kohnert_polynomial(d, max_diagrams=2)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bad_environment_budget_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", value)
    with pytest.raises(MaxDiagramsError, match="KOHNERT_MAX_DIAGRAMS"):
        generate_kd(D5)
    with pytest.raises(MaxDiagramsError, match="KOHNERT_MAX_DIAGRAMS"):
        kohnert_polynomial(D5)


@settings(deadline=None)
@given(diagrams)
def test_packed_closure_matches_oracle(d):
    oracle = oracle_generate_kd(d)
    kset = generate_kd(d)
    assert kset.members == oracle.members
    assert kset.edges == oracle.edges


@settings(deadline=None)
@given(diagrams, st.integers(1, 2))
@example(Diagram.of(), 2)
def test_packed_polynomial_matches_oracle(d, extra):
    members = oracle_generate_kd(d).members
    expected = monomial_generating((weight(t) for t in members), d.max_row)
    assert kohnert_polynomial(d) == kohnert_polynomial(d, d.max_row) == expected
    n = d.max_row + extra
    assert kohnert_polynomial(d, n) == monomial_generating((weight(t, n) for t in members), n)
    if d.max_row:
        with pytest.raises(ValueError):
            kohnert_polynomial(d, d.max_row - 1)


@pytest.mark.parametrize("entries", [0, 1, 4096])
def test_closure_past_a_full_move_memo(monkeypatch, entries):
    # one column of 6 cells in rows 7..12: no mask repeats, so a memo
    # that stops growing finds most moves afresh, with the same result
    monkeypatch.setattr(moves, "_MEMO_ENTRIES", entries)
    d = composition_diagram((0,) * 6 + (1,) * 6)
    kset, oracle = generate_kd(d), oracle_generate_kd(d)
    assert (kset.members, kset.edges) == (oracle.members, oracle.edges)
    subsets = (tuple(int(b) for b in f"{m:012b}"[::-1]) for m in range(1 << 12))
    assert kohnert_polynomial(d).terms == {e: 1 for e in subsets if sum(e) == 6}


@pytest.mark.parametrize("extra", [0, 2])
def test_polynomial_with_two_byte_weight_fields(extra):
    # 300 cells overflow a one-byte row field; any suffix of row 2 drops to row 1
    d = Diagram.of(*((c, 2) for c in range(1, 301)))
    assert len(generate_kd(d).states) == 301
    n = d.max_row + extra
    got = kohnert_polynomial(d, n)
    assert got.terms == {(k, 300 - k) + (0,) * extra: 1 for k in range(301)}


@settings(deadline=None)
@given(diagrams)
def test_budget_boundary_matches_oracle(d):
    size = len(oracle_generate_kd(d).members)
    assert len(generate_kd(d, max_diagrams=size).members) == size
    assert kohnert_polynomial(d, max_diagrams=size).eval_ones() == size
    if size > 1:
        for build in (oracle_generate_kd, generate_kd, kohnert_polynomial):
            with pytest.raises(ResourceBoundError, match="KOHNERT_MAX_DIAGRAMS"):
                build(d, max_diagrams=size - 1)


@settings(deadline=None, max_examples=50)
@given(drawn=diagrams)
@pytest.mark.parametrize("d", [D5, ROTHE_S5], ids=["D5", "rothe-21543"])
def test_serialisations_match_oracle_bytes(d, drawn):
    for case in (d, drawn):
        kset, oracle = generate_kd(case), oracle_generate_kd(case)
        assert kd_to_json(kset) == oracle_kd_to_json(oracle)
        assert kd_to_dot(kset) == oracle_kd_to_dot(oracle)


def test_move_edges_come_from_the_stored_states(monkeypatch):
    d = rothe_diagram((2, 1, 5, 4, 3, 8, 7, 6))
    kset, oracle = generate_kd(d), oracle_generate_kd(d)

    def searched(*args):
        raise AssertionError("the moves searched the closure again")
    monkeypatch.setattr(moves, "_closure", searched)
    assert kd_to_json(kset) == oracle_kd_to_json(oracle)
    assert kd_to_dot(kset) == oracle_kd_to_dot(oracle)
    assert kset.edges == oracle.edges


def test_kd_json_structure():
    kset = generate_kd(D5)
    data = json.loads(kd_to_json(kset))
    assert data["count"] == 19
    assert len(data["members"]) == 19
    assert len(data["edges"]) == 31
    assert data["members"][data["source"]] == [list(c) for c in D5.sorted_cells]
    for si, ti, r in data["edges"]:
        s = Diagram.of(*map(tuple, data["members"][si]))
        t = Diagram.of(*map(tuple, data["members"][ti]))
        assert kohnert_move(s, r) == t


def test_kd_dot_output():
    kset = generate_kd(D5)
    text = kd_to_dot(kset)
    assert text == kd_to_dot(generate_kd(D5))
    assert text.startswith("digraph kohnert_moves")
    assert text.count("label=") == 19
    assert text.count("->") == 31
    assert text.endswith("}\n")


def cell_grid(state, width, ncols):
    return render_grid(dict.fromkeys(moves._cells(state, width, ncols), "O")) or "(empty)"


@pytest.mark.parametrize("d", [
    Diagram.of(), D5, ROTHE_S5, composition_diagram((0, 3, 0, 2)),
    Diagram.of((1, 1), (3, 4)), rothe_diagram((3, 1, 6, 5, 2, 9, 8, 7, 4)),
], ids=["empty", "D5", "rothe-21543", "comp-0302", "gaps", "rothe-s9"])
def test_grid_matches_render_grid_of_the_cells(d):
    # members whose top rows are empty are cropped below them
    kset = generate_kd(d)
    width, ncols = d.max_row + 1, d.max_col
    for n, state in enumerate(kset.states):
        assert kset.grid(n) == cell_grid(state, width, ncols)


def test_grid_of_every_state_of_a_box():
    # every cell subset of the 3x3 box in its layout, the empty one and
    # those with an empty top row or last column among them
    box = Diagram.of(*product((1, 2, 3), (1, 2, 3)))
    states = tuple(moves._pack(list(masks), 4) for masks in product(range(0, 16, 2), repeat=3))
    kset = KohnertSet(box, states)
    assert [kset.grid(n) for n in range(len(states))] == \
        [cell_grid(state, 4, 3) for state in states]
    assert kset.grid(0) == "(empty)"


if __name__ == "__main__":
    pytest.main([__file__])
