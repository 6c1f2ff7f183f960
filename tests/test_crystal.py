"""Tests for the crystal operators on diagrams and the component graph."""

import io
import json
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import crystal, labeling
from kohnert.cli import main
from kohnert.crystal import (
    _crystal,
    _lone,
    _raised,
    _raises,
    _rectified,
    _rectify_step,
    crystal_graph,
    crystal_to_dot,
    raising,
    rectify,
    rectify_step,
)
from kohnert.diagrams import Diagram, _columns, composition_diagram
from kohnert.labeling import component_demazure_data
from kohnert.moves import _cells, _closure, _pack, _spread, generate_kd
from kohnert.verify import southwest_in_box

import oracle
from golden import (
    COMPONENT_LARGE,
    COMPONENT_SMALL,
    D5,
    LETTER,
    MEMBERS,
    RAISING_EDGES,
    RECTIFIED,
)
from oracle import (_bracket, crystal_components_json, is_composition_diagram,
                    oracle_crystal, oracle_crystal_graph, oracle_crystal_to_dot, oracle_is_rectified,
                    oracle_raising, oracle_rectify, oracle_rectify_column,
                    oracle_rectify_step, southwest_hull, to_grid)

cell_sets = st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=8)
southwest_diagrams = st.sets(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                             max_size=6).map(southwest_hull)


def test_row_pairing_prefers_same_column():
    d = Diagram.of((2, 1), (2, 2), (1, 2))
    raised = raising(d, 1)
    assert raised == Diagram.of((1, 1), (2, 1), (2, 2))
    assert raising(raised, 1) is None


def test_row_pairing_brackets_leftward():
    d = Diagram.of((1, 1), (2, 2))
    assert raising(d, 1) is None


def test_column_pairing_prefers_same_row():
    d = Diagram.of((1, 1), (1, 3), (2, 1))
    assert rectify_step(d, 1) == d
    assert oracle_is_rectified(d)


def test_column_pairing_reaches_upward():
    d = Diagram.of((1, 3), (2, 1))
    assert rectify_step(d, 1) == d
    assert oracle_is_rectified(d)


def test_pairing_index_range():
    d = Diagram.of((1, 1))
    with pytest.raises(ValueError, match="row index must be >= 1"):
        raising(d, 0)
    with pytest.raises(ValueError, match="column index must be >= 1"):
        rectify_step(d, 0)


def _drained(d: Diagram, k: int) -> int:
    """Mask of the rows of the column-(k+1) cells that
    oracle_rectify_column moves into column k."""
    after = oracle_rectify_column(d, k)
    return sum(1 << r for r in d.col(k + 1) if r not in after.col(k + 1))


@settings(max_examples=300, deadline=None)
@given(cell_sets)
def test_operators_match_the_bracket_oracle(cells):
    d = Diagram.of(*cells)
    cols = _columns(d) + [0] * 6
    for k in range(1, 6):
        assert raising(d, k) == oracle_raising(d, k), k
        assert rectify_step(d, k) == oracle_rectify_step(d, k), k
        # the one-pass column rule that rectify relies on
        assert _lone(cols[k - 1], cols[k]) == _drained(d, k), k
    assert rectify(d) == oracle_rectify(d)


def test_packed_steps_and_their_wrappers_match_the_oracles_on_the_3x3_box():
    # every cell subset of the box, packed in the box's layout: four bits a
    # column, so rows 1 to 3 and every row pair up to (2, 3) are in the fields
    grid = list(product(range(1, 4), range(1, 4)))
    spread = _spread(4, 3)
    for bits in range(1 << len(grid)):
        d = Diagram(frozenset(cell for k, cell in enumerate(grid) if bits >> k & 1))
        state = _pack(_columns(d) + [0] * (3 - d.max_col), 4)
        for k in range(1, 5):
            assert raising(d, k) == oracle_raising(d, k), (d, k)
            assert rectify_step(d, k) == oracle_rectify_step(d, k), (d, k)
        for k in (1, 2):
            raised = _raised(state, k, spread)
            expected = oracle_raising(d, k)
            assert (None if raised is None else Diagram(frozenset(_cells(raised, 4, 3)))) \
                == expected, (d, k)
            assert Diagram(frozenset(_cells(_rectify_step(state, k, 4, 3), 4, 3))) == \
                oracle_rectify_step(d, k), (d, k)


def _mirror(mask: int, bits: int) -> int:
    """The mask with its lowest ``bits`` bits in reverse order."""
    return int(format(mask, f"0{bits}b")[::-1], 2)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1))
def test_lone_and_its_mirrored_scan_match_the_bracket_oracle(openers, closers):
    closers &= ~openers
    # scanning from the high bit down is scan key -k for bit k
    _, free, lone = _bracket([(-k, k) for k in range(12) if openers >> k & 1],
                             [(-k, k) for k in range(12) if closers >> k & 1])
    assert _lone(openers, closers) == sum(1 << k for k in lone)
    # the free openers of a scan are the lone closers of the mirrored scan
    mirrored = _lone(_mirror(closers, 12), _mirror(openers, 12))
    assert _mirror(mirrored, 12) == sum(1 << k for k in free)


def test_raising_matches_hand_table():
    expected = {(x, i): y for x, i, y in RAISING_EDGES}
    for x in MEMBERS:
        for i in (1, 2, 3):
            image = raising(MEMBERS[x], i)
            if (x, i) in expected:
                assert image == MEMBERS[expected[(x, i)]], (x, i)
            else:
                assert image is None, (x, i)


def test_rectify_step_moves_lowest_unpaired_cell():
    d = Diagram.of((2, 1), (2, 3))
    assert rectify_step(d, 1) == Diagram.of((1, 1), (2, 3))


def test_rectify_column_drains_a_column():
    d = Diagram.of((2, 1), (2, 3))
    left, right = _columns(d)
    assert _lone(left, right) == right == _drained(d, 1)
    assert oracle_rectify_column(d, 1) == Diagram.of((1, 1), (1, 3))


def test_rectified_members_match_hand_table():
    for key, member in MEMBERS.items():
        assert rectify(member) == RECTIFIED[key], key


def test_rectify_is_idempotent():
    for key in MEMBERS:
        image = rectify(MEMBERS[key])
        assert oracle_is_rectified(image)
        assert rectify(image) == image


def _layout_diagram(cols) -> Diagram:
    """The diagram whose column masks, column 1 first, are ``cols``."""
    return Diagram(frozenset((k + 1, r) for k, col in enumerate(cols)
                             for r in range(col.bit_length()) if col >> r & 1))


def test_rectifier_matches_the_oracle_on_every_small_layout():
    # every tuple of 2-4 column masks over rows 1-4, empty middle and trailing
    # columns included, through one flips memo; the image drops its trailing
    # empty fields
    width, flips = 5, {}
    for ncols in (2, 3, 4):
        for cols in product(range(0, 1 << width, 2), repeat=ncols):
            expected = _pack(_columns(oracle_rectify(_layout_diagram(cols))), width)
            assert _rectified(_pack(cols, width), width, ncols, flips) == expected, cols


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_rectifier_matches_the_oracle_on_wide_states(rows, ncols, data):
    width = rows + 1
    # row 0 is bit 0 of each field, and holds no cell
    state = data.draw(st.integers(0, (1 << width * ncols) - 1)) & ~_spread(width, ncols)
    cols = [state >> (ncols - 1 - k) * width & (1 << width) - 1 for k in range(ncols)]
    expected = _pack(_columns(oracle_rectify(_layout_diagram(cols))), width)
    assert _rectified(state, width, ncols, {}) == expected


def test_a_rectifier_that_leaves_a_cell_behind_fails_the_tile_check(monkeypatch, capsys):
    lone, rectified = crystal._lone, crystal._rectified

    def lazy(state, width, ncols, flips):
        # each column pair keeps its lowest unpaired right-hand cell; the
        # rule is changed for rectification alone, so raising stays true
        with monkeypatch.context() as patch:
            patch.setattr(crystal, "_lone", lambda low, high: (x := lone(low, high)) & x - 1)
            return rectified(state, width, ncols, {})

    monkeypatch.setattr(labeling, "_rectified", lazy)
    tile_check = "misses the composition closure|not injective"
    for comp in crystal_graph(generate_kd(D5)).components:
        with pytest.raises(AssertionError, match=tile_check):
            component_demazure_data(comp, D5)
    assert main(["crystal", "--perm", "2,1,4,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err in ("error: rectified component misses the composition closure\n",
                            "error: rectification is not injective on the component\n")


def test_is_rectified_examples():
    assert oracle_is_rectified(composition_diagram((0, 3, 2)))
    assert not oracle_is_rectified(Diagram.of((2, 1)))
    assert not oracle_is_rectified(Diagram.of((1, 1), (3, 1)))
    assert oracle_is_rectified(Diagram.of((1, 3), (2, 1)))


def test_rectify_of_southwest_is_a_composition_diagram():
    assert rectify(D5) == composition_diagram((0, 3, 1, 1))
    for d in southwest_in_box(3, 3):
        assert is_composition_diagram(rectify(d))


@given(cell_sets, st.integers(1, 4), st.integers(1, 4))
def test_raising_commutes_with_rectification_steps(cells, r, c):
    t = Diagram.of(*cells)
    lifted = raising(t, r)
    left = raising(rectify_step(t, c), r)
    if lifted is None:
        assert left is None
    else:
        assert left == rectify_step(lifted, c)


def test_crystal_components_match_hand_table():
    graph = crystal_graph(generate_kd(D5))
    letters = [frozenset(LETTER[t] for t in comp) for comp in graph.components]
    assert letters == [COMPONENT_SMALL, COMPONENT_LARGE]
    assert [LETTER[t] for t in graph.highest] == ["S", "R"]
    edges = {(LETTER[t], i, LETTER[u]) for t, i, u in graph.edges}
    assert edges == set(RAISING_EDGES)


def test_non_southwest_sources_need_an_override():
    kset = generate_kd(Diagram.of((1, 2), (2, 2), (2, 1)))
    with pytest.raises(ValueError):
        crystal_graph(kset)


@settings(deadline=None, max_examples=50)
@given(southwest_diagrams)
def test_crystal_components_partition_the_closure(d):
    graph = crystal_graph(generate_kd(d))
    members = set(graph.members)
    assert sum(len(comp) for comp in graph.components) == len(members)
    assert set().union(*graph.components) == members
    where = {t: k for k, comp in enumerate(graph.components) for t in comp}
    for t, _, u in graph.edges:
        assert where[t] == where[u]
    keys = [(len(comp), min(t.sorted_cells for t in comp)) for comp in graph.components]
    assert keys == sorted(keys)
    has_out = {t for t, _, _ in graph.edges}
    for comp, top in zip(graph.components, graph.highest, strict=True):
        assert [t for t in comp if t not in has_out] == [top]


@settings(deadline=None, max_examples=60)
@given(southwest_diagrams)
def test_packed_operators_match_the_oracles_on_southwest_closures(d):
    kset = generate_kd(d)
    assert crystal_graph(kset) == oracle_crystal_graph(kset)
    for t in kset.members:
        assert rectify(t) == oracle_rectify(t)


@settings(deadline=None, max_examples=60)
@given(southwest_diagrams)
def test_packed_key_path_matches_the_diagram_path(d):
    width, ncols = d.max_row + 1, d.max_col
    kset = generate_kd(d)
    assert kset.states == tuple(_pack(_columns(t), width) for t in kset.members)
    states, _ = _closure(d, len(kset.members))
    states = list(states)
    _, _, highest = _crystal(states, d)
    assert sorted(_cells(states[n], width, ncols) for n in highest) == \
        sorted(t.sorted_cells for t in crystal_graph(kset).highest)
    spread = _spread(width, ncols)
    for t, state in zip(kset.members, kset.states):
        raised = dict(_raises(state, spread, width, {}))
        for i in range(1, d.max_row + 1):
            u = oracle_raising(t, i)
            flip = raised.get(i)
            assert (u is None) == (flip is None), (t, i)
            if u is not None:
                assert _cells(state ^ flip, width, ncols) == u.sorted_cells


def _held_to_the_search(states, d):
    """``_crystal`` on ``states`` against the breadth-first search of
    ``oracle_crystal``: the same edges, the same groups in the same order,
    each in increasing positions, and the same tops.  Returns the count
    of states."""
    edges, groups, highest = _crystal(states, d)
    searched_edges, searched_groups, searched_highest = oracle_crystal(states, d)
    assert edges == searched_edges, d
    assert groups == [sorted(group) for group in searched_groups], d
    assert highest == searched_highest, d
    return len(states)


@settings(deadline=None, max_examples=60)
@given(southwest_diagrams)
def test_grouping_by_top_matches_the_search(d):
    # the members' sorted states, and the closure's states in set order,
    # whose positions do not follow the state order
    kset = generate_kd(d)
    _held_to_the_search(kset.states, d)
    _held_to_the_search(list(_closure(d, len(kset.states))[0]), d)


def test_grouping_by_top_matches_the_search_on_every_4x4_box_diagram():
    members = 0
    for d in southwest_in_box(4, 4):
        members += _held_to_the_search(generate_kd(d).states, d)
    assert members == 86886


@given(cell_sets)
def test_every_raise_lowers_the_packed_state(cells):
    d = Diagram.of(*cells)
    width = d.max_row + 1
    state = _pack(_columns(d), width)
    for _, flip in _raises(state, _spread(width, d.max_col), width, {}):
        assert state ^ flip < state


def test_a_component_with_two_tops_is_refused(monkeypatch):
    # a member of the first component, below its top, gains a raise into
    # the second component, whose top it then reaches too
    states = generate_kd(D5).states
    _, groups, highest = _crystal(states, D5)
    n = next(n for n in groups[0] if n != highest[0])
    jump = states[n] ^ states[groups[1][0]]
    raises = crystal._raises

    def joined(state, spread, width, flips):
        yield from raises(state, spread, width, flips)
        if state == states[n]:
            yield 1, jump
    monkeypatch.setattr(crystal, "_raises", joined)
    monkeypatch.setattr(oracle, "_raises", joined)
    for build in (_crystal, oracle_crystal):
        with pytest.raises(AssertionError, match="component without a unique highest weight"):
            build(states, D5)


def _dot_of(d, labels):
    kset = generate_kd(d)
    edges, groups, _ = _crystal(kset.states, d)
    return crystal_to_dot(kset, edges, groups, labels)


def test_crystal_dot_output():
    text = _dot_of(D5, ["first", "second"])
    assert text == _dot_of(D5, ["first", "second"])
    assert text.startswith("digraph kohnert_crystal")
    assert "component 0: first" in text
    assert "component 1: second" in text
    assert text.count(" -> ") == len(RAISING_EDGES)
    for color in ("blue", "purple", "violet"):
        assert color in text


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_crystal_command_matches_the_reference_printer(d):
    kset = generate_kd(d)
    graph = crystal_graph(kset)
    labels = ["lam=(%s) w=(%s) a=(%s)" % tuple(",".join(map(str, part)) for part in
                                               component_demazure_data(comp, d))
              for comp in graph.components]
    with TemporaryDirectory() as tmp:
        source = Path(tmp) / "d.txt"
        source.write_text(to_grid(d) + "\n")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["crystal", "--input", str(source)]) == 0
    assert out.getvalue() == oracle_crystal_to_dot(graph, labels)


def test_crystal_components_json():
    graph = crystal_graph(generate_kd(D5))
    data = json.loads(crystal_components_json(graph))
    assert [entry["size"] for entry in data] == [9, 10]
    assert data[0]["partition"] == [3, 2]
    assert data[1]["partition"] == [3, 1, 1]
    tops = [Diagram.of(*map(tuple, entry["highest_weight_diagram"])) for entry in data]
    assert tops == [MEMBERS["S"], MEMBERS["R"]]


if __name__ == "__main__":
    pytest.main([__file__])
