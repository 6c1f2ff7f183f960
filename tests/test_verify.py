"""Tests for the verification sweeps at toy scale."""

import hashlib
import multiprocessing
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import crystal, labeling, moves, verify
from kohnert.crystal import crystal_graph
from kohnert.diagrams import Diagram, is_southwest
from kohnert.labeling import _rectified_component, demazure_expansion
from kohnert.moves import _cells, generate_kd
from kohnert.tableaux import demazure_subset
from kohnert.verify import (SUITES, SuiteResult, component_isomorphic, random_diagram,
                            run_suite, southwest_in_box)

from golden import D5
from oracle import (EMPTY, is_composition_diagram, oracle_commute_case, oracle_membership_case,
                    oracle_raising, oracle_rectify, southwest_hull)

southwest_diagrams = st.sets(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                             max_size=6).map(southwest_hull)


def test_suite_result_summary_pass():
    result = SuiteResult("demo")
    result.checked = 7
    assert result.ok
    assert result.summary() == "PASS demo: 7 cases checked"


def test_suite_result_summary_failures():
    result = SuiteResult("demo", checked=3, failures=["a", "b"])
    assert not result.ok
    assert result.summary() == (
        "FAIL demo: 3 cases checked, 2 failures"
        "\n  counterexample: a"
        "\n  counterexample: b"
    )


def test_suite_result_summary_truncates():
    result = SuiteResult("demo", checked=9, failures=[str(k) for k in range(8)])
    text = result.summary()
    assert text.count("counterexample:") == 5
    assert text.endswith("... and 3 more")


def test_southwest_in_box():
    found = southwest_in_box(2, 2)
    assert len(found) == 14
    assert all(is_southwest(d) for d in found)
    assert all(d.max_col <= 2 and d.max_row <= 2 for d in found)
    sizes = [len(d) for d in found]
    assert sizes == sorted(sizes)
    assert len(southwest_in_box(2, 2, max_cells=1)) == 5


def test_random_diagram_is_seeded():
    a = random_diagram(random.Random(11), 4, 4)
    b = random_diagram(random.Random(11), 4, 4)
    assert a == b
    assert a.max_col <= 4 and a.max_row <= 4


TINY = {
    "kohnert-vs-pi": dict(max_parts=2, max_size=3),
    "schubert": dict(n=3),
    "closure": dict(box=(2, 2), max_cells=4),
    "commute": dict(samples=25, box=(3, 3)),
    "membership": dict(box=(2, 2), t_rows=3),
    "components": dict(box=(2, 2)),
    "yamanouchi": dict(box=(2, 2)),
    "slide": dict(box=(2, 2)),
    "vexillary": dict(box=(2, 2), n=3),
}


@pytest.mark.parametrize("name", SUITES)
def test_every_suite_passes_at_toy_scale(name):
    result = run_suite(name, **TINY[name])
    assert result.ok, result.summary()
    assert result.checked > 0
    assert result.summary().startswith(f"PASS {name}:")


def test_run_suite_can_fan_out():
    for name in SUITES:
        fanned = run_suite(name, **TINY[name], jobs=2)
        serial = run_suite(name, **TINY[name])
        assert (fanned.checked, fanned.failures) == (serial.checked, serial.failures), name


def _leftmost_raise_bit(low, high):
    """Raising that drops the leftmost unpaired cell, the high bit of the
    row masks: it leaves closures."""
    lone = crystal._lone(low, high)
    return 1 << lone.bit_length() - 1 if lone else 0


def test_crystal_invariant_failures_are_counterexamples(monkeypatch):
    monkeypatch.setattr(crystal, "_raise_bit", _leftmost_raise_bit)
    for name in ("closure", "components", "yamanouchi", "vexillary"):
        result = run_suite(name, **TINY[name])       # serial: no pool
        assert result.summary().startswith(f"FAIL {name}:")
        assert result.failures == ["D=((1, 2), (2, 2)): southwest closure not stable "
                                   "under raising at i=1: ((1, 2), (2, 2))"], name


def test_key_expansion_keeps_its_crystal_checks(monkeypatch):
    monkeypatch.setattr(crystal, "_raise_bit", _leftmost_raise_bit)
    with pytest.raises(AssertionError) as info:
        demazure_expansion(Diagram.of((1, 2), (2, 2)))
    assert str(info.value) == ("southwest closure not stable under raising at i=1: "
                               "((1, 2), (2, 2))")


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_components_sweep_rectifies_like_the_oracle(d):
    # the sweep's old check, on diagrams, is the reference: rectify each
    # member, raise the image, and compare with the image of its raise
    kset = generate_kd(d)
    graph = crystal_graph(kset)
    raised = {(t, i): u for t, i, u in graph.edges}
    position = {t: n for n, t in enumerate(kset.members)}
    expected = []
    for comp, top in zip(graph.components, graph.highest, strict=True):
        group = [position[t] for t in comp]
        _, _, a, images = _rectified_component([kset.states[n] for n in group],
                                               kset.states[position[top]],
                                               d.max_row + 1, d.max_col, d, {})
        rectified = {t: oracle_rectify(t) for t in comp}
        for n, state in zip(group, images):
            t = kset.members[n]
            assert _cells(state, len(a) + 1, max(a, default=0)) == rectified[t].sorted_cells
        for t in comp:
            for i in range(1, len(a)):
                lifted = raised.get((t, i))
                left = oracle_raising(rectified[t], i)
                right = None if lifted is None else rectified[lifted]
                if (lifted is None) != (left is None) or left != right:
                    expected.append(f"D={d.sorted_cells}: rectify does not intertwine "
                                    f"raising {i} at {t.sorted_cells}")
    checked, failures = verify._components_case(d)
    assert checked == len(graph.components)
    assert sorted(failures) == sorted(expected)


def _raises_but_row_1(state, spread, width, flips):
    """The raise scan with every raise at row 1 left out."""
    return ((i, flip) for i, flip in crystal._raises(state, spread, width, flips)
            if i != 1)


def test_components_sweep_reports_broken_intertwining(monkeypatch):
    # only the raise of rectified states breaks; the crystal graph keeps
    # the true scan
    monkeypatch.setattr(labeling, "_raises", _raises_but_row_1)
    result = run_suite("components", **TINY["components"])
    assert result.checked == 15
    assert result.failures == [
        f"D={d}: rectify does not intertwine raising 1 at {t}" for d, t in (
            ("((1, 2),)", "((1, 2),)"),
            ("((2, 2),)", "((2, 2),)"),
            ("((1, 2), (2, 2))", "((1, 2), (2, 1))"),
            ("((1, 2), (2, 2))", "((1, 2), (2, 2))"),
            ("((1, 1), (1, 2), (2, 2))", "((1, 1), (1, 2), (2, 2))"))]


def test_sweeps_hold_the_expansion_routes_to_their_oracles(monkeypatch):
    monkeypatch.setattr(verify, "_key_terms", lambda *core: [])
    monkeypatch.setattr(verify, "_slide_terms", lambda f: [])
    for name, oracle in (("yamanouchi", "Yamanouchi"), ("slide", "quasi-Yamanouchi")):
        result = run_suite(name, **TINY[name])
        assert result.failures and all(item.endswith(f"differs from the {oracle} weights")
                                       for item in result.failures), name


def test_yamanouchi_case_builds_one_closure(monkeypatch):
    search, calls = moves._closure, []

    def counted(d, limit):
        calls.append(d)
        return search(d, limit)
    for module in (moves, labeling, verify):
        monkeypatch.setattr(module, "_closure", counted)
    assert verify._yamanouchi_case(D5) == (1, [])
    assert calls == [D5]
    calls.clear()
    assert verify._slide_case(D5) == (1, [])
    assert calls == [D5]
    calls.clear()
    # besides d, only the tile check searches the closure of each D(a)
    assert verify._components_case(D5) == (2, [])
    assert calls[0] == D5 and len(calls) == 3
    assert D5 not in calls[1:] and all(is_composition_diagram(c) for c in calls[1:])


def test_slide_case_labels_each_member_once(monkeypatch):
    label, calls = labeling._label, []

    def counted(cols, d):
        calls.append(cols)
        return label(cols, d)
    for module in (labeling, verify):
        monkeypatch.setattr(module, "_label", counted)
    assert verify._slide_case(D5) == (1, [])
    assert len(calls) == len(set(map(tuple, calls))) == len(generate_kd(D5).states) == 19
    assert all(type(cols) is list and all(type(m) is int for m in cols) for cols in calls)


def test_jobs_are_capped_at_the_cpu_count(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for multiprocessing.Pool: records its size, maps in process."""
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, func, iterable, chunksize=1):
            return [func(item) for item in iterable]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    result = run_suite("schubert", n=3, jobs=1000)
    assert sizes == [3]
    assert (result.checked, result.failures) == (6, [])
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_suite("schubert", n=3, jobs=1000).checked == 6
    assert sizes == [3]          # one CPU: no pool at all


def test_component_isomorphic_reports_mismatches():
    states, width, ncols = generate_kd(D5).states, D5.max_row + 1, D5.max_col
    edges, groups, (small_top, large_top) = crystal._crystal(states, D5)
    raised = {(n, i): m for n, i, m in edges}
    small, large = ({n: _cells(states[n], width, ncols) for n in group} for group in groups)
    lam, w, a, _ = _rectified_component([states[n] for n in small], states[small_top],
                                        width, ncols, D5, {})
    small_crystal = demazure_subset(lam, w, len(a))
    assert component_isomorphic(small, small_top, raised, small_crystal, len(a)) is None
    assert component_isomorphic(large, large_top, raised, small_crystal,
                                len(a)) == "sizes differ: 10 vs 9"
    (t, i), u = min((key, u) for key, u in raised.items() if key[0] in small)
    dropped = dict(raised)
    del dropped[(t, i)]
    merged = dict(raised)
    merged[(min(x for x in small if (x, i) not in raised and x != u), i)] = u
    for wrong in (dropped, merged):
        assert component_isomorphic(small, small_top, wrong, small_crystal,
                                    len(a)) is not None


@st.composite
def boxed_diagrams(draw):
    """A box of up to 5x5 and a diagram inside it."""
    cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.sets(st.tuples(st.integers(1, cols), st.integers(1, rows))))
    return (cols, rows), Diagram(frozenset(cells))


@settings(deadline=None, max_examples=300)
@given(boxed_diagrams())
def test_commute_case_matches_the_diagram_oracle(case):
    box, t = case
    assert verify._commute_case(box, t) == oracle_commute_case(box, t)


def test_commute_sweep_pins_the_lines_of_a_broken_raise(monkeypatch):
    # raising that drops the leftmost unpaired cell does not commute with
    # rectification; these are the lines the sweep printed on whole diagrams
    monkeypatch.setattr(crystal, "_raise_bit", _leftmost_raise_bit)
    result = verify.verify_commute(200, (4, 4))
    assert result.checked == 200 and len(result.failures) == 46
    assert result.failures[0] == "T=((2, 4), (3, 3), (3, 4), (4, 1), (4, 3), (4, 4)), r=2, c=3"
    assert result.failures[-1] == "T=((1, 3), (2, 3), (3, 3), (4, 1), (4, 3)), r=2, c=1"
    assert hashlib.sha256("\n".join(result.failures).encode()).hexdigest() == \
        "d9383f0f8486c872eb7ee50a2e7ff2defa12b0cf10d84f6caf0973539497546a"


MEMBERSHIP_SWEEPS = [((3, 3), 2), ((3, 3), 3), ((3, 3), 4), ((2, 4), 4), ((4, 2), 4)]


def _membership_sweeps(case):
    """The column search and the per-candidate oracle over every southwest
    diagram of the sweeps above, as (checked, failures) pairs."""
    searched, expected = [], []
    for (cols, rows), t_rows in MEMBERSHIP_SWEEPS:
        for d in southwest_in_box(cols, rows):
            searched.append(verify._membership_case(t_rows, d))
            expected.append(case(cols, t_rows, d))
    return searched, expected


def test_membership_search_matches_the_candidate_oracle():
    searched, expected = _membership_sweeps(oracle_membership_case)
    assert searched == expected
    assert sum(checked for checked, _ in searched) == 418 + 2882 + 14835 + 2450 + 23985


def _unanchored(label_column):
    """Label each column as if nothing lay to its right."""
    return lambda mask, labels, anchor: label_column(mask, labels, {})


def _unwalked(col, rect):
    """Put a column before the suffix without rectifying."""
    return [col, *rect]


@pytest.mark.parametrize("name, fault", [("_label_column", _unanchored(labeling._label_column)),
                                         ("_walk", _unwalked)], ids=["unanchored", "unwalked"])
def test_membership_search_reports_labeller_faults_like_the_oracle(monkeypatch, name, fault):
    for module in (labeling, verify):
        monkeypatch.setattr(module, name, fault)
    searched, expected = _membership_sweeps(oracle_membership_case)
    assert [checked for checked, _ in searched] == [checked for checked, _ in expected]
    lines = [line for _, failures in searched for line in failures]
    assert lines and lines == [line for _, failures in expected for line in failures]


def test_the_empty_diagram_is_one_member():
    assert verify._membership_case(4, EMPTY) == oracle_membership_case(3, 4, EMPTY) == (1, [])


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nonsense")


if __name__ == "__main__":
    pytest.main([__file__])
