"""Tests for diagram labelings: membership, Yamanouchi members, expansions."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert.diagrams import (
    Diagram,
    GridParseError,
    composition_diagram,
    is_composition_diagram,
    rothe_diagram,
    weight,
)
from kohnert.labeling import (
    _component_key,
    _label,
    _label_diagram,
    _pair,
    _quasi_yamanouchi_core,
    _rect_labels,
    _relabel_rectify,
    _yamanouchi_core,
    component_demazure_data,
    demazure_expansion,
    is_vexillary_diagram,
    label_grid,
    labeling_with_reason,
    membership,
    membership_report,
    slide_expansion,
)
from kohnert.compositions import compositions_up_to
from kohnert.crystal import crystal_graph
from kohnert.moves import ResourceBoundError, generate_kd
from kohnert.perms import all_permutations, contains_2143
from kohnert.verify import _column_weight_candidates, southwest_in_box

from golden import COMPONENT_LARGE, COMPONENT_SMALL, D5, LETTER, MEMBERS
from oracle import (Labeling, _columns_of, _labeling_of, is_flagged,
                    is_kohnert_tableau, oracle_component_demazure_data,
                    oracle_component_key, oracle_label_pairing,
                    oracle_labeling_with_reason,
                    oracle_quasi_yamanouchi_diagrams, oracle_rect_labeling,
                    oracle_relabel_rectify, oracle_yamanouchi_diagrams,
                    southwest_hull, super_standard)

southwest_diagrams = st.sets(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                             max_size=6).map(southwest_hull)

# a worked fourteen-cell example: a labeled member T14 of the closure of
# D14, with its fully rectified labeling frozen below
D14 = Diagram.of((1, 2), (2, 2), (3, 2), (1, 4), (3, 4), (4, 4), (5, 4), (6, 4),
                 (3, 5), (4, 5), (5, 5), (4, 7), (7, 7), (8, 7))
L14_MAP = {
    (3, 5): 5, (4, 5): 5,
    (1, 4): 4, (3, 4): 4,
    (4, 3): 4, (5, 3): 5, (7, 3): 7,
    (1, 2): 2, (2, 2): 2, (3, 2): 2, (5, 2): 4, (6, 2): 4,
    (4, 1): 7, (8, 1): 7,
}
T14 = Diagram.of(*L14_MAP)
RECT14_MAP = {
    (1, 5): 5, (2, 5): 5,
    (1, 4): 4, (2, 4): 4,
    (3, 3): 4, (4, 3): 4, (5, 3): 4,
    (1, 2): 2, (2, 2): 2, (3, 2): 2, (4, 2): 2, (5, 2): 2,
    (3, 1): 5, (6, 1): 4,
}


def _labels(t, d):
    """The labels of t with respect to d, or None when no labeling fits."""
    return labeling_with_reason(t, d)[0]


def _rect(lab):
    """The rectified labeling, through the column-form engine."""
    return _labeling_of(_rect_labels(_columns_of(lab)))


def _pairing(lab, c):
    """_pair on columns c and c+1, as cells."""
    cols = _columns_of(lab, c + 1)
    partner, unpaired = _pair(cols[c - 1], cols[c])
    return ({(c + 1, r): (c, s) for r, s in partner.items()},
            [(c + 1, r) for r in unpaired])


def _relabeled(lab, c):
    """_relabel_rectify of column c+1 into column c, as a Labeling."""
    cols = _columns_of(lab, c + 1)
    _relabel_rectify(cols, c - 1)
    return _labeling_of(cols)


def test_labeling_validation():
    base = Diagram.of((1, 1), (2, 1))
    with pytest.raises(ValueError):
        Labeling.of(base, {(1, 1): 1})
    with pytest.raises(ValueError):
        Labeling.of(base, {(1, 1): 1, (2, 2): 1})
    with pytest.raises(ValueError):
        Labeling.of(base, {(1, 1): 0, (2, 1): 1})
    lab = Labeling.of(base, {(2, 1): 2, (1, 1): 1})
    assert lab.labels == (((1, 1), 1), ((2, 1), 2))
    assert lab.label((2, 1)) == 2
    assert lab.label_map == {(1, 1): 1, (2, 1): 2}


def test_is_strict():
    base = Diagram.of((1, 1), (1, 2))
    assert Labeling.of(base, {(1, 1): 1, (1, 2): 2}).is_strict()
    assert not Labeling.of(base, {(1, 1): 1, (1, 2): 1}).is_strict()


def test_labeling_grid_round_trip():
    base = Diagram.of((1, 1), (2, 1), (1, 2))
    lab = Labeling.of(base, {(1, 1): 1, (2, 1): 12, (1, 2): 2})
    assert label_grid(lab.label_map) == "2.\n1[12]"
    assert label_grid({}) == ""
    assert Labeling.from_grid(label_grid(lab.label_map)) == lab
    assert Labeling.from_grid("# note\n2.\n1[12]\n") == lab


def test_labeling_grid_errors():
    with pytest.raises(GridParseError) as err:
        Labeling.from_grid("10")
    assert "'0'" in str(err.value)
    with pytest.raises(GridParseError) as err:
        Labeling.from_grid("[x]")
    assert "bad bracketed label" in str(err.value)
    with pytest.raises(GridParseError):
        Labeling.from_grid("[12")


@given(st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                       st.integers(1, 12), min_size=1, max_size=8))
def test_labeling_grid_round_trips(mapping):
    lab = Labeling.of(Diagram.of(*mapping), mapping)
    assert Labeling.from_grid(label_grid(mapping)) == lab


def test_super_standard_and_flags():
    d = Diagram.of((1, 1), (2, 3))
    lab = super_standard(d)
    assert lab.label_map == {(1, 1): 1, (2, 3): 3}
    assert is_flagged(lab)
    assert not is_flagged(Labeling.of(Diagram.of((1, 2)), {(1, 2): 1}))


def test_labeling_diagram():
    lab = Labeling.of(Diagram.of((1, 1), (1, 2)), {(1, 1): 3, (1, 2): 1})
    assert _label_diagram(_columns_of(lab)) == Diagram.of((1, 3), (1, 1))
    with pytest.raises(ValueError):
        _label_diagram(_columns_of(Labeling.of(Diagram.of((1, 1), (1, 2)),
                                               {(1, 1): 1, (1, 2): 1})))


@given(st.sets(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=8))
def test_super_standard_labeling_diagram_round_trips(cells):
    d = Diagram.of(*cells)
    assert _label_diagram(_columns_of(super_standard(d))) == d


def test_label_pairing_examples():
    t = Diagram.of((1, 2), (1, 3), (2, 2))
    lab = Labeling.of(t, {(1, 2): 1, (1, 3): 2, (2, 2): 2})
    partner, unpaired = _pairing(lab, 1)
    assert partner == {(2, 2): (1, 3)}
    assert unpaired == []
    # no weakly lower label available above: the right cell stays unpaired
    lab2 = Labeling.of(t, {(1, 2): 2, (1, 3): 3, (2, 2): 1})
    partner2, unpaired2 = _pairing(lab2, 1)
    assert partner2 == {}
    assert unpaired2 == [(2, 2)]
    # equal labels weakly above: the tie goes to the lower cell
    tied = Labeling.of(Diagram.of((1, 2), (1, 3), (2, 1)), {(1, 2): 1, (1, 3): 1, (2, 1): 2})
    assert _pairing(tied, 1) == ({(2, 1): (1, 2)}, [])


def test_relabel_rectify_moves_cells_with_labels():
    t = Diagram.of((2, 1))
    lab = Labeling.of(t, {(2, 1): 5})
    relabeled = _relabeled(lab, 1)
    assert relabeled.base == Diagram.of((1, 1))
    assert relabeled.label_map == {(1, 1): 5}


def test_worked_example_labeling():
    assert _labels(T14, D14) == L14_MAP


def test_worked_example_rectified_labeling():
    lab = Labeling.of(T14, L14_MAP)
    rl = _rect(lab)
    assert rl.base == Diagram.of(*RECT14_MAP)
    assert rl.label_map == RECT14_MAP
    # the output is a fixed point
    assert _rect(rl) == rl


def test_worked_example_kohnert_tableau():
    rl = Labeling.of(Diagram.of(*RECT14_MAP), RECT14_MAP)
    assert is_kohnert_tableau(rl, (0, 5, 0, 6, 3))
    assert not is_kohnert_tableau(rl, (0, 5, 0, 6, 4))
    assert not is_kohnert_tableau(Labeling.of(T14, L14_MAP), (0, 5, 0, 6, 3))


def test_rectified_labels_can_merge_after_cells_settle():
    d = Diagram.of((1, 1), (2, 2))
    t = Diagram.of((1, 1), (2, 1))
    labels = _labels(t, d)
    assert labels == {(1, 1): 1, (2, 1): 2}
    rl = _rect(Labeling.of(t, labels))
    assert rl.base == t
    assert rl.label_map == {(1, 1): 1, (2, 1): 1}
    assert t in oracle_yamanouchi_diagrams(d)
    assert demazure_expansion(d) == [(1, 1), (2, 0)]


def test_labeling_with_reason_validation():
    with pytest.raises(ValueError):
        labeling_with_reason(Diagram.of((1, 1)), Diagram.of((1, 1), (2, 1)))


def test_membership_report_strings():
    assert membership_report(MEMBERS["K"], D5) == (True, "member")
    assert membership_report(Diagram.of((1, 1)), composition_diagram((0, 2))) == \
        (False, "column weights differ")
    assert membership_report(Diagram.of((1, 1), (2, 2)), composition_diagram((0, 2))) == \
        (False, "no labeling exists: label 2 has no admissible cell in column 1")
    assert membership_report(Diagram.of((1, 2), (2, 2)), composition_diagram((2, 0))) == \
        (False, "labeling is not flagged: label 1 below row 2 at column 1")
    with pytest.raises(ValueError):
        membership_report(Diagram.of((1, 1)), Diagram.of((1, 2), (2, 1)))


def test_membership_matches_search_in_small_boxes():
    for d in southwest_in_box(2, 2):
        member_set = generate_kd(d).member_set
        for t in _column_weight_candidates(d, 2, 3):
            assert membership(t, d) == (t in member_set), (t, d)


def test_self_labeling_is_super_standard():
    for d in southwest_in_box(3, 3):
        assert _labels(d, d) == super_standard(d).label_map


def _greedy_labeling(t, a):
    # independent reference labeling for composition sources: columns right
    # to left; in each, cells bottom to top take the smallest unused label i
    # with a_i >= c whose column-(c+1) twin sits weakly lower
    labels = {}
    for c in range(t.max_col, 0, -1):
        avail = [i for i in range(1, len(a) + 1) if a[i - 1] >= c]
        for r in sorted(t.col(c)):
            pick = None
            for i in avail:
                twin = next((s for s in t.col(c + 1)
                             if labels.get((c + 1, s)) == i), None)
                if twin is None or twin <= r:
                    pick = i
                    break
            if pick is None:
                return None
            avail.remove(pick)
            labels[(c, r)] = pick
    return labels


def _outcome(data, *args):
    try:
        return data(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def _labels_like_the_oracle(t, d):
    cols, reason = _label(t, d)
    lab = None if cols is None else _labeling_of(cols)
    assert (lab, reason) == oracle_labeling_with_reason(t, d), (t, d)
    assert labeling_with_reason(t, d) == (None if lab is None else lab.label_map, reason)
    assert _outcome(_component_key, t, d) == _outcome(oracle_component_key, t, d)
    if lab is None:
        return
    rl = _labeling_of(_rect_labels(cols))
    assert rl == oracle_rect_labeling(lab), (t, d)
    assert _yamanouchi_core(t, d) == (
        is_composition_diagram(rl.base) and all(v == r for (_, r), v in rl.labels))
    assert _quasi_yamanouchi_core(t, d) == all(
        lab.label((min(t.row(r)), r)) == r for r in {r for _, r in t}
        if not any(c >= min(t.row(r)) for c in t.row(r + 1)))


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_column_labeling_matches_the_oracle(d):
    kset = generate_kd(d)
    for t in kset.members:
        _labels_like_the_oracle(t, d)
    outsiders = (t for t in _column_weight_candidates(d, d.max_col, d.max_row + 1)
                 if t not in kset.member_set)
    for t in islice(outsiders, 30):
        _labels_like_the_oracle(t, d)


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                       st.integers(1, 6), min_size=1, max_size=10))
def test_labeling_operators_match_the_oracle_on_any_labeling(mapping):
    # labels from a short range repeat within columns, so label ties and
    # non-strict labelings come up
    lab = Labeling.of(Diagram.of(*mapping), mapping)
    for c in range(1, lab.base.max_col + 2):
        assert _pairing(lab, c) == oracle_label_pairing(lab, c)
        assert _relabeled(lab, c) == oracle_relabel_rectify(lab, c)
    assert _outcome(_rect, lab) == _outcome(oracle_rect_labeling, lab)


def test_labeling_matches_greedy_reference():
    for a in compositions_up_to(4, 3):
        d = composition_diagram(a)
        for t in generate_kd(d).members:
            labels = _labels(t, d)
            assert labels is not None
            assert labels == _greedy_labeling(t, a)


def test_yamanouchi_members_of_the_sample_closure():
    got = {LETTER[y] for y in oracle_yamanouchi_diagrams(D5)}
    assert got == {"A", "B"}
    assert demazure_expansion(D5) == [(0, 3, 1, 1), (0, 3, 2, 0)]


def test_composition_diagrams_are_their_own_yamanouchi_member():
    for a in ((0, 2), (1, 2), (0, 3, 2), (2, 0, 1)):
        d = composition_diagram(a)
        assert oracle_yamanouchi_diagrams(d) == [d]
        assert d in oracle_yamanouchi_diagrams(d)


def test_yamanouchi_requires_membership():
    # the scans refuse a non-southwest diagram as the expansions do
    d = Diagram.of((1, 2), (2, 1))
    assert _outcome(oracle_yamanouchi_diagrams, d) == _outcome(demazure_expansion, d)
    assert _outcome(oracle_quasi_yamanouchi_diagrams, d) == _outcome(slide_expansion, d)


def test_quasi_yamanouchi_members_of_the_sample_closure():
    got = {LETTER[t] for t in oracle_quasi_yamanouchi_diagrams(D5)}
    assert got == {"A", "B", "C", "G", "J", "N", "O"}
    assert slide_expansion(D5) == [
        (0, 3, 1, 1), (0, 3, 2, 0), (1, 3, 0, 1), (1, 3, 1, 0),
        (2, 2, 0, 1), (2, 2, 1, 0), (2, 3, 0, 0),
    ]


def test_yamanouchi_members_are_quasi_yamanouchi():
    for d in [D5] + southwest_in_box(3, 3, 5):
        if len(d) == 0:
            continue
        yam = set(oracle_yamanouchi_diagrams(d))
        quasi = set(oracle_quasi_yamanouchi_diagrams(d))
        assert yam <= quasi, d


def test_rectified_labels_are_constant_per_component():
    for letters, a in ((COMPONENT_SMALL, (0, 3, 2)), (COMPONENT_LARGE, (0, 3, 1, 1))):
        for key in letters:
            member = MEMBERS[key]
            rl = _rect(Labeling.of(member, _labels(member, D5)))
            assert _label_diagram(_columns_of(rl)) == composition_diagram(a), key
            assert is_kohnert_tableau(rl, a), key


@settings(deadline=None, max_examples=50)
@given(southwest_diagrams)
def test_key_expansion_matches_the_yamanouchi_oracle(d):
    n = d.max_row
    assert demazure_expansion(d) == \
        sorted(weight(y, n) for y in oracle_yamanouchi_diagrams(d))


@settings(deadline=None, max_examples=50)
@given(southwest_diagrams)
def test_slide_expansion_matches_the_quasi_yamanouchi_oracle(d):
    n = d.max_row
    assert slide_expansion(d) == \
        sorted(weight(t, n) for t in oracle_quasi_yamanouchi_diagrams(d))


def test_expansions_of_the_empty_diagram():
    assert demazure_expansion(Diagram.of()) == [()]
    assert slide_expansion(Diagram.of()) == [()]


@pytest.mark.parametrize("expand", [demazure_expansion, slide_expansion])
def test_expansion_budget_boundary(expand):
    size = len(generate_kd(D5).members)
    assert expand(D5, max_diagrams=size) == expand(D5)
    with pytest.raises(ResourceBoundError, match="KOHNERT_MAX_DIAGRAMS"):
        expand(D5, max_diagrams=size - 1)


def test_expansions_refuse_non_southwest_diagrams():
    d = Diagram.of((1, 2), (2, 1))
    with pytest.raises(ValueError) as err:
        demazure_expansion(d)
    assert str(err.value) == "Yamanouchi analysis requires a southwest diagram"
    with pytest.raises(ValueError) as err:
        slide_expansion(d)
    assert str(err.value) == "slide analysis requires a southwest diagram"


def test_is_vexillary_diagram_examples():
    assert not is_vexillary_diagram(D5)
    assert is_vexillary_diagram(composition_diagram((0, 3, 2)))
    assert is_vexillary_diagram(Diagram.of((1, 1), (1, 3), (2, 3)))
    assert not is_vexillary_diagram(Diagram.of((1, 1), (2, 2)))


def test_vexillary_theorem_check_examples():
    d3 = composition_diagram((0, 3, 2))
    assert len(demazure_expansion(D5)) != 1
    assert len(demazure_expansion(d3)) == 1
    for d in (D5, d3):
        assert (len(demazure_expansion(d)) == 1) == is_vexillary_diagram(d)
    with pytest.raises(ValueError):
        demazure_expansion(Diagram.of((1, 2), (2, 1)))


def test_rothe_vexillary_matches_pattern_avoidance():
    for w in all_permutations(4):
        d = rothe_diagram(w)
        single = len(demazure_expansion(d)) == 1
        assert single == is_vexillary_diagram(d)
        assert single == (not contains_2143(w))


def test_component_demazure_data():
    graph = crystal_graph(generate_kd(D5))
    small, large = graph.components
    assert component_demazure_data(small, D5) == ((3, 2, 0), (3, 1, 2), (0, 3, 2))
    assert component_demazure_data(large, D5) == ((3, 1, 1, 0), (4, 1, 2, 3), (0, 3, 1, 1))


def test_component_demazure_data_validation():
    graph = crystal_graph(generate_kd(D5))
    small, large = graph.components
    with pytest.raises(ValueError):
        component_demazure_data([], D5)
    with pytest.raises(ValueError):
        component_demazure_data(set(small) | set(large), D5)


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_component_demazure_data_matches_the_oracle(d):
    components = crystal_graph(generate_kd(d)).components
    cases = list(components)
    cases += [comp - {max(comp)} for comp in components]     # a member short
    cases += [a | b for a, b in zip(components, components[1:])]
    for case in cases:
        assert _outcome(component_demazure_data, case, d) == \
            _outcome(oracle_component_demazure_data, case, d)


if __name__ == "__main__":
    pytest.main([__file__])
