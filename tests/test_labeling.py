"""Tests for diagram labelings: membership, Yamanouchi members, expansions."""

from collections import Counter
from contextlib import contextmanager
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kohnert import labeling
from kohnert.diagrams import (
    Diagram,
    GridParseError,
    _columns,
    composition_diagram,
    rothe_diagram,
    weight,
)
from kohnert.labeling import (
    _component_key,
    _label,
    _mask,
    _pair,
    _quasi_yamanouchi_core,
    _rectified_labels,
    _relabel_rectify,
    _walk,
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
from kohnert.crystal import _lone, crystal_graph
from kohnert.moves import ResourceBoundError, generate_kd, kohnert_polynomial
from kohnert.perms import all_permutations, contains_2143
from kohnert.polynomials import expand_in_basis
from kohnert.verify import southwest_in_box

import oracle
from golden import COMPONENT_LARGE, COMPONENT_SMALL, D5, LETTER, MEMBERS
from oracle import (Labeling, _column_weight_candidates, _columns_of, _label_by_sweeps,
                    _label_diagram, _labeling_of, _rect_labels, is_composition_diagram,
                    is_flagged, is_kohnert_tableau, oracle_component_demazure_data,
                    oracle_component_key, oracle_is_vexillary_diagram, oracle_label_pairing,
                    oracle_labeling_with_reason,
                    oracle_quasi_yamanouchi_diagrams, oracle_rect_labeling,
                    oracle_relabel_rectify, oracle_walk, oracle_yamanouchi_core,
                    oracle_yamanouchi_diagrams, row, southwest_hull, super_standard)

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
    """The rectified labeling, by the from-scratch sweeps of the oracle."""
    return _labeling_of(_rect_labels(_columns_of(lab)))


def _rectified(t, d):
    """The labeller's whole rectified labeling of t with respect to d."""
    cols, suffix, _ = _label(_columns(t), d)
    return _labeling_of(_rectified_labels(cols, suffix))


def _pairing(lab, c, pair=_pair):
    """``pair`` on columns c and c+1, as cells."""
    cols = _columns_of(lab, c + 1)
    partner, unpaired = pair(cols[c - 1], cols[c])
    return ({(c + 1, r): (c, s) for r, s in partner.items()},
            [(c + 1, r) for r in unpaired])


def _in_place(cols, k):
    """``_relabel_rectify`` on the columns at k and k+1 of a column form,
    written back; says whether anything changed."""
    pair = _relabel_rectify(cols[k], cols[k + 1])
    if pair is not None:
        cols[k:k + 2] = pair
    return pair is not None


def _relabeled(lab, c, relabel=_in_place):
    """``relabel``, in place, of column c+1 into column c, as a Labeling."""
    cols = _columns_of(lab, c + 1)
    relabel(cols, c - 1)
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
    # equal labels weakly above, which the labeller's strict columns never
    # hold: the oracle's tie goes to the lower cell
    tied = Labeling.of(Diagram.of((1, 2), (1, 3), (2, 1)), {(1, 2): 1, (1, 3): 1, (2, 1): 2})
    assert _pairing(tied, 1, oracle._pair) == ({(2, 1): (1, 2)}, [])


def test_relabel_rectify_moves_cells_with_labels():
    t = Diagram.of((2, 1))
    lab = Labeling.of(t, {(2, 1): 5})
    relabeled = _relabeled(lab, 1)
    assert relabeled.base == Diagram.of((1, 1))
    assert relabeled.label_map == {(1, 1): 5}


def test_worked_example_labeling():
    assert _labels(T14, D14) == L14_MAP


def test_worked_example_rectified_labeling():
    rl = _rectified(T14, D14)
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
    rl = _rectified(t, d)
    assert rl.base == t
    assert rl.label_map == {(1, 1): 1, (2, 1): 1}
    assert t in oracle_yamanouchi_diagrams(d)
    assert demazure_expansion(d) == [(1, 1), (2, 0)]


def test_labeling_with_reason_validation():
    with pytest.raises(ValueError):
        labeling_with_reason(Diagram.of((1, 1)), Diagram.of((1, 1), (2, 1)))


def test_labeling_with_reason_refuses_a_source_that_is_not_southwest():
    not_southwest = Diagram.of((1, 2), (2, 1))
    for t in (Diagram.of((1, 1)), Diagram.of((1, 1), (2, 1))):
        with pytest.raises(ValueError, match="southwest"):
            labeling_with_reason(t, not_southwest)


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
    cols, suffix, reason = _label(_columns(t), d)
    lab = None if cols is None else _labeling_of(cols)
    assert (lab, reason) == oracle_labeling_with_reason(t, d), (t, d)
    assert labeling_with_reason(t, d) == (None if lab is None else lab.label_map, reason)
    assert _outcome(_component_key, _columns(t), d) == _outcome(oracle_component_key, t, d)
    if lab is None:
        return
    whole = _rectified_labels(cols, suffix)
    yamanouchi, quasi = _yamanouchi_core(whole), _quasi_yamanouchi_core(cols)
    assert _labeling_of(cols) == lab, (t, d)    # rectifying leaves the labeling as it was
    rl = _labeling_of(whole)
    assert rl == oracle_rect_labeling(lab), (t, d)
    assert yamanouchi == (
        is_composition_diagram(rl.base) and all(v == r for (_, r), v in rl.labels))
    assert quasi == all(
        lab.label((min(row(t, r)), r)) == r for r in {r for _, r in t}
        if not any(c >= min(row(t, r)) for c in row(t, r + 1)))


def _members_and_outsiders(d):
    """The closure of d, then up to 30 diagrams with d's column weights
    outside it."""
    kset = generate_kd(d)
    outsiders = (t for t in _column_weight_candidates(d, d.max_col, d.max_row + 1)
                 if t not in kset.member_set)
    return [*kset.members, *islice(outsiders, 30)]


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_column_labeling_matches_the_oracle(d):
    for t in _members_and_outsiders(d):
        _labels_like_the_oracle(t, d)


def test_the_walk_matches_the_sweeps_on_every_3x3_candidate():
    # each column walked onto the rectified suffix, against from-scratch
    # sweeps of every suffix and of the whole labeling
    cases = 0
    for d in southwest_in_box(3, 3):
        for t in _column_weight_candidates(d, 3, 4):
            cases += 1
            cols = _columns(t)
            labels, suffix, reason = _label(cols, d)
            assert (labels, reason) == _label_by_sweeps(cols, d), (t, d)
            if labels is not None:
                assert suffix == _rect_labels([dict(col) for col in labels[1:]]), (t, d)
                assert _rectified_labels(labels, suffix) == \
                    _rect_labels([dict(col) for col in labels]), (t, d)
    assert cases == 14835


@pytest.fixture
def pair_calls(monkeypatch):
    """The arguments of each ``_relabel_rectify`` call the test makes."""
    relabel, calls = labeling._relabel_rectify, []

    def counted(left, right):
        calls.append((left, right))
        return relabel(left, right)
    monkeypatch.setattr(labeling, "_relabel_rectify", counted)
    return calls


def test_labelling_a_row_rectifies_each_column_once(pair_calls):
    # twelve cells in row 1 label as 1 and never move: one pair check per
    # walk, where sweeping each suffix from scratch made 55
    d = composition_diagram((12,))
    cols, _, reason = _label(_columns(d), d)
    assert reason is None and _labeling_of(cols) == super_standard(d)
    assert len(pair_calls) < 24


def test_labelling_the_s8_key_tops_re_runs_no_pair(pair_calls):
    # each walk passes each pair once: the walk that stepped back after a
    # changed pair made 852 pair calls on this key expansion
    assert len(demazure_expansion(rothe_diagram((2, 1, 5, 4, 3, 8, 7, 6)))) == 24
    assert len(pair_calls) <= 404


def _rows(mask):
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


@contextmanager
def _labeller_held_to_the_oracles():
    """Check every ``_walk`` call the labeller makes against ``oracle_walk``,
    and every ``_relabel_rectify`` call against the copy in ``oracle`` of
    the operators that paired by the bracket rule, broke label ties and
    traded with the largest-label candidate, on copies of their
    arguments.  Each walk asserts L1, every column held has distinct
    labels, on the columns it takes and gives; each pair call asserts L1
    on its columns, L2, the rows ``_pair`` leaves unpaired are the rows
    ``_lone`` leaves lone, L3, no trade step beside two or more unpaired
    rows has two candidates, and that it writes neither column.  Yields
    the count of walk and pair calls checked, of trades made and of
    trade steps with two candidates or more."""
    walk, relabel, calls = labeling._walk, labeling._relabel_rectify, Counter()

    def strict(cols):
        return all(len(set(col.values())) == len(col) for col in cols)

    def checked_walk(col, rect):
        assert strict([col, *rect]), (col, rect)
        expected = oracle_walk(dict(col), [dict(part) for part in rect])
        got = walk(col, rect)
        assert got == expected and strict(got), (col, rect)
        calls["walk"] += 1
        return got

    def checked_relabel(left, right):
        assert strict([left, right]), (left, right)
        paired = _pair(left, right)
        assert paired == oracle._pair(left, right), (left, right)
        assert sorted(paired[1]) == _rows(_lone(_mask(left), _mask(right))), (left, right)
        before, expected, trades = (dict(left), dict(right)), [dict(left), dict(right)], []
        changed = oracle._relabel_rectify(expected, 0, trades)
        assert max(trades, default=0) <= 1 or len(paired[1]) == 1, before    # L3
        got = relabel(left, right)
        assert (left, right) == before, before
        assert got == (tuple(expected) if changed else None), before
        calls["pair"] += 1
        calls["trade"] += sum(count > 0 for count in trades)
        calls["choice"] += sum(count > 1 for count in trades)
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(labeling, "_walk", checked_walk)
        patch.setattr(labeling, "_relabel_rectify", checked_relabel)
        yield calls


def _label_and_rectify(t, d):
    cols, suffix, _ = _label(_columns(t), d)
    if cols is not None:
        _rectified_labels(cols, suffix)


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_the_walk_matches_the_stepping_back_walk(d):
    with _labeller_held_to_the_oracles() as calls:
        for t in _members_and_outsiders(d):
            _label_and_rectify(t, d)
    assert (calls["walk"] or len(d) == 0) and (calls["pair"] or d.max_col < 2)


def test_the_walk_matches_the_stepping_back_walk_on_every_4x4_box_member():
    members = 0
    with _labeller_held_to_the_oracles() as calls:
        for d in southwest_in_box(4, 4):
            for t in generate_kd(d).members:
                members += 1
                _label_and_rectify(t, d)
    assert members == 86886 and calls["walk"] and calls["pair"] and calls["trade"]
    assert calls["choice"] == 0


def test_a_trade_step_with_two_candidates():
    # the unpaired row 1 of label 3 may trade with row 3 of label 6 or with
    # row 2 of label 5, whose partners' labels 3 and 2 fit below 3; taking
    # row 2 first leads on to row 3, so the moved cell ends with 6 either way
    left, right = {2: 2, 3: 3}, {3: 6, 2: 5, 1: 3}
    expected, trades = [dict(left), dict(right)], []
    assert oracle._relabel_rectify(expected, 0, trades)
    assert trades == [2, 0]
    assert _relabel_rectify(left, right) == ({2: 2, 3: 3, 1: 6}, {3: 3, 2: 2}) == \
        tuple(expected)
    # the pair comes up labelling a member of the closure of an S7 Rothe
    # diagram, which no 4x4-box or 5x4-box member does
    d = rothe_diagram((1, 3, 5, 2, 6, 7, 4))
    with _labeller_held_to_the_oracles() as calls:
        _label_and_rectify(Diagram.of((2, 2), (2, 3), (4, 1), (4, 2), (4, 3)), d)
    assert calls["choice"] == 1


def test_the_yamanouchi_test_matches_the_two_condition_oracle_on_every_4x4_box_member():
    members = yamanouchi = 0
    for d in southwest_in_box(4, 4):
        for t in generate_kd(d).members:
            rl = _rectified_labels(*_label(_columns(t), d)[:2])
            members += 1
            yamanouchi += oracle_yamanouchi_core(rl)
            assert _yamanouchi_core(rl) == oracle_yamanouchi_core(rl), (t, d)
    assert members == 86886 and 0 < yamanouchi < members


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                       st.integers(1, 6), min_size=1, max_size=10))
def test_the_walk_leaves_its_arguments_unchanged(mapping):
    # any column before any columns, rectified or not; nor does the pair
    # step write either column of any pair
    col, *rect = _columns_of(Labeling.of(Diagram.of(*mapping), mapping))
    before = dict(col), [dict(part) for part in rect]
    _walk(col, rect)
    for left, right in zip([col, *rect], rect):
        _relabel_rectify(left, right)
    assert (col, rect) == before


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                       st.integers(1, 6), min_size=1, max_size=10))
@example({(1, 3): 6, (2, 2): 5, (4, 5): 4})
def test_the_walk_ends_with_every_pair_settled(mapping):
    # on any labeling, column 1 walked onto its rectified suffix: the walk
    # that steps back after each changed pair stops only once no column
    # pair changes, though its result may differ from the sweeps'; in the
    # example the first pair changes twice, a cell moving left and then a
    # label changing
    cols = _columns_of(Labeling.of(Diagram.of(*mapping), mapping))
    suffix = _outcome(_rect_labels, [dict(col) for col in cols[1:]])
    assume(type(suffix) is list)
    walked = oracle_walk(dict(cols[0]), suffix)
    assert not any(oracle._relabel_rectify([dict(col) for col in walked], k)
                   for k in range(len(walked) - 1))


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                       st.integers(1, 6), min_size=1, max_size=10))
def test_labeling_operators_match_the_oracle_on_any_labeling(mapping):
    # labels from a short range repeat within columns, so label ties and
    # non-strict labelings come up; such labellings break L1 and L2, so
    # the column-form copies in ``oracle`` are held to the Labeling oracles
    lab = Labeling.of(Diagram.of(*mapping), mapping)
    for c in range(1, lab.base.max_col + 2):
        assert _pairing(lab, c, oracle._pair) == oracle_label_pairing(lab, c)
        assert _relabeled(lab, c, oracle._relabel_rectify) == oracle_relabel_rectify(lab, c)
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
            rl = _rectified(member, D5)
            assert _label_diagram(_columns_of(rl)) == composition_diagram(a), key
            assert is_kohnert_tableau(rl, a), key


@settings(deadline=None, max_examples=50)
@given(southwest_diagrams)
def test_key_expansion_matches_the_yamanouchi_oracle(d):
    n = d.max_row
    assert demazure_expansion(d) == \
        sorted(weight(y, n) for y in oracle_yamanouchi_diagrams(d))


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_key_expansion_matches_the_key_peel_of_the_polynomial(d):
    # no labelling and no crystal graph: keys peeled off the polynomial
    peeled = expand_in_basis(kohnert_polynomial(d, d.max_row), "key")
    assert demazure_expansion(d) == sorted(a for a, c in peeled.items() for _ in range(c))


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


@settings(max_examples=500)
@given(st.sets(st.tuples(st.integers(1, 5), st.integers(1, 6))), st.booleans())
@example({(1, 1), (2, 4)}, False)               # rows 2 and 3 empty, rows do not nest
@example({(2, 1), (1, 3), (2, 3)}, False)       # row 2 empty, rows nest
@example({(1, 2), (3, 5)}, True)                # its own hull, rows 1, 3 and 4 empty
def test_is_vexillary_diagram_matches_the_row_set_oracle(cells, southwest):
    d = southwest_hull(cells) if southwest else Diagram(frozenset(cells))
    assert is_vexillary_diagram(d) == oracle_is_vexillary_diagram(d), d.sorted_cells


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
    # members are packed by the component's own width, not by D5's three
    # columns, so the labelling is what refuses a wider diagram's component
    (wider,) = crystal_graph(generate_kd(composition_diagram((0, 2, 4)))).components
    with pytest.raises(ValueError, match="^diagrams must have equal column weights$"):
        component_demazure_data(wider, D5)


@pytest.mark.parametrize("a", [(0, 1, 1), (1, 0, 1)])
def test_component_demazure_data_refuses_a_narrower_component(a):
    # each top fills column 1 as D5 does, and no column right of it, so a
    # labelling that skipped the check would label it against D5's column 1
    # alone and return data for a component that is not D5's
    for comp in crystal_graph(generate_kd(composition_diagram(a))).components:
        with pytest.raises(ValueError, match="^diagrams must have equal column weights$"):
            component_demazure_data(comp, D5)


def test_a_candidate_one_column_short_is_refused():
    t = MEMBERS["K"]
    short = Diagram(frozenset(cell for cell in t.cells if cell[0] < t.max_col))
    with pytest.raises(ValueError, match="^diagrams must have equal column weights$"):
        labeling_with_reason(short, D5)
    assert membership_report(short, D5) == (False, "column weights differ")


@settings(deadline=None, max_examples=40)
@given(southwest_diagrams)
def test_component_demazure_data_matches_the_oracle(d):
    components = crystal_graph(generate_kd(d)).components
    cases = list(components)
    # a member short
    cases += [comp - {max(comp, key=lambda t: t.sorted_cells)} for comp in components]
    cases += [a | b for a, b in zip(components, components[1:])]
    for case in cases:
        assert _outcome(component_demazure_data, case, d) == \
            _outcome(oracle_component_demazure_data, case, d)


if __name__ == "__main__":
    pytest.main([__file__])
