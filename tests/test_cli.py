"""Tests for the command line front end, mostly in process."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import kohnert
from kohnert import cli, crystal, labeling, moves, verify
from kohnert.cli import main
from kohnert.moves import KohnertSet, kohnert_polynomial
from kohnert.polynomials import demazure_character

from golden import D5, MEMBERS
from oracle import to_grid

D5_GRID = to_grid(D5) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_kd_counts(capsys):
    assert main(["kd", "--comp", "0,3,2"]) == 0
    assert capsys.readouterr().out == "9 diagrams\n"
    assert main(["kd", "--comp", "2"]) == 0
    assert capsys.readouterr().out == "1 diagram\n"


def test_kd_list(capsys):
    assert main(["kd", "--comp", "0,2", "--list"]) == 0
    assert capsys.readouterr().out == (
        "3 diagrams\n"
        "\nOO\n"
        "\nO.\n.O\n"
        "\nOO\n..\n"
    )


def test_kd_list_empty_diagram(capsys):
    assert main(["kd", "--comp", "0", "--list"]) == 0
    assert capsys.readouterr().out == "1 diagram\n\n(empty)\n"


def test_kd_json(tmp_path, capsys):
    source = write(tmp_path, "d.txt", D5_GRID)
    assert main(["kd", "--input", source, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 19
    assert len(data["edges"]) == 31


def test_kd_dot(capsys):
    assert main(["kd", "--comp", "0,2", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph kohnert_moves")
    assert out.count("->") == 2


@pytest.mark.parametrize("flags", [["--json", "--dot"], ["--list", "--dot"],
                                   ["--list", "--json"]])
def test_kd_output_formats_are_mutually_exclusive(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["kd", "--comp", "0,2", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_poly_key(capsys):
    assert main(["poly", "--key", "0,2"]) == 0
    assert capsys.readouterr().out == (
        '{"n": 2, "terms": [{"exps": [2, 0], "coef": 1}, '
        '{"exps": [1, 1], "coef": 1}, {"exps": [0, 2], "coef": 1}]}\n'
    )
    assert main(["poly", "--key", "0,3,2", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == demazure_character((0, 3, 2), 4).to_json()


def test_poly_perm(capsys):
    assert main(["poly", "--perm", "3,1,2"]) == 0
    assert capsys.readouterr().out == \
        '{"n": 3, "terms": [{"exps": [2, 0, 0], "coef": 1}]}\n'


def test_poly_slide(capsys):
    assert main(["poly", "--slide", "1,1", "--n", "3"]) == 0
    assert capsys.readouterr().out == \
        '{"n": 3, "terms": [{"exps": [1, 1, 0], "coef": 1}]}\n'


def test_poly_slide_drops_a_zero_tail_like_the_key(capsys):
    for flag in ("--slide", "--key"):
        assert main(["poly", flag, "1,0", "--n", "1"]) == 0
        assert capsys.readouterr().out == '{"n": 1, "terms": [{"exps": [1], "coef": 1}]}\n'


def test_poly_slide_refuses_to_shorten_a_nonzero_tail_like_the_key(capsys):
    for flag in ("--slide", "--key"):
        assert main(["poly", flag, "0,1", "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot shorten (0, 1) to length 1\n"


def test_poly_slide_in_more_variables_than_the_recursion_limit(capsys):
    assert main(["poly", "--slide", "0,2", "--n", "5000"]) == 0
    zeros = [0] * 4998
    assert json.loads(capsys.readouterr().out) == {"n": 5000, "terms": [
        {"exps": [2, 0] + zeros, "coef": 1}, {"exps": [1, 1] + zeros, "coef": 1},
        {"exps": [0, 2] + zeros, "coef": 1}]}


def test_poly_n_over_the_budget_exits_3(monkeypatch, capsys):
    # refused before any exponent tuple of that length is built
    monkeypatch.delenv("KOHNERT_MAX_DIAGRAMS", raising=False)
    start = perf_counter()
    assert main(["poly", "--key", "0,2", "--n", "100000000"]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --n 100000000 asks for 100000000 variables, "
                                   "over the budget of 1000000")
    assert "KOHNERT_MAX_DIAGRAMS" in captured.err
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", "5")
    assert main(["poly", "--slide", "0,2", "--n", "6"]) == 3
    assert "--n 6 asks for 6 variables, over the budget of 5" in capsys.readouterr().err
    assert main(["poly", "--slide", "0,2", "--n", "5"]) == 0


@pytest.mark.parametrize("argv", [
    ["poly", "--slide", "0,0,0,0,0,0,0,0,0,0,0,0,20"],
    ["poly", "--key", "0,0,0,0,0,0,0,0,6,6,6,6"],
])
def test_poly_builds_stop_at_the_budget(monkeypatch, capsys, argv):
    # unbounded, these take gigabytes; the build stops once it passes the budget
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", "20000")
    start = perf_counter()
    assert main(argv) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "exceeds 20000 monomials (KOHNERT_MAX_DIAGRAMS)" in captured.err


@pytest.mark.parametrize("flag", ["--slide", "--key", "--perm"])
def test_poly_budget_boundary(monkeypatch, capsys, flag):
    # each of these has 3 monomials, and no step on the way has more
    value = "1,4,2,3" if flag == "--perm" else "0,2"
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", "3")
    assert main(["poly", flag, value]) == 0
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 3
    assert main(["poly", flag, value, "--max-diagrams", "2"]) == 3
    assert "exceeds 2 monomials (KOHNERT_MAX_DIAGRAMS)" in capsys.readouterr().err


def test_poly_diagram(tmp_path, capsys):
    source = write(tmp_path, "d.txt", D5_GRID)
    assert main(["poly", "--diagram", source]) == 0
    assert capsys.readouterr().out.strip() == kohnert_polynomial(D5).to_json()


def test_expand_key_with_check(tmp_path, capsys):
    source = write(tmp_path, "d.txt", D5_GRID)
    assert main(["expand", "--input", source, "--check"]) == 0
    assert capsys.readouterr().out == "0,3,1,1\n0,3,2,0\ncheck: OK\n"


def test_expand_slide_with_check(tmp_path, capsys):
    source = write(tmp_path, "d.txt", D5_GRID)
    assert main(["expand", "--input", source, "--basis", "slide", "--check"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("check: OK\n")
    assert len(out.splitlines()) == 8


@pytest.mark.parametrize("basis", ["key", "slide"])
def test_expand_one_cell_above_the_recursion_limit(tmp_path, capsys, basis):
    source = write(tmp_path, "row1200.txt", "O\n" + ".\n" * 1199)
    assert main(["expand", "--input", source, "--basis", basis]) == 0
    assert capsys.readouterr().out == "0," * 1199 + "1\n"


def test_expand_reports_multiplicities(tmp_path, capsys):
    source = write(tmp_path, "d.txt", "..O\nOO.\nO..\n")
    assert main(["expand", "--input", source, "--basis", "slide", "--check"]) == 0
    assert capsys.readouterr().out == (
        "1,2,1\n1,3,0\n2,1,1\n2,2,0 x2\n3,1,0\ncheck: OK\n"
    )


def test_expand_rejects_non_southwest(tmp_path, capsys):
    source = write(tmp_path, "d.txt", "O.\n.O\n")
    assert main(["expand", "--input", source]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "southwest" in err


def test_crystal_dot(tmp_path, capsys):
    source = write(tmp_path, "d.txt", D5_GRID)
    assert main(["crystal", "--input", source]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph kohnert_crystal")
    assert "component 0: lam=(3,2,0) w=(3,1,2) a=(0,3,2)" in out
    assert "component 1: lam=(3,1,1,0) w=(4,1,2,3) a=(0,3,1,1)" in out
    assert out.count(" -> ") == 20


def test_crystal_dot_bytes_are_pinned(capsys):
    assert main(["crystal", "--perm", "2,1,5,4,3,8,7,6"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        "d6f96cb142990ef65a4367ba9f2917a9f91e1b0e027de7cae4be402acaba9503"


def test_crystal_dot_of_s9_is_pinned(capsys):
    start = perf_counter()
    assert main(["crystal", "--perm", "3,1,6,5,2,9,8,7,4"]) == 0
    assert perf_counter() - start < 5
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        "590a44cc1a08f0baaa99d8dcd4e24bb800b680e0f9cf7105f57420f27c3b5ae0"


def test_printing_paths_build_no_member_diagrams(monkeypatch, capsys):
    perm = ["--perm", "2,1,5,4,3,8,7,6"]
    runs = [["kd", *perm], ["kd", *perm, "--list"], ["kd", *perm, "--json"],
            ["kd", *perm, "--dot"], ["crystal", *perm]]
    expected = []
    for argv in runs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(self):
        raise AssertionError("a printer built the member Diagrams")

    monkeypatch.setattr(KohnertSet, "members", property(refuse))
    for argv, out in zip(runs, expected):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv
    assert hashlib.sha256(expected[-1].encode()).hexdigest() == \
        "d6f96cb142990ef65a4367ba9f2917a9f91e1b0e027de7cae4be402acaba9503"


@pytest.mark.parametrize("basis, terms, digest", [
    ("key", 24, "cb20ab7a25cacfc81ab6f0e8e22c2ab05108b59a5ebef74a453d47e2a7e449d7"),
    ("slide", 161, "ac412062c4b165affedf889d3070e214b0a292cb205778b6b0ba7437f778cc2d"),
])
def test_expand_bytes_are_pinned(capsys, basis, terms, digest):
    assert main(["expand", "--perm", "2,1,5,4,3,8,7,6", "--check", "--basis", basis]) == 0
    out = capsys.readouterr().out
    counts = [line.partition(" x") for line in out.splitlines()[:-1]]
    assert sum(int(count or 1) for _, _, count in counts) == terms
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("basis", ["key", "slide"])
def test_expand_check_builds_one_closure(monkeypatch, capsys, basis):
    # the expansion and the polynomial it is checked against share one search
    search, calls = moves._closure, []

    def counted(d, limit):
        calls.append(d)
        return search(d, limit)
    for module in (moves, labeling):
        monkeypatch.setattr(module, "_closure", counted)
    assert main(["expand", "--perm", "2,1,5,4,3,8,7,6", "--check", "--basis", basis]) == 0
    assert capsys.readouterr().out.endswith("check: OK\n")
    assert len(calls) == 1


def test_expand_slide_check_of_s9_is_pinned_and_linear(capsys):
    # 2,541 slide polynomials are summed back up: a sum that copies its
    # running total at every term takes seconds here
    start = perf_counter()
    assert main(["expand", "--perm", "3,1,6,5,2,9,8,7,4", "--basis", "slide", "--check"]) == 0
    assert perf_counter() - start < 5
    out = capsys.readouterr().out
    assert out.endswith("check: OK\n")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1c6f2f545d24a9443308d63b78b9cd4a0304abbdeb6a3d8b62bc98a38155b4bc"


@pytest.mark.parametrize("argv, digest", [
    (["kd", "--comp", "0,2,1", "--list"],
     "121dd206bd3086f2ae4a0530fc7a9be7a2dca0807c5139d04d21075b658997d1"),
    (["kd", "--perm", "2,1,4,3", "--dot"],
     "ddb30c84549f5b79851d332adb972b6f14e590f84f639f3e5fcf51eadf8bb91b"),
])
def test_kd_grid_bytes_are_pinned(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_membership_explain_bytes_are_pinned(tmp_path, capsys):
    # one cell in row 10, labeled against itself, prints bracketed as [10]
    grid = write(tmp_path, "row10.txt", "O\n" + ".\n" * 9)
    assert main(["membership", grid, grid, "--explain"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("member\n[10]\n.\n")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "51a1887c60fae467564fb44cd40bd887093896dacec0e4223ec2b5cd995e2d33"
    nine = write(tmp_path, "row9.txt", "O\n" + ".\n" * 8)
    assert main(["membership", nine, nine, "--explain"]) == 0
    assert capsys.readouterr().out == "member\n9\n" + ".\n" * 8


def test_membership_member(tmp_path, capsys):
    t_file = write(tmp_path, "t.txt", to_grid(MEMBERS["K"]) + "\n")
    d_file = write(tmp_path, "d.txt", D5_GRID)
    assert main(["membership", t_file, d_file]) == 0
    assert capsys.readouterr().out == "member\n"
    assert main(["membership", t_file, d_file, "--explain"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("member\n")
    assert any(ch.isdigit() for ch in out)


def test_membership_explain_labels_once(tmp_path, capsys, monkeypatch):
    calls = []
    label = labeling._label

    def counted(cols, d):
        calls.append(cols)
        return label(cols, d)

    monkeypatch.setattr(labeling, "_label", counted)
    t_file = write(tmp_path, "t.txt", to_grid(MEMBERS["K"]) + "\n")
    d_file = write(tmp_path, "d.txt", D5_GRID)
    assert main(["membership", t_file, d_file, "--explain"]) == 0
    assert capsys.readouterr().out.startswith("member\n")
    assert len(calls) == 1
    assert type(calls[0]) is list and all(type(m) is int for m in calls[0])


def test_sweeps_and_the_key_expansion_read_no_members(capsys, monkeypatch):
    def unread(kset):
        raise RuntimeError("KohnertSet.members was read")

    monkeypatch.setattr(KohnertSet, "members", property(unread))
    assert main(["verify", "yamanouchi", "--box", "3x3"]) == 0
    assert capsys.readouterr().out.startswith("PASS yamanouchi: ")
    assert main(["verify", "slide", "--box", "3x3"]) == 0
    assert capsys.readouterr().out.startswith("PASS slide: ")
    assert labeling.demazure_expansion(D5) == [(0, 3, 1, 1), (0, 3, 2, 0)]


def test_membership_and_commute_sweeps_build_no_diagram_per_step(capsys, monkeypatch):
    def refuse(*args):
        raise RuntimeError("a Diagram-level operator or KohnertSet.members was used")

    monkeypatch.setattr(KohnertSet, "members", property(refuse))
    for module, name in ((labeling, "membership"), (crystal, "raising"),
                         (crystal, "rectify_step")):
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(verify, name, refuse, raising=False)     # a by-name import
    assert main(["verify", "membership", "--box", "3x3"]) == 0
    assert capsys.readouterr().out == "PASS membership: 14835 cases checked\n"
    assert main(["verify", "commute"]) == 0
    assert capsys.readouterr().out == "PASS commute: 1000 cases checked\n"


def test_membership_non_member(tmp_path, capsys):
    t_file = write(tmp_path, "t.txt", ".O\nO.\n")
    d_file = write(tmp_path, "d.txt", "OO\n..\n")
    assert main(["membership", t_file, d_file]) == 0
    out = capsys.readouterr().out
    assert out == "non-member: no labeling exists: " \
        "label 2 has no admissible cell in column 1\n"


def test_verify_subcommand(capsys):
    assert main(["verify", "closure", "--box", "2x2", "--max-cells", "4"]) == 0
    assert capsys.readouterr().out.startswith("PASS closure:")


def test_verify_all_output_is_pinned(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "PASS kohnert-vs-pi: 330 cases checked\n"
        "PASS schubert: 24 cases checked\n"
        "PASS closure: 2749 cases checked\n"
        "PASS commute: 1000 cases checked\n"
        "PASS membership: 14835 cases checked\n"
        "PASS components: 312 cases checked\n"
        "PASS yamanouchi: 230 cases checked\n"
        "PASS slide: 230 cases checked\n"
        "PASS vexillary: 254 cases checked\n"
    )


def test_verify_refuses_bounds_the_suite_does_not_take(capsys):
    assert main(["verify", "closure", "--box", "2x2", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --samples does not apply to suite closure\n"


def test_verify_all_passes_each_suite_the_bounds_it_takes(capsys):
    argv = ["verify", "all", "--max-parts", "2", "--max-size", "2", "--n", "2",
            "--box", "2x2", "--max-cells", "2", "--t-rows", "2", "--samples", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS ") for line in lines)
    assert "PASS commute: 3 cases checked" in lines


@pytest.mark.parametrize("value", ["-1", "0", "abc"])
def test_verify_jobs_below_one_is_refused_at_parse_time(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "schubert", "--jobs", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err
    assert "positive integer" in captured.err


@pytest.mark.parametrize("suite, flag, value, kind", [
    ("kohnert-vs-pi", "--max-parts", "-1", "nonnegative"),
    ("kohnert-vs-pi", "--max-size", "-1", "nonnegative"),
    ("schubert", "--n", "-1", "nonnegative"),
    ("closure", "--max-cells", "-1", "nonnegative"),
    ("membership", "--t-rows", "-1", "nonnegative"),
    ("commute", "--samples", "0", "positive"),
    ("commute", "--samples", "-5", "positive"),
])
def test_verify_bounds_below_their_range_are_refused_at_parse_time(capsys, suite, flag,
                                                                    value, kind):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a {kind} integer, got '{value}'" in captured.err


@pytest.mark.parametrize("value", ["0x0", "0x3", "3x0"])
def test_verify_box_with_a_zero_side_is_refused_at_parse_time(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "closure", "--box", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --box: expected COLSxROWS with both sides at least 1, " \
           f"got '{value}'" in captured.err


def test_poly_negative_n_is_refused_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--key", "0,2", "--n", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n: expected a nonnegative integer, got '-1'" in captured.err


def test_poly_n_too_small_for_the_input_is_an_error_line(capsys):
    assert main(["poly", "--key", "0,2", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_crystal_invariant_failure_is_an_error_line(monkeypatch, capsys):
    def broken(states, d):
        raise AssertionError("component without a unique highest weight")
    monkeypatch.setattr(cli, "_crystal", broken)
    assert main(["crystal", "--comp", "0,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: component without a unique highest weight\n"


def test_crystal_rectification_failure_is_an_error_line(monkeypatch, capsys):
    # an empty closure of D(a) makes the component check itself fail
    monkeypatch.setattr(labeling, "_closure", lambda d, limit: (set(), 0))
    assert main(["crystal", "--comp", "0,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rectified component misses the composition closure\n"


def test_exit_code_for_parse_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "OX\n")
    assert main(["membership", bad, bad]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["kd", "--comp", "0,x"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [["kd", "--input"], ["membership", "{0}"], ["poly", "--diagram"]],
                         ids=["kd", "membership", "poly"])
def test_a_grid_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"O\xff\n")
    assert main([*(arg.format(bad) for arg in argv), str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte offset 1)\n"


def test_exit_code_for_missing_files(tmp_path, capsys):
    assert main(["kd", "--input", str(tmp_path / "absent.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_exit_code_for_resource_bounds(capsys):
    assert main(["kd", "--comp", "0,3,2", "--max-diagrams", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "KOHNERT_MAX_DIAGRAMS" in err
    assert "reached 3 members at BFS depth" in err


def test_verify_box_over_the_budget_exits_3(capsys):
    start = perf_counter()
    assert main(["verify", "yamanouchi", "--box", "6x6"]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: box 6x6 has 68719476736 cell subsets")
    assert "KOHNERT_MAX_DIAGRAMS" in captured.err


def test_verify_components_on_the_4x3_box(capsys):
    start = perf_counter()
    assert main(["verify", "components", "--box", "4x3"]) == 0
    assert perf_counter() - start < 10
    assert capsys.readouterr().out == "PASS components: 1701 cases checked\n"


def test_verify_box_budget_follows_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", "100")
    assert main(["verify", "components", "--box", "3x3"]) == 3
    err = capsys.readouterr().err
    assert "box 3x3 has 512 cell subsets" in err
    assert "budget of 100" in err


def test_verify_membership_over_the_budget_exits_3(capsys):
    start = perf_counter()
    assert main(["verify", "membership", "--t-rows", "8"]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t-rows 8 gives 1813437 membership candidates")
    assert "KOHNERT_MAX_DIAGRAMS" in captured.err


def test_verify_membership_budget_follows_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", "200000")
    assert main(["verify", "membership", "--t-rows", "6"]) == 3
    err = capsys.readouterr().err
    assert "--t-rows 6 gives 216258 membership candidates" in err
    assert "budget of 200000" in err


@pytest.mark.parametrize("argv, message", [
    (["schubert", "--n", "6"], "--n 6 gives 720 permutations"),
    (["vexillary", "--n", "6"], "--n 6 gives 720 permutations"),
    (["kohnert-vs-pi"], "--max-size 6 --max-parts 4 give 330 compositions"),
    (["commute", "--samples", "200"], "--samples 200 asks for 200 random diagrams"),
])
def test_verify_case_counts_over_the_budget_exit_3(monkeypatch, capsys, argv, message):
    # the cases are counted before any is built, so each run stops at once
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", "100")
    start = perf_counter()
    assert main(["verify", *argv]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}, over the budget of 100")
    assert "KOHNERT_MAX_DIAGRAMS" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["schubert", "--n", "2000"], "--n 2000"),
    (["vexillary", "--n", "3000"], "--n 3000"),
    (["kohnert-vs-pi", "--max-size", "50000", "--max-parts", "30000"],
     "--max-size 50000 --max-parts 30000"),
    (["components", "--box", "150x150"], "box 150x150"),
])
def test_verify_absurd_sizes_exit_3_without_counting_them(capsys, argv, flag):
    # counts far past the budget are neither finished nor printed in full
    start = perf_counter()
    assert main(["verify", *argv]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")
    assert "more than 10^18" in captured.err
    assert "KOHNERT_MAX_DIAGRAMS" in captured.err


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_environment_budget_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("KOHNERT_MAX_DIAGRAMS", value)
    assert main(["kd", "--comp", "0,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "KOHNERT_MAX_DIAGRAMS" in err
    assert "positive integer" in err


@pytest.mark.parametrize("command", [
    ["kd", "--comp", "0,2"],
    ["poly", "--key", "0,2"],
    ["expand", "--comp", "0,2"],
    ["crystal", "--comp", "0,2"],
])
@pytest.mark.parametrize("value", ["-1", "0", "abc"])
def test_max_diagrams_below_one_is_refused_at_parse_time(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--max-diagrams", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-diagrams" in captured.err
    assert "positive integer" in captured.err


def test_main_builds_the_parser_once(monkeypatch, capsys):
    cli._parser.cache_clear()
    builds, build = [], cli.build_parser

    def counted():
        builds.append(1)
        return build()
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["kd", "--comp", "0,2"], ["poly", "--key", "2"], ["verify", "schubert", "--n", "2"]):
        assert main(argv) == 0
    assert len(builds) == 1
    assert build() is not cli._parser()


def test_reused_parser_keeps_no_state_between_calls(capsys):
    assert main(["kd", "--comp", "0,2", "--json"]) == 0
    capsys.readouterr()
    assert main(["kd", "--comp", "0,2"]) == 0
    assert capsys.readouterr().out == "3 diagrams\n"
    assert main(["verify", "closure", "--box", "2x2", "--max-cells", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "closure"]) == 0
    assert capsys.readouterr().out == "PASS closure: 2749 cases checked\n"
    with pytest.raises(SystemExit) as exc:
        main(["kd", "--comp", "0,2", "--list", "--json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["kd", "--comp", "0,2", "--list"]) == 0
    assert capsys.readouterr().out == "3 diagrams\n\nOO\n\nO.\n.O\n\nOO\n..\n"


def test_commands_are_looked_up_at_call_time(monkeypatch, capsys):
    assert main(["kd", "--comp", "0,2"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_kd", lambda args: seen.append(args.comp) or 0)
    assert main(["kd", "--comp", "0,3"]) == 0
    assert seen == ["0,3"]
    assert capsys.readouterr().out == ""


def test_module_entry_point():
    src = str(Path(kohnert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kohnert", "poly", "--key", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 1, "terms": [{"exps": [2], "coef": 1}]}


if __name__ == "__main__":
    pytest.main([__file__])
