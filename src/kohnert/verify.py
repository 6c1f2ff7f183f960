"""Verification sweeps over desk-scale families.

Each suite checks one identity exhaustively over a bounded family, or
on a seeded random sample, and reports counterexamples instead of
raising.  The command line front end exposes these as subcommands of
``verify``; the test suite calls them directly.

No sweep builds a ``Diagram`` per member, step or candidate.  The
closure, components, Yamanouchi and slide sweeps work on packed closure
states.  The commute sweep packs each random diagram once and takes
single raising and rectify steps on that state (``crystal._raised`` and
``crystal._rectify_step``).  The membership sweep searches its candidates
on column masks from the right, labelling each column once per suffix
with ``labeling._label_column``, the labeller's own per-column step.
"""

from __future__ import annotations

import inspect
import os
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, combinations
from math import comb, prod
from operator import mul

from .compositions import compositions_up_to
from .crystal import _crystal, _raised, _rectify_step
from .diagrams import (Diagram, _columns, _mask_weight, composition_diagram,
                       is_southwest, rothe_diagram)
from .labeling import (_key_terms, _label, _label_column, _quasi_yamanouchi_core,
                       _rectified_component, _rectified_labels, _rectified_raises,
                       _slide_terms, _walk, _yamanouchi_core, demazure_expansion,
                       is_vexillary_diagram)
from .moves import (ResourceBoundError, _cells, _closure, _fields, _kset, _max_diagrams,
                    _pack, _polynomial, _spread, generate_kd, kohnert_polynomial)
from .perms import all_permutations, contains_2143, lehmer_code
from .polynomials import basis_sum, demazure_character, schubert_polynomial
from .tableaux import TableauCrystal, demazure_subset, ssyt_lower, ssyt_raise


MAX_DUMPED = 5                             # counterexamples a summary prints


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = f"{status} {self.name}: {self.checked} cases checked"
        if self.failures:
            line += f", {len(self.failures)} failures"
            for item in self.failures[:MAX_DUMPED]:
                line += f"\n  counterexample: {item}"
            if len(self.failures) > MAX_DUMPED:
                line += f"\n  ... and {len(self.failures) - MAX_DUMPED} more"
        return line


def _check_budget(counts, before: str, after: str) -> None:
    """Refuse a sweep that would build more than the closure budget of cases
    or candidates, before it builds any.  ``counts`` rises to the exact count
    and is read only until it passes the budget and 10^18, the most printed."""
    limit = _max_diagrams(None)
    count = 0
    for count in counts:
        if count > max(limit, 10 ** 18):
            break
    if count > limit:
        shown = count if count <= 10 ** 18 else "more than 10^18"
        raise ResourceBoundError(f"{before} {shown} {after}, over the budget of "
                                 f"{limit} (KOHNERT_MAX_DIAGRAMS)")


def southwest_in_box(cols: int, rows: int,
                     max_cells: int | None = None) -> list[Diagram]:
    """All southwest diagrams inside the given box, smallest first.  A box
    with more cell subsets to scan than the closure budget is refused."""
    grid = [(c, r) for c in range(1, cols + 1) for r in range(1, rows + 1)]
    top = len(grid) if max_cells is None else min(max_cells, len(grid))
    subsets = [1 << top] if top == len(grid) else \
        accumulate(comb(len(grid), k) for k in range(top + 1))
    _check_budget(subsets, f"box {cols}x{rows} has",
                  f"cell subsets of at most {top} cells")
    found = []
    for k in range(top + 1):
        for cells in combinations(grid, k):
            d = Diagram(frozenset(cells))
            if is_southwest(d):
                found.append(d)
    return found


def random_diagram(rng: random.Random, cols: int, rows: int) -> Diagram:
    cells = [(c, r) for c in range(1, cols + 1) for r in range(1, rows + 1)
             if rng.random() < 0.4]
    return Diagram(frozenset(cells))


def _run_cases(cases, check, jobs: int) -> list:
    """Map a picklable check over cases, in a process pool when jobs > 1.

    The pool gets at most one process per CPU.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            return pool.map(check, cases, chunksize=8)
    return [check(case) for case in cases]


def _sweep(name: str, cases, check, jobs: int) -> SuiteResult:
    """Run a case check, which returns (checked, failures), over every case."""
    result = SuiteResult(name)
    for checked, failures in _run_cases(cases, check, jobs):
        result.checked += checked
        result.failures.extend(failures)
    return result


def _closure_vs_operators(case: str, actual, expected) -> tuple[int, list[str]]:
    """One case comparing a closure's polynomial with an operator build."""
    if actual.matches(expected):
        return 1, []
    return 1, [f"{case}: closure gives {actual!r}, operators give {expected!r}"]


def _kohnert_vs_pi_case(a) -> tuple[int, list[str]]:
    return _closure_vs_operators(f"a={a}", kohnert_polynomial(composition_diagram(a), n=len(a)),
                                 demazure_character(a))


def verify_kohnert_vs_pi(max_parts: int = 4, max_size: int = 6,
                         jobs: int = 1) -> SuiteResult:
    """Generating polynomial of KD(D(a)) against the Demazure character."""
    # C(max_size + 1 + j, j) for j up to max_parts: the last is the sum over
    # L <= max_parts of C(max_size + L, L), the compositions of length L
    count = accumulate(range(1, max_parts + 1),
                       lambda c, j: c * (max_size + 1 + j) // j, initial=1)
    _check_budget(count, f"--max-size {max_size} --max-parts {max_parts} give",
                  "compositions")
    return _sweep("kohnert-vs-pi", list(compositions_up_to(max_size, max_parts)),
                  _kohnert_vs_pi_case, jobs)


def _schubert_case(w) -> tuple[int, list[str]]:
    return _closure_vs_operators(f"w={w}", kohnert_polynomial(rothe_diagram(w)),
                                 schubert_polynomial(w))


def verify_schubert(n: int = 4, jobs: int = 1) -> SuiteResult:
    """Kohnert rule on Rothe diagrams against divided differences."""
    _check_budget(accumulate(range(1, n + 1), mul, initial=1), f"--n {n} gives",
                  "permutations")
    return _sweep("schubert", list(all_permutations(n)), _schubert_case, jobs)


def _closure_case(d: Diagram) -> tuple[int, list[str]]:
    try:
        _crystal(generate_kd(d).states, d)
    except AssertionError as exc:
        return 1, [f"D={d.sorted_cells}: {exc}"]
    return 1, []


def verify_closure(box: tuple[int, int] = (4, 4), max_cells: int = 6,
                   jobs: int = 1) -> SuiteResult:
    """Raising operators never leave the closure of a southwest diagram,
    as ``_crystal`` checks when it builds the raising graph."""
    return _sweep("closure", southwest_in_box(*box, max_cells),
                  _closure_case, jobs)


def _commute_case(box: tuple[int, int], t: Diagram) -> tuple[int, list[str]]:
    """Raising at each row and a rectify step at each column commute on t,
    packed once in the layout of the box."""
    cols, rows = box
    width = rows + 1
    spread = _spread(width, cols)
    state = _pack(_columns(t) + [0] * (cols - t.max_col), width)
    failures = []
    for r in range(1, rows):
        lifted = _raised(state, r, spread)
        for c in range(1, cols):
            left = _raised(_rectify_step(state, c, width, cols), r, spread)
            right = None if lifted is None else _rectify_step(lifted, c, width, cols)
            if left != right:
                failures.append(f"T={t.sorted_cells}, r={r}, c={c}")
    return 1, failures


def verify_commute(samples: int = 1000, box: tuple[int, int] = (5, 5),
                   seed: int = 2023, jobs: int = 1) -> SuiteResult:
    """Raising commutes with single rectification steps, on random input."""
    _check_budget([samples], f"--samples {samples} asks for", "random diagrams")
    cols, rows = box
    rng = random.Random(seed)
    cases = [random_diagram(rng, cols, rows) for _ in range(samples)]
    return _sweep("commute", cases, partial(_commute_case, box), jobs)


def _membership_case(t_rows: int, d: Diagram) -> tuple[int, list[str]]:
    """Labelling against the closure search on every candidate: each column
    of d takes every row set of its size in rows 1 to ``t_rows``, and a
    column of the box right of d stays empty.  The candidates are searched
    on column masks from the right: a column is labelled once per suffix
    (the columns to its right) and walked onto the suffix's rectification,
    which the walk leaves as it was, and a column that fails to label, or
    whose labels are not flagged, makes every candidate that extends it a non-member.  The
    members so found are compared, as one set, with the closure states
    whose cells all lie in rows 1 to ``t_rows``, and each difference is
    reported in the order the candidates come in."""
    ncols = d.max_col
    picks = [[sum(1 << r for r in pick)
              for pick in combinations(range(1, t_rows + 1), len(d.col(c)))]
             for c in range(1, ncols + 1)]
    labelled = set()

    def search(k: int, suffix: tuple[int, ...], rect) -> None:
        if k < 0:
            labelled.add(suffix)
            return
        anchor = {v: r for r, v in rect[0].items()} if rect else {}
        for mask in picks[k]:
            col, missing = _label_column(mask, d.col(k + 1), anchor)
            if missing or any(v < r for r, v in col.items()):
                continue
            search(k - 1, (mask, *suffix), _walk(col, rect) if k else rect)

    search(ncols - 1, (), [])
    seen, _ = _closure(d, _max_diagrams(None))
    members = {masks for masks in (tuple(_fields(state, d.max_row + 1, ncols)) for state in seen)
               if max(masks, default=0) < 1 << t_rows + 1}

    def rows(mask: int) -> list[int]:
        return [r for r in range(mask.bit_length()) if mask >> r & 1]

    failures = []
    for masks in sorted(labelled ^ members, key=lambda masks: list(map(rows, masks))):
        t = tuple((c, r) for c, mask in enumerate(masks, start=1) for r in rows(mask))
        failures.append(f"D={d.sorted_cells}, T={t}: labeling says {masks in labelled}, "
                        f"search says {masks in members}")
    return prod(map(len, picks)), failures


def verify_membership(box: tuple[int, int] = (3, 3), t_rows: int = 4,
                      jobs: int = 1) -> SuiteResult:
    """Labeling membership test against breadth-first search membership.
    More candidates to check than the closure budget are refused."""
    cols, rows = box
    diagrams = southwest_in_box(cols, rows)
    candidates = accumulate(prod(comb(t_rows, len(d.col(c))) for c in range(1, cols + 1))
                            for d in diagrams)
    _check_budget(candidates, f"--t-rows {t_rows} gives", "membership candidates")
    return _sweep("membership", diagrams, partial(_membership_case, t_rows), jobs)


def component_isomorphic(cells: dict, top: int, raised: dict,
                         crystal: TableauCrystal, n: int) -> str | None:
    """Check one crystal component against a Demazure subset of tableaux.

    ``cells`` maps each member's position to its sorted cells, ``top`` is
    the highest member's position, and ``raised`` maps (position, i) to
    the raising image's position, as ``_crystal``'s edges give.
    Starting from the highest weights, lowering is walked in parallel
    colour by colour, with ``ssyt_lower`` counted only inside the subset;
    the forced matching must be a weight-preserving bijection under which
    raising also corresponds.  A raising that is not injective cannot
    pass, since tableau raising is injective.  Returns None on success,
    else a description of the first mismatch.
    """
    lowering = {(u, i): t for (t, i), u in raised.items()}
    if len(cells) != len(crystal.elements):
        return f"sizes differ: {len(cells)} vs {len(crystal.elements)}"
    match = {top: crystal.highest}
    queue = [top]
    while queue:
        x = queue.pop()
        y = match[x]
        if tuple(map([r for _, r in cells[x]].count, range(1, n + 1))) != y.weight(n):
            return f"weights differ at {cells[x]}"
        for i in range(1, n):
            x2 = lowering.get((x, i))
            y2 = ssyt_lower(y, i)
            if y2 not in crystal.element_set:
                y2 = None
            if (x2 is None) != (y2 is None):
                return f"lowering {i} defined on one side only at {cells[x]}"
            if x2 is None:
                continue
            if x2 in match:
                if match[x2] != y2:
                    return f"matching conflict at {cells[x2]}"
            else:
                match[x2] = y2
                queue.append(x2)
    if len(match) != len(cells) or set(match.values()) != crystal.element_set:
        return "lowering walk does not cover both sides"
    for x, y in match.items():
        for i in range(1, n):
            xr = raised.get((x, i))
            yr = ssyt_raise(y, i)
            if (xr is None) != (yr is None) or \
                    (xr is not None and match[xr] != yr):
                return f"raising {i} not intertwined at {cells[x]}"
    return None


def _components_case(d: Diagram) -> tuple[int, list[str]]:
    """Each crystal component of the closure of d rectifies onto the closure
    of D(a), on packed states; rectifying intertwines raising; and the
    component matches its Demazure subset of tableaux."""
    states, width, ncols = generate_kd(d).states, d.max_row + 1, d.max_col
    try:
        edges, groups, highest = _crystal(states, d)
    except AssertionError as exc:
        return 1, [f"D={d.sorted_cells}: {exc}"]
    raised = {(n, i): m for n, i, m in edges}
    failures, flips = [], {}        # one rectification memo for every component
    for group, top in zip(groups, highest, strict=True):
        try:
            lam, w, a, images = _rectified_component([states[n] for n in group], states[top],
                                                     width, ncols, d, flips)
        except (AssertionError, ValueError) as exc:
            failures.append(f"D={d.sorted_cells}: {exc}")
            continue
        image = dict(zip(group, images))
        cells = {n: _cells(states[n], width, ncols) for n in group}
        for n, left in zip(group, _rectified_raises(images, a)):
            right = {(i, image[raised[n, i]]) for i in range(1, len(a)) if (n, i) in raised}
            failures.extend(f"D={d.sorted_cells}: rectify does not intertwine raising {i} at "
                            f"{cells[n]}" for i in sorted({i for i, _ in left ^ right}))
        problem = component_isomorphic(cells, top, raised,
                                       demazure_subset(lam, w, len(a)), len(a))
        if problem is not None:
            failures.append(f"D={d.sorted_cells}, a={a}: {problem}")
    return len(groups), failures


def verify_components(box: tuple[int, int] = (3, 3), jobs: int = 1) -> SuiteResult:
    """Every crystal component matches its Demazure crystal."""
    return _sweep("components", southwest_in_box(*box), _components_case, jobs)


def _yamanouchi_case(d: Diagram) -> tuple[int, list[str]]:
    seen, counts = _closure(d, _max_diagrams(None))
    kset = _kset(d, seen)
    try:
        _, groups, highest = _crystal(kset.states, d)
        key_terms = _key_terms(kset.states, highest, d)
    except AssertionError as exc:
        return 1, [f"D={d.sorted_cells}: {exc}"]
    n = d.max_row
    masks = [_fields(state, n + 1, d.max_col) for state in kset.states]
    yams = {k for k, cols in enumerate(masks)
            if _yamanouchi_core(_rectified_labels(*_label(cols, d)[:2]))}
    if len(yams) != len(groups):
        return 1, [f"D={d.sorted_cells}: {len(yams)} Yamanouchi members, "
                   f"{len(groups)} components"]
    failures = [f"D={d.sorted_cells}: component without exactly "
                f"one Yamanouchi member"
                for group in groups if len(yams.intersection(group)) != 1]
    weights = [_mask_weight(masks[k], n) for k in yams]
    if not basis_sum(weights, "key", n).matches(_polynomial(d, counts, n)):
        failures.append(f"D={d.sorted_cells}: key sum differs from polynomial")
    if key_terms != sorted(weights):
        failures.append(f"D={d.sorted_cells}: key expansion {key_terms} "
                        f"differs from the Yamanouchi weights")
    return 1, failures


def verify_yamanouchi(box: tuple[int, int] = (3, 3), jobs: int = 1) -> SuiteResult:
    """One Yamanouchi member per component; their keys sum to the polynomial."""
    return _sweep("yamanouchi", southwest_in_box(*box), _yamanouchi_case, jobs)


def _slide_case(d: Diagram) -> tuple[int, list[str]]:
    n = d.max_row
    seen, counts = _closure(d, _max_diagrams(None))
    qys, failures, unpinned = [], [], []
    for state in _kset(d, seen).states:
        cols = _fields(state, n + 1, d.max_col)
        labels, suffix, _ = _label(cols, d)
        if _quasi_yamanouchi_core(labels):
            qys.append(_mask_weight(cols, n))
        elif _yamanouchi_core(_rectified_labels(labels, suffix)):
            unpinned.append(f"D={d.sorted_cells}: Yamanouchi member "
                            f"{_cells(state, n + 1, d.max_col)} is not quasi-Yamanouchi")
    f = _polynomial(d, counts, n)
    if not basis_sum(qys, "slide", n).matches(f):
        failures.append(f"D={d.sorted_cells}: slide sum differs from polynomial")
    slide_terms = _slide_terms(f)
    if slide_terms != sorted(qys):
        failures.append(f"D={d.sorted_cells}: slide expansion {slide_terms} "
                        f"differs from the quasi-Yamanouchi weights")
    return 1, failures + unpinned


def verify_slide(box: tuple[int, int] = (3, 3), jobs: int = 1) -> SuiteResult:
    """Quasi-Yamanouchi members give the fundamental slide expansion."""
    return _sweep("slide", southwest_in_box(*box), _slide_case, jobs)


def _vexillary_case(case) -> tuple[int, list[str]]:
    """A southwest diagram, or a permutation in one-line notation."""
    if isinstance(case, Diagram):
        try:
            single = len(demazure_expansion(case)) == 1
        except AssertionError as exc:
            return 1, [f"D={case.sorted_cells}: {exc}"]
        chain = is_vexillary_diagram(case)
        if single == chain:
            return 1, []
        return 1, [f"D={case.sorted_cells}: single-term={single}, "
                   f"row chain={chain}"]
    failures = []
    avoiding = not contains_2143(case)
    if is_vexillary_diagram(rothe_diagram(case)) != avoiding:
        failures.append(f"w={case}: Rothe row-chain test disagrees with 2143")
    if avoiding and not schubert_polynomial(case).matches(
            demazure_character(lehmer_code(case))):
        failures.append(f"w={case}: Schubert differs from key of Lehmer code")
    return 1, failures


def verify_vexillary(box: tuple[int, int] = (3, 3), n: int = 4,
                     jobs: int = 1) -> SuiteResult:
    """Single-term key expansions, row chains, and 2143 avoidance."""
    _check_budget(accumulate(range(1, n + 1), mul, initial=1), f"--n {n} gives",
                  "permutations")
    cases = southwest_in_box(*box) + list(all_permutations(n))
    return _sweep("vexillary", cases, _vexillary_case, jobs)


SUITES = {"kohnert-vs-pi": verify_kohnert_vs_pi, "schubert": verify_schubert,
          "closure": verify_closure, "commute": verify_commute,
          "membership": verify_membership, "components": verify_components,
          "yamanouchi": verify_yamanouchi, "slide": verify_slide,
          "vexillary": verify_vexillary}


def suite_bounds(name: str) -> tuple[str, ...]:
    """The bounds a named suite takes: the parameters of its function."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return tuple(inspect.signature(SUITES[name]).parameters)


def run_suite(name: str, **bounds) -> SuiteResult:
    """Run one named suite, passing it only the bounds it takes; the
    suite's own defaults fill in the rest."""
    taken = suite_bounds(name)
    return SUITES[name](**{k: v for k, v in bounds.items() if k in taken})
