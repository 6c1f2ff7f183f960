"""Verification sweeps over desk-scale families.

Each suite checks one identity exhaustively over a bounded family, or
on a seeded random sample, and reports counterexamples instead of
raising.  The command line front end exposes these as subcommands of
``verify``; the test suite calls them directly.
"""

from __future__ import annotations

import inspect
import os
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, combinations, product
from math import comb, prod
from operator import mul

from .compositions import compositions_up_to
from .crystal import crystal_graph, raising, rectify, rectify_step
from .diagrams import (Diagram, composition_diagram, is_southwest,
                       rothe_diagram, weight)
from .labeling import (_quasi_yamanouchi_core, _yamanouchi_core,
                       component_demazure_data, demazure_expansion,
                       is_vexillary_diagram, membership, slide_expansion)
from .moves import ResourceBoundError, _max_diagrams, generate_kd, kohnert_polynomial
from .perms import all_permutations, contains_2143, lehmer_code
from .polynomials import (IntPolynomial, demazure_character,
                          fundamental_slide, schubert_polynomial)
from .tableaux import TableauCrystal, demazure_subset, ssyt_raise


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


def _kohnert_vs_pi_case(a) -> tuple[int, list[str]]:
    actual = kohnert_polynomial(composition_diagram(a), n=len(a))
    expected = demazure_character(a)
    if actual.matches(expected):
        return 1, []
    return 1, [f"a={a}: closure gives {actual!r}, operators give {expected!r}"]


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
    actual = kohnert_polynomial(rothe_diagram(w))
    expected = schubert_polynomial(w)
    if actual.matches(expected):
        return 1, []
    return 1, [f"w={w}: closure gives {actual!r}, operators give {expected!r}"]


def verify_schubert(n: int = 4, jobs: int = 1) -> SuiteResult:
    """Kohnert rule on Rothe diagrams against divided differences."""
    _check_budget(accumulate(range(1, n + 1), mul, initial=1), f"--n {n} gives",
                  "permutations")
    return _sweep("schubert", list(all_permutations(n)), _schubert_case, jobs)


def _closure_case(rows: int, d: Diagram) -> tuple[int, list[str]]:
    kset = generate_kd(d)
    failures = []
    for t in kset.members:
        for i in range(1, rows):
            u = raising(t, i)
            if u is not None and u not in kset.member_set:
                failures.append(f"D={d.sorted_cells}, member {t.sorted_cells}"
                                f", raising {i} escapes to {u.sorted_cells}")
    return 1, failures


def verify_closure(box: tuple[int, int] = (4, 4), max_cells: int = 6,
                   jobs: int = 1) -> SuiteResult:
    """Raising operators never leave the closure of a southwest diagram."""
    cols, rows = box
    return _sweep("closure", southwest_in_box(cols, rows, max_cells),
                  partial(_closure_case, rows), jobs)


def _commute_case(box: tuple[int, int], t: Diagram) -> tuple[int, list[str]]:
    cols, rows = box
    failures = []
    for r in range(1, rows):
        for c in range(1, cols):
            left = raising(rectify_step(t, c), r)
            lifted = raising(t, r)
            right = None if lifted is None else rectify_step(lifted, c)
            if (lifted is None) != (left is None) or left != right:
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


def _column_weight_candidates(d: Diagram, cols: int, rows: int):
    """All diagrams in the box whose column weights match d's."""
    picks = [combinations(range(1, rows + 1), len(d.col(c))) for c in range(1, cols + 1)]
    for choice in product(*picks):
        yield Diagram(frozenset((c, r) for c, pick in enumerate(choice, start=1)
                                for r in pick))


def _membership_case(cols: int, t_rows: int, d: Diagram) -> tuple[int, list[str]]:
    member_set = generate_kd(d).member_set
    checked = 0
    failures = []
    for t in _column_weight_candidates(d, cols, t_rows):
        checked += 1
        labelled = membership(t, d)
        searched = t in member_set
        if labelled != searched:
            failures.append(f"D={d.sorted_cells}, T={t.sorted_cells}: "
                            f"labeling says {labelled}, search says {searched}")
    return checked, failures


def verify_membership(box: tuple[int, int] = (3, 3), t_rows: int = 4,
                      jobs: int = 1) -> SuiteResult:
    """Labeling membership test against breadth-first search membership.
    More candidates to check than the closure budget are refused."""
    cols, rows = box
    diagrams = southwest_in_box(cols, rows)
    candidates = accumulate(prod(comb(t_rows, len(d.col(c))) for c in range(1, cols + 1))
                            for d in diagrams)
    _check_budget(candidates, f"--t-rows {t_rows} gives", "membership candidates")
    return _sweep("membership", diagrams,
                  partial(_membership_case, cols, t_rows), jobs)


def component_isomorphic(component, top: Diagram, raised: dict,
                         crystal: TableauCrystal, n: int) -> str | None:
    """Check one crystal component against a tableau crystal.

    ``top`` is the component's highest member and ``raised`` maps (t, i)
    to the raising image of t, as the edges of ``crystal_graph`` give.
    Starting from the highest weights, lowering edges are walked in
    parallel colour by colour; the forced matching must be a
    weight-preserving bijection under which raising also corresponds.
    A raising that is not injective cannot pass, since tableau raising
    is injective.  Returns None on success, else a description of the
    first mismatch.
    """
    lowering = {(u, i): t for (t, i), u in raised.items()}
    if len(component) != len(crystal.elements):
        return f"sizes differ: {len(component)} vs {len(crystal.elements)}"
    lmap = crystal.lowering_map()
    match = {top: crystal.highest}
    queue = [top]
    while queue:
        x = queue.pop()
        y = match[x]
        if weight(x, n) != y.weight(n):
            return f"weights differ at {x.sorted_cells}"
        for i in range(1, n):
            x2 = lowering.get((x, i))
            y2 = lmap[y].get(i)
            if (x2 is None) != (y2 is None):
                return f"lowering {i} defined on one side only at {x.sorted_cells}"
            if x2 is None:
                continue
            if x2 in match:
                if match[x2] != y2:
                    return f"matching conflict at {x2.sorted_cells}"
            else:
                match[x2] = y2
                queue.append(x2)
    if len(match) != len(component) or set(match.values()) != crystal.element_set:
        return "lowering walk does not cover both sides"
    for x, y in match.items():
        for i in range(1, n):
            xr = raised.get((x, i))
            yr = ssyt_raise(y, i)
            if (xr is None) != (yr is None) or \
                    (xr is not None and match[xr] != yr):
                return f"raising {i} not intertwined at {x.sorted_cells}"
    return None


def _components_case(d: Diagram) -> tuple[int, list[str]]:
    try:
        graph = crystal_graph(generate_kd(d))
    except AssertionError as exc:
        return 1, [f"D={d.sorted_cells}: {exc}"]
    raised = {(t, i): u for t, i, u in graph.edges}
    failures = []
    for comp, top in zip(graph.components, graph.highest, strict=True):
        try:
            lam, w, a = component_demazure_data(comp, d)
        except (AssertionError, ValueError) as exc:
            failures.append(f"D={d.sorted_cells}: {exc}")
            continue
        n = len(a)
        rectified = {t: rectify(t) for t in comp}
        for t in comp:
            for i in range(1, n):
                lifted = raised.get((t, i))
                left = raising(rectified[t], i)
                right = None if lifted is None else rectified[lifted]
                if (lifted is None) != (left is None) or left != right:
                    failures.append(f"D={d.sorted_cells}: rectify does not "
                                    f"intertwine raising {i} at {t.sorted_cells}")
        problem = component_isomorphic(comp, top, raised,
                                       demazure_subset(lam, w, n), n)
        if problem is not None:
            failures.append(f"D={d.sorted_cells}, a={a}: {problem}")
    return len(graph.components), failures


def verify_components(box: tuple[int, int] = (3, 3), jobs: int = 1) -> SuiteResult:
    """Every crystal component matches its Demazure crystal."""
    return _sweep("components", southwest_in_box(*box), _components_case, jobs)


def _yamanouchi_case(d: Diagram) -> tuple[int, list[str]]:
    kset = generate_kd(d)
    try:
        components = crystal_graph(kset).components
        key_terms = demazure_expansion(d)
    except AssertionError as exc:
        return 1, [f"D={d.sorted_cells}: {exc}"]
    yams = [y for y in kset.members if _yamanouchi_core(y, d)]
    if len(yams) != len(components):
        return 1, [f"D={d.sorted_cells}: {len(yams)} Yamanouchi members, "
                   f"{len(components)} components"]
    failures = [f"D={d.sorted_cells}: component without exactly "
                f"one Yamanouchi member"
                for comp in components if sum(1 for y in yams if y in comp) != 1]
    n = d.max_row
    total = sum((demazure_character(weight(y, n), n) for y in yams),
                start=IntPolynomial.zero(n))
    if not total.matches(kohnert_polynomial(d, n)):
        failures.append(f"D={d.sorted_cells}: key sum differs from polynomial")
    if key_terms != sorted(weight(y, n) for y in yams):
        failures.append(f"D={d.sorted_cells}: key expansion {key_terms} "
                        f"differs from the Yamanouchi weights")
    return 1, failures


def verify_yamanouchi(box: tuple[int, int] = (3, 3), jobs: int = 1) -> SuiteResult:
    """One Yamanouchi member per component; their keys sum to the polynomial."""
    return _sweep("yamanouchi", southwest_in_box(*box), _yamanouchi_case, jobs)


def _slide_case(d: Diagram) -> tuple[int, list[str]]:
    n = d.max_row
    members = generate_kd(d).members
    qys = [t for t in members if _quasi_yamanouchi_core(t, d)]
    total = sum((fundamental_slide(weight(t, n), n) for t in qys),
                start=IntPolynomial.zero(n))
    failures = []
    if not total.matches(kohnert_polynomial(d, n)):
        failures.append(f"D={d.sorted_cells}: slide sum differs from polynomial")
    slide_terms = slide_expansion(d)
    if slide_terms != sorted(weight(t, n) for t in qys):
        failures.append(f"D={d.sorted_cells}: slide expansion {slide_terms} "
                        f"differs from the quasi-Yamanouchi weights")
    qy_set = set(qys)
    failures.extend(f"D={d.sorted_cells}: Yamanouchi member "
                    f"{y.sorted_cells} is not quasi-Yamanouchi"
                    for y in members if _yamanouchi_core(y, d) and y not in qy_set)
    return 1, failures


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
