"""The four workloads: seeded inputs, the operation each input drives, and
the check each output must pass.

A workload is a list of fixed operations (the ROADMAP baselines, run once
per run) followed by rounds.  A round holds one input per slot, and a
slot is a band (a family, a closure-size range and, for most, a work
range), so every round, whatever the seed, has the same make-up; the
seed only picks which inputs fill the bands.  Inputs are distinct
within a run.

Checks compare against computations made apart from the code path under
test (operator-built polynomials, the triangular peel that
``expand_in_basis`` also performs, ``reference``) or against properties
the method must have.  They run outside the timed region.
"""

from __future__ import annotations

import io
import json
import random
from math import factorial
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from kohnert import (Diagram, IntPolynomial, component_demazure_data,
                     composition_diagram, crystal_graph, demazure_character,
                     demazure_expansion,
                     generate_kd, kohnert_polynomial, rothe_diagram,
                     schubert_polynomial, slide_expansion)

import reference as ref

BASELINE_COMPOSITION = (0, 0, 0, 0, 0, 3, 3, 3)      # 14,112 members
BASELINE_PERMUTATION = (2, 1, 5, 4, 3, 8, 7, 6)      # 1,274 members


class Exhausted(Exception):
    """No fresh input is left for another round; the run ends there."""


@dataclass
class Op:
    """One timed call and the check of its output."""
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Context:
    """Per-run state: the seed's generator and the inputs already used."""
    seed: int
    workdir: Path
    rng: random.Random = field(init=False)
    used: set = field(default_factory=set)
    verify_pool: list = field(default_factory=list)
    queues: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rng = random.Random(self.seed)


def _strip(a) -> tuple[int, ...]:
    a = tuple(a)
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _multiset(comps) -> Counter:
    """Compositions as a multiset, trailing zeros dropped."""
    return Counter(_strip(a) for a in comps)


_BASIS: dict = {}


def basis_poly(a, basis: str, n: int) -> IntPolynomial:
    """Key polynomials by Demazure operators, slides by reference.slide_terms;
    memoised, since checks ask for the same few again and again."""
    a = tuple(a) + (0,) * (n - len(a))
    key = (basis, a)
    if key not in _BASIS:
        _BASIS[key] = demazure_character(a, n) if basis == "key" else \
            IntPolynomial(n, {b: 1 for b in ref.slide_terms(a)})
    return _BASIS[key]


def peel(f: IntPolynomial, basis: str) -> Counter:
    """Expand f in a basis by stripping, again and again, the basis element
    of its dominance-last monomial: the triangular peel that
    ``expand_in_basis`` also performs, here with the memoised basis."""
    terms = dict(f.terms)
    out = Counter()
    while terms:
        a = max(terms, key=lambda e: e[::-1])
        k = terms[a]
        if k < 0:
            raise ValueError("negative coefficient in the peel")
        out[_strip(a)] += k
        for e, c in basis_poly(a, basis, f.n).terms.items():
            left = terms.get(e, 0) - k * c
            if left:
                terms[e] = left
            else:
                terms.pop(e, None)
    return out


def _basis_sum(comps, basis: str, n: int) -> IntPolynomial:
    return sum((basis_poly(a, basis, n) for a in comps), start=IntPolynomial.zero(n))


def run_op(op, latencies: list, errors: list) -> tuple[str, object]:
    """Time one call; check its output outside the timed region.

    The status is "ok", "raised" (the call raised) or "wrong" (the output
    failed its check, or the check could not read it).
    """
    t0 = perf_counter()
    try:
        out = op.call()
        status = "ok"
    except Exception as exc:
        out, status = None, "raised"
        errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    elapsed = perf_counter() - t0
    if status == "ok":
        try:
            good = bool(op.check(out))
        except Exception as exc:
            good = False
            errors.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")
        else:
            if not good:
                errors.append(f"{op.label}: wrong output")
        status = "ok" if good else "wrong"
        # the memo serves one check; kept longer, it would grow with the
        # number of rounds and move peak_rss_mb
        _BASIS.clear()
    latencies.append([op.label, elapsed * 1000.0, status])
    return status, out


# ---------------------------------------------------------------- families
#
# A family proposes inputs; each input carries its diagram and, for the
# checks, its polynomial built without the closure where one exists.

@dataclass(frozen=True)
class Input:
    key: tuple
    diagram: Diagram
    poly: IntPolynomial            # reference polynomial of the diagram
    rothe: tuple | None = None     # the permutation, for Rothe diagrams

    @property
    def size(self) -> int:
        return self.poly.eval_ones()

    @property
    def tag(self) -> str:
        kind, value = self.key
        return f"{kind}{','.join(map(str, value)) if kind != 'S' else len(value)}"


def rothe_input(w) -> Input:
    w = tuple(w)
    return Input(("R", w), rothe_diagram(w), schubert_polynomial(w), rothe=w)


def composition_input(a) -> Input:
    a = tuple(a)
    return Input(("C", a), composition_diagram(a), demazure_character(a))


def southwest_input(cells) -> Input:
    d = Diagram(frozenset(cells))
    # no operator formula exists for a general southwest diagram; the
    # closure polynomial is the reference, as the expansions are built
    # from labelings rather than from this polynomial
    return Input(("S", tuple(sorted(cells))), d, kohnert_polynomial(d))


def propose(family: str, rng: random.Random) -> tuple:
    """A random input of the family, as a plain tuple."""
    kind, _, arg = family.partition(":")
    if kind == "rothe":
        w = list(range(1, int(arg) + 1))
        rng.shuffle(w)
        return tuple(w)
    if kind == "comp":
        length, size = map(int, arg.split("x"))
        a = [0] * length
        a[-1] = 1
        for _ in range(size - 1):
            a[rng.randrange(length)] += 1
        return tuple(a)
    if kind == "box":
        cols, rows = map(int, arg.split("x"))
        return tuple(sorted(ref.southwest_closure(
            (c, r) for c in range(1, cols + 1) for r in range(1, rows + 1)
            if rng.random() < 0.25)))
    raise ValueError(f"unknown family {family!r}")


def make_input(family: str, value) -> Input:
    kind = family.partition(":")[0]
    if kind == "rothe":
        return rothe_input(value)
    if kind == "comp":
        return composition_input(value)
    return southwest_input(tuple(map(tuple, value)))


INPUTS_FILE = Path(__file__).with_name("inputs.json")
_TABLE: dict = {}


@dataclass(frozen=True)
class Band:
    """Inputs of one family whose closure has lo..hi members and on which
    the op named ``work`` makes wlo..whi thousand Python calls.

    The call count, a fixed measure of the op's work, keeps the inputs of
    a band close in cost, so that a band's ops take about the same time
    whatever the seed draws; only make_inputs.py counts calls.
    """
    family: str
    lo: int
    hi: int
    work: str = ""          # a key of WORK_OPS; "" for no call-count window
    wlo: int = 0
    whi: int = 0
    keep: int = 0           # candidates make_inputs.py lists; 0 for its default

    @property
    def key(self) -> str:
        base = f"{self.family} {self.lo}..{self.hi}"
        return f"{base} {self.work} {self.wlo}..{self.whi}k" if self.work else base


def draw(ctx: Context, band: Band) -> Input:
    """A fresh input of the band.

    Candidates come from inputs.json (made by make_inputs.py), which lists
    the inputs of every band so that a run need not search for them; the
    seed orders each band's candidates.
    """
    key = band.key
    if not _TABLE:
        _TABLE.update(json.loads(INPUTS_FILE.read_text()))
    queue = ctx.queues.get(key)
    if queue is None:
        queue = ctx.queues[key] = list(_TABLE[key])
        ctx.rng.shuffle(queue)
    while queue:
        inp = make_input(band.family, queue.pop())
        if inp.key in ctx.used:
            continue
        if not band.lo <= inp.size <= band.hi:
            raise RuntimeError(f"{inp.tag} has {inp.size} members, outside {key}; "
                               "remake inputs.json")
        ctx.used.add(inp.key)
        return inp
    raise Exhausted(f"inputs of {key}")


# ---------------------------------------------------------------- workloads

class Workload:
    name: str
    tail_pct: int               # percentile reported as op_tail_ms
    min_ops: int                # enough ops for 10 beyond tail_pct
    traced_rounds: int          # rounds of the traced run, fixed for repeatable counts
    slots: tuple = ()

    def fixed_ops(self, ctx: Context) -> list[Op]:
        return []

    def bands(self) -> set:
        """The bands this workload draws from."""
        return set(self.slots)

    def round_ops(self, ctx: Context, index: int) -> list[Op]:
        return [self.op(ctx, draw(ctx, band), band) for band in self.slots]

    def op(self, ctx: Context, inp: Input, band: Band | None = None) -> Op:
        raise NotImplementedError


class Closure(Workload):
    """kohnert_polynomial on composition and Rothe diagrams."""
    name = "closure"
    tail_pct = 75
    min_ops = 40
    traced_rounds = 5
    # four classes of cost, about 1.5 times apart: two small, three middle
    # (the median falls at two thirds of them), two larger (p75 falls at
    # their middle) and one large, so neither percentile falls at the edge
    # of a class, where a sample percentile jumps between classes
    slots = (Band("comp:7x11", 900, 1100, "poly", 210, 250),
             Band("rothe:8", 1250, 1650, "poly", 310, 350),
             Band("comp:7x11", 900, 1100, "poly", 210, 250),
             Band("rothe:8", 1250, 1650, "poly", 310, 350),
             Band("comp:7x11", 2100, 2600, "poly", 500, 560),
             Band("rothe:8", 1250, 1650, "poly", 310, 350),
             Band("comp:7x11", 2100, 2600, "poly", 500, 560),
             Band("comp:7x11", 3700, 4600, "poly", 850, 1000))

    def fixed_ops(self, ctx):
        inp = composition_input(BASELINE_COMPOSITION)
        ctx.used.add(inp.key)
        return [self.op(ctx, inp)]

    def op(self, ctx, inp, band=None):
        d = inp.diagram
        return Op(f"kohnert_polynomial {inp.tag}",
                  lambda: kohnert_polynomial(d),
                  lambda out: out.matches(inp.poly))


def expansion_ok(inp: Input, basis: str, out) -> bool:
    comps = list(out)
    if inp.rothe is not None:
        if _multiset(comps) != peel(inp.poly, basis):
            return False
    else:
        n = inp.diagram.max_row
        if not _basis_sum(comps, basis, n).matches(inp.poly):
            return False
    if basis == "key" and (len(comps) == 1) != ref.rows_form_chain(inp.diagram.cells):
        return False
    return True


class Expand(Workload):
    """demazure_expansion and slide_expansion, interleaved."""
    name = "expand"
    tail_pct = 75
    min_ops = 40
    traced_rounds = 5
    # four classes of cost, about twice apart, laid out as in Closure:
    # two small slide expansions, three middle key expansions (two Rothe,
    # one box diagram), two larger slide expansions and one large key
    # expansion; the bases alternate
    slots = (Band("rothe:7", 30, 300, "slide", 80, 120),
             Band("rothe:7", 30, 300, "key", 180, 220),
             Band("rothe:7", 30, 300, "slide", 80, 120),
             Band("box:4x5", 40, 300, "key", 180, 220),
             Band("rothe:8", 50, 150, "slide", 370, 430),
             Band("rothe:7", 30, 300, "key", 180, 220),
             Band("rothe:8", 50, 150, "slide", 370, 430),
             Band("rothe:8", 80, 160, "key", 650, 1000))

    def fixed_ops(self, ctx):
        inp = rothe_input(BASELINE_PERMUTATION)
        ctx.used.add(inp.key)
        return [self.op(ctx, inp, basis="key"), self.op(ctx, inp, basis="slide")]

    def op(self, ctx, inp, band=None, basis=None):
        basis = basis or band.work
        d = inp.diagram
        fn = demazure_expansion if basis == "key" else slide_expansion
        return Op(f"{basis}_expansion {inp.tag}", lambda: fn(d),
                  lambda out: expansion_ok(inp, basis, out))


def crystal_op(d: Diagram):
    """What `kohnert crystal` computes, without the DOT text: the size and
    the key index a of each component."""
    graph = crystal_graph(generate_kd(d))
    return [(len(comp), component_demazure_data(comp, d)[2])
            for comp in graph.components]


def crystal_ok(inp: Input, out) -> bool:
    n = max((len(a) for _, a in out), default=0)
    for size, a in out:
        if basis_poly(a, "key", len(a)).eval_ones() != size:
            return False
    if _multiset(a for _, a in out) != peel(inp.poly, "key"):
        return False
    total = _basis_sum([a for _, a in out], "key", max(n, 1))
    return total.matches(inp.poly)


class Crystal(Workload):
    """crystal_graph plus component_demazure_data per component."""
    name = "crystal"
    tail_pct = 75
    min_ops = 40
    traced_rounds = 5
    # classes: 1 small, 4 middle (p50), 2 larger (p75), 1 large
    slots = (Band("comp:7x9", 100, 130),
             Band("rothe:7", 100, 130), Band("rothe:8", 100, 130),
             Band("rothe:7", 100, 130), Band("rothe:8", 100, 130),
             Band("rothe:8", 250, 320), Band("rothe:8", 250, 320),
             Band("rothe:8", 320, 400))

    def fixed_ops(self, ctx):
        inp = rothe_input(BASELINE_PERMUTATION)
        ctx.used.add(inp.key)
        return [self.op(ctx, inp)]

    def op(self, ctx, inp, band=None):
        d = inp.diagram
        return Op(f"crystal {inp.tag}", lambda: crystal_op(d),
                  lambda out: crystal_ok(inp, out))


# ---------------------------------------------------------------- cli

@dataclass
class CliResult:
    code: int | None
    out: str


def run_cli(argv: list[str]) -> CliResult:
    """One in-process `kohnert.cli.main(argv)` call, output captured."""
    from kohnert.cli import main    # looked up per call, so a traced run sees the wrapper
    buf, err = io.StringIO(), io.StringIO()
    with redirect_stdout(buf), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse usage errors
            code = exc.code
    return CliResult(code, buf.getvalue())


def grid_text(cells) -> str:
    if not cells:
        return ""
    width = max(c for c, _ in cells)
    top = max(r for _, r in cells)
    return "\n".join("".join("O" if (c, r) in cells else "." for c in range(1, width + 1))
                     for r in range(top, 0, -1)) + "\n"


def parse_label_grid(lines: list[str]) -> dict:
    cells = {}
    for pos, line in enumerate(lines):
        r = len(lines) - pos
        col, i = 0, 0
        while i < len(line):
            col += 1
            if line[i] == "[":
                end = line.index("]", i)
                cells[(col, r)] = int(line[i + 1:end])
                i = end + 1
            else:
                if line[i] != ".":
                    cells[(col, r)] = int(line[i])
                i += 1
    return cells


def _poly_of(res: CliResult) -> IntPolynomial:
    return IntPolynomial.from_json(res.out)


def _expansion_lines(text: str) -> Counter:
    terms = Counter()
    for line in text.splitlines():
        if not line or line.startswith("check:"):
            continue
        comp, _, mult = line.partition(" x")
        terms[_strip(int(x) for x in comp.split(","))] += int(mult or 1)
    return terms


def _verify_pool() -> list[tuple[str, list[str], Callable[[], int]]]:
    """Distinct small `verify` configurations and their case counts,
    each count computed apart from the sweep."""
    pool = []
    for p in (2, 3, 4):
        for s in (2, 3, 4, 5):
            pool.append(("kohnert-vs-pi", ["--max-parts", str(p), "--max-size", str(s)],
                         lambda p=p, s=s: ref.weak_compositions_count(p, s)))
    for n in (2, 3, 4, 5):
        pool.append(("schubert", ["--n", str(n)], lambda n=n: factorial(n)))
    boxes = ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4))
    for cols, rows in boxes + ((3, 3),):
        for k in (2, 3, 4):
            pool.append(("closure", ["--box", f"{cols}x{rows}", "--max-cells", str(k)],
                         lambda c=cols, r=rows, k=k: len(ref.southwest_in_box(c, r, k))))
    for cols, rows, t in ((2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (3, 2, 3),
                          (2, 3, 3), (2, 3, 4), (4, 2, 2)):
        pool.append(("membership", ["--box", f"{cols}x{rows}", "--t-rows", str(t)],
                     lambda c=cols, r=rows, t=t: ref.membership_cases(c, r, t)))
    for cols, rows in boxes:
        box = ["--box", f"{cols}x{rows}"]
        pool.append(("components", box, lambda c=cols, r=rows: component_count(c, r)))
        for suite in ("yamanouchi", "slide"):
            pool.append((suite, box, lambda c=cols, r=rows: len(ref.southwest_in_box(c, r))))
        for n in (2, 3, 4):
            pool.append(("vexillary", box + ["--n", str(n)],
                         lambda c=cols, r=rows, n=n:
                         len(ref.southwest_in_box(c, r)) + factorial(n)))
    return pool


def component_count(cols: int, rows: int) -> int:
    """Crystal components over every southwest diagram in the box: one per
    key term of its polynomial, built here by the reference closure."""
    total = 0
    for d in ref.southwest_in_box(cols, rows):
        if not d:
            total += 1
            continue
        n = max(r for _, r in d)
        f = IntPolynomial(n, Counter(ref.row_weight(t, n) for t in ref.closure(d)))
        total += sum(peel(f, "key").values())
    return total


# the second band bounds the work of `expand --basis slide --check`, whose
# brute-force slide polynomials otherwise range over a hundredfold; each
# band gives one input a round, so each lists about three times the rounds
CLI_BANDS = (Band("rothe:9", 100, 400, keep=400),
             Band("rothe:7", 8, 25, "cli-slide", 30, 120, keep=400),
             Band("comp:7x8", 50, 300, keep=400), Band("rothe:7", 10, 80, keep=400))


class Cli(Workload):
    """A seeded script of `kohnert` commands, run in process."""
    name = "cli"
    tail_pct = 95
    min_ops = 200
    traced_rounds = 32      # every fourth round takes the next suite's configuration
    verify_every = 4        # 72 configurations last 288 rounds, 1.6 times a run's most

    def __init__(self):
        self._counts: dict = {}

    def bands(self):
        return set(CLI_BANDS)

    def fixed_ops(self, ctx):
        # one configuration of each suite in turn, largest first, the same
        # order in every run: the first rounds cover every suite, and every
        # run pays for the same large sweeps, which set its peak memory and
        # its slowest verify ops; how far a run gets into the list, which
        # varies with the machine's speed, decides only how many small
        # ones it adds; popped from the end
        by_suite: dict[str, list] = {}
        for entry in _verify_pool():
            by_suite.setdefault(entry[0], []).append(entry)
        order = []
        while any(by_suite.values()):
            order.extend(entries.pop() for entries in by_suite.values() if entries)
        ctx.verify_pool = order[::-1]
        return []

    def _verify_op(self, suite, extra, expected) -> Op:
        argv = ["verify", suite, *extra]

        def check(res):
            key = (suite, tuple(extra))
            if key not in self._counts:
                self._counts[key] = expected()
            return res.code == 0 and \
                res.out.strip() == f"PASS {suite}: {self._counts[key]} cases checked"
        return Op(" ".join(argv), lambda: run_cli(argv), check)

    def round_ops(self, ctx, index):
        rng = ctx.rng
        if index % self.verify_every == 0 and not ctx.verify_pool:
            raise Exhausted("verify configurations")
        w9 = draw(ctx, CLI_BANDS[0])
        w7 = draw(ctx, CLI_BANDS[1])
        key = draw(ctx, CLI_BANDS[2])
        # every `poly --slide` filters the same 19,448 compositions; bounding
        # the terms it keeps (1 to 1,001 in a sample of 300 inputs) bounds
        # its output, whose largest moved peak_rss_mb by 2 MB with the draw
        slide = _fresh_composition(ctx, 8, 8, 10, 10,
                                   lambda a: 20 <= len(ref.slide_terms(a)) <= 100)
        small = _fresh_composition(ctx, 4, 5, 3, 6)
        src = draw(ctx, CLI_BANDS[3])
        ops = [self.schubert_op(w9)] + self.permutation_ops(w7) + \
            self.composition_ops(key, slide, small) + self.membership_ops(ctx, src, index)
        if index % self.verify_every == 0:
            ops.append(self._verify_op(*ctx.verify_pool.pop()))
        else:
            seed = 1000 * index + rng.randrange(1000)
            ops.append(self._verify_op("commute", ["--samples", "25", "--box", "4x4",
                                                   "--seed", str(seed)], lambda: 25))
        return ops

    def schubert_op(self, inp: Input) -> Op:
        perm = ",".join(map(str, inp.rothe))
        return Op(f"poly --perm {perm}", lambda: run_cli(["poly", "--perm", perm]),
                  lambda res: res.code == 0 and
                  _poly_of(res).matches(kohnert_polynomial(inp.diagram)))

    def permutation_ops(self, inp: Input) -> list[Op]:
        perm = ",".join(map(str, inp.rothe))
        key_terms = peel(inp.poly, "key")
        slide_terms = peel(inp.poly, "slide")

        def kd_ok(res):
            data = json.loads(res.out)
            return res.code == 0 and data["count"] == inp.size == len(data["members"])

        def expand_ok(terms):
            return lambda res: res.code == 0 and res.out.rstrip().endswith("check: OK") \
                and _expansion_lines(res.out) == terms

        def crystal_ok(res):
            return res.code == 0 and \
                res.out.count("subgraph cluster_") == sum(key_terms.values())

        return [Op(f"kd --perm {perm} --json",
                   lambda: run_cli(["kd", "--perm", perm, "--json"]), kd_ok),
                Op(f"expand --perm {perm} --check",
                   lambda: run_cli(["expand", "--perm", perm, "--check"]),
                   expand_ok(key_terms)),
                Op(f"expand --perm {perm} --basis slide --check",
                   lambda: run_cli(["expand", "--perm", perm, "--basis", "slide", "--check"]),
                   expand_ok(slide_terms)),
                Op(f"crystal --perm {perm}", lambda: run_cli(["crystal", "--perm", perm]),
                   crystal_ok)]

    def composition_ops(self, key: Input, slide: tuple, small: tuple) -> list[Op]:
        text = ",".join(map(str, key.key[1]))
        slide_text, small_text = ",".join(map(str, slide)), ",".join(map(str, small))
        slide_ref = ref.slide_terms(slide)
        slide_terms = peel(basis_poly(small, "key", len(small)), "slide")

        def key_ok(res):
            return res.code == 0 and _poly_of(res).matches(kohnert_polynomial(key.diagram))

        def slide_ok(res):
            got = _poly_of(res)
            return res.code == 0 and got.n == len(slide) and \
                got.terms == {b: 1 for b in slide_ref}

        return [Op(f"poly --key {text}", lambda: run_cli(["poly", "--key", text]), key_ok),
                Op(f"poly --slide {slide_text}",
                   lambda: run_cli(["poly", "--slide", slide_text]), slide_ok),
                Op(f"expand --comp {small_text} --basis slide --check",
                   lambda: run_cli(["expand", "--comp", small_text, "--basis", "slide", "--check"]),
                   lambda res: res.code == 0 and res.out.rstrip().endswith("check: OK")
                   and _expansion_lines(res.out) == slide_terms)]

    def membership_ops(self, ctx, src: Input, index: int) -> list[Op]:
        d = src.diagram.cells
        member = ref.random_moves(d, ctx.rng, ctx.rng.randrange(1, 6))
        outsider = ref.lift_one_cell(d, ctx.rng)
        paths = {}
        for name, cells in (("d", d), ("t", member), ("u", outsider)):
            paths[name] = ctx.workdir / f"r{index}-{name}.txt"
            paths[name].write_text(grid_text(cells))
        def member_ok(res):
            lines = res.out.splitlines()
            if res.code != 0 or not lines or lines[0] != "member":
                return False
            labels = parse_label_grid(lines[1:])
            if set(labels) != set(member):
                return False
            by_col = {}
            for (c, r), v in labels.items():
                if v < r:
                    return False            # a labeling of a member is flagged
                by_col.setdefault(c, []).append(v)
            return all(sorted(by_col.get(c, [])) ==
                       sorted(r for cc, r in d if cc == c)
                       for c in {c for c, _ in d} | set(by_col))

        t, u, dd = str(paths["t"]), str(paths["u"]), str(paths["d"])
        return [Op("membership t d --explain",
                   lambda: run_cli(["membership", t, dd, "--explain"]), member_ok),
                Op("membership u d",
                   lambda: run_cli(["membership", u, dd]),
                   lambda res: res.code == 0 and res.out.startswith("non-member: "))]


def _fresh_composition(ctx: Context, min_len: int, max_len: int,
                       min_size: int, max_size: int,
                       accept: Callable[[tuple], bool] = lambda a: True) -> tuple:
    """An unused composition ending in a nonzero part that ``accept`` takes."""
    for _ in range(20000):
        length = ctx.rng.randint(min_len, max_len)
        a = [0] * length
        a[-1] = 1
        for _ in range(ctx.rng.randint(min_size, max_size) - 1):
            a[ctx.rng.randrange(length)] += 1
        key = ("A", tuple(a))
        if key not in ctx.used and accept(tuple(a)):
            ctx.used.add(key)
            return tuple(a)
    raise Exhausted("compositions")


WORKLOADS = {w.name: w for w in (Closure(), Expand(), Crystal(), Cli())}

# the ops whose work make_inputs.py counts to fill a band's work range
WORK_OPS = {"poly": lambda inp: kohnert_polynomial(inp.diagram),
            "key": lambda inp: demazure_expansion(inp.diagram),
            "slide": lambda inp: slide_expansion(inp.diagram),
            "crystal": lambda inp: crystal_op(inp.diagram),
            "cli-slide": lambda inp: run_cli(["expand", "--perm", ",".join(map(str, inp.rothe)),
                                              "--basis", "slide", "--check"])}
