"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function of the eight layer
modules with a wrapper that counts calls and measures busy time (time
inside the call, callees included) and self time (busy time minus the
time spent in wrapped callees).  A function is reached through every
name that binds it, so the wrapper is put in place in every loaded
module namespace that binds the original, in module-level tables that
hold it, and in default arguments that name it.  The package's source
is not touched; ``uninstall`` puts every original back.

The wrappers record only while ``active`` is set, which the runner sets
around each timed call, so input generation and checks do not count.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import tracemalloc
from math import comb
from time import perf_counter

LAYERS = ("moves", "diagrams", "crystal", "labeling", "polynomials",
          "tableaux", "verify", "cli")

# Validators and accessors called once per cell or per member; their
# time counts toward their callers.
SKIP = {"diagrams.check_cell", "diagrams.weight", "diagrams.column_weights"}

METHODS = {"diagrams": (("Diagram", "move_cell"),),
           "polynomials": (("IntPolynomial", "to_json"),)}

SUITES = ("kohnert-vs-pi", "schubert", "closure", "commute", "membership",
          "components", "yamanouchi", "slide", "vexillary")
COMMANDS = ("kd", "poly", "expand", "crystal", "membership", "verify")
FORMATTERS = ("moves.kd_to_json", "crystal.crystal_to_dot",
              "polynomials.IntPolynomial.to_json")


class Stat:
    __slots__ = ("calls", "busy", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, Stat] = {}
        self.stack: list[float] = []
        self.members = 0
        self.edges = 0
        self.raising_hits = 0
        self.components = 0
        self.terms = 0
        self.slide_kept = 0
        self.slide_enumerated = 0
        self.suite_cases: dict[str, int] = {}
        self.suite_busy: dict[str, float] = {}
        self.output_bytes = 0
        self.closure_inputs: list = []      # for the memory pass
        self.keep_closures = True
        self._undo: list = []

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        observe = self._observer(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            stack.append(0.0)
            stat.depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - inner
                if stat.depth == 0:
                    stat.busy += elapsed
            if observe is not None:
                observe(args, out, elapsed)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, target, key, value, setter):
        self._undo.append((target, key, setter(target, key, value)))

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kohnert.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in SKIP or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrap(name, obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn),
                          _setattr)
        for module in list(sys.modules.values()):
            space = getattr(module, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for key, value in list(space.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(space, key, hit[1], _setitem)
                elif isinstance(value, dict) and \
                        getattr(module, "__name__", "").startswith("kohnert"):
                    for k, v in list(value.items()):
                        hit = originals.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._set(value, k, hit[1], _setitem)
        for obj, _ in originals.values():
            defaults = obj.__defaults__
            if defaults and any(id(d) in originals for d in defaults):
                new = tuple(originals[id(d)][1] if id(d) in originals else d
                            for d in defaults)
                self._set(obj, "__defaults__", new, _setattr)

    def uninstall(self) -> None:
        while self._undo:
            target, key, old = self._undo.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    # ------------------------------------------------------------ observers

    def _observer(self, name: str):
        if name == "moves.generate_kd":
            def obs(args, out, _):
                self.members += len(out.members)
                self.edges += len(out.edges)
                if self.keep_closures:
                    self.closure_inputs.append(args[0])
            return obs
        if name == "crystal.raising":
            def obs(args, out, _):
                self.raising_hits += out is not None
            return obs
        if name == "crystal.crystal_graph":
            def obs(args, out, _):
                self.components += len(out.components)
            return obs
        if name in ("labeling.demazure_expansion", "labeling.slide_expansion"):
            def obs(args, out, _):
                self.terms += len(out)
            return obs
        if name == "labeling.component_demazure_data":
            def obs(args, out, _):
                self.terms += 1
            return obs
        if name == "polynomials.fundamental_slide":
            def obs(args, out, _):
                total = sum(args[0])
                self.slide_kept += len(out.terms)
                self.slide_enumerated += comb(total + out.n - 1, out.n - 1) if out.n else 1
            return obs
        if name.startswith("verify.verify_"):
            def obs(args, out, elapsed):
                self.suite_cases[out.name] = self.suite_cases.get(out.name, 0) + out.checked
                self.suite_busy[out.name] = self.suite_busy.get(out.name, 0.0) + elapsed
            return obs
        return None

    # ------------------------------------------------------------ metrics

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def metrics(self, bytes_per_member: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        s = self.stat
        gk = s("moves.generate_kd")
        labeling = s("labeling.labeling_with_reason")
        rect = s("labeling.rect_labeling")
        raising = s("crystal.raising")
        out = {
            "moves.generate_kd.calls": (gk.calls, "count"),
            "moves.generate_kd.busy_s": (gk.busy, "s"),
            "moves.members": (self.members, "count"),
            "moves.edges": (self.edges, "count"),
            "moves.new_member_ratio": (_ratio(self.members - gk.calls, self.edges), "ratio"),
            "moves.members_per_s": (_ratio(self.members, gk.busy), "1/s"),
            "moves.bytes_per_member": (bytes_per_member, "B"),
        }
        for fn in ("move_cell", "is_southwest"):
            name = "Diagram.move_cell" if fn == "move_cell" else fn
            st = s(f"diagrams.{name}")
            out[f"diagrams.{fn}.calls"] = (st.calls, "count")
            out[f"diagrams.{fn}.self_s"] = (st.self_s, "s")
        out.update({
            "crystal.crystal_graph.busy_s": (s("crystal.crystal_graph").busy, "s"),
            "crystal.raising.calls": (raising.calls, "count"),
            "crystal.raising.self_s": (raising.self_s, "s"),
            "crystal.raising.hit_ratio": (_ratio(self.raising_hits, raising.calls), "ratio"),
            "crystal.rectify.calls": (s("crystal.rectify").calls, "count"),
            "crystal.rectify.busy_s": (s("crystal.rectify").busy, "s"),
            "crystal.rectify_step.calls": (s("crystal.rectify_step").calls, "count"),
            "crystal.rectify_step.self_s": (s("crystal.rectify_step").self_s, "s"),
            "crystal.column_pairing.calls": (s("crystal.column_pairing").calls, "count"),
            "crystal.components": (self.components, "count"),
            "labeling.labeling_with_reason.calls": (labeling.calls, "count"),
            "labeling.labeling_with_reason.busy_s": (labeling.busy, "s"),
            "labeling.rect_labeling.calls": (rect.calls, "count"),
            "labeling.rect_labeling.busy_s": (rect.busy, "s"),
            "labeling.relabel_rectify.calls": (s("labeling.relabel_rectify").calls, "count"),
            "labeling.relabel_rectify.self_s": (s("labeling.relabel_rectify").self_s, "s"),
            "labeling.rect_per_labeling": (_ratio(rect.calls, labeling.calls), "ratio"),
            "labeling.component_demazure_data.busy_s":
                (s("labeling.component_demazure_data").busy, "s"),
            "labeling.terms": (self.terms, "count"),
            "labeling.terms_per_member": (_ratio(self.terms, self.members), "ratio"),
            "polynomials.demazure_character.calls": (s("polynomials.demazure_character").calls, "count"),
            "polynomials.demazure_character.busy_s": (s("polynomials.demazure_character").busy, "s"),
            "polynomials.pi_op.calls": (s("polynomials.pi_op").calls, "count"),
            "polynomials.divided_difference.calls": (s("polynomials.divided_difference").calls, "count"),
            "polynomials.schubert_polynomial.busy_s": (s("polynomials.schubert_polynomial").busy, "s"),
            "polynomials.fundamental_slide.calls": (s("polynomials.fundamental_slide").calls, "count"),
            "polynomials.fundamental_slide.busy_s": (s("polynomials.fundamental_slide").busy, "s"),
            "polynomials.fundamental_slide.kept_ratio":
                (_ratio(self.slide_kept, self.slide_enumerated), "ratio"),
            "polynomials.monomial_generating.busy_s": (s("polynomials.monomial_generating").busy, "s"),
            "polynomials.expand_in_basis.busy_s": (s("polynomials.expand_in_basis").busy, "s"),
            "tableaux.demazure_subset.calls": (s("tableaux.demazure_subset").calls, "count"),
            "tableaux.demazure_subset.busy_s": (s("tableaux.demazure_subset").busy, "s"),
            "tableaux.ssyt_lower.calls": (s("tableaux.ssyt_lower").calls, "count"),
        })
        for suite in SUITES:
            out[f"verify.{suite}.cases"] = (self.suite_cases.get(suite, 0), "count")
            out[f"verify.{suite}.busy_s"] = (self.suite_busy.get(suite, 0.0), "s")
        for command in COMMANDS:
            out[f"cli.{command}.busy_s"] = (s(f"cli.cmd_{command}").busy, "s")
        out["cli.format.busy_s"] = (sum(s(n).busy for n in FORMATTERS), "s")
        out["cli.output_bytes"] = (self.output_bytes, "B")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def _setattr(obj, key, value):
    old = getattr(obj, key) if key == "__defaults__" else obj.__dict__[key]
    setattr(obj, key, value)
    return old


def _setitem(space, key, value):
    old = space[key]
    space[key] = value
    return old


def closure_bytes_per_member(diagrams) -> float:
    """tracemalloc peak of each closure, summed, over its members.

    The cyclic collector is held off while a closure is built, so that the
    figure does not depend on where a collection happens to fall.
    """
    from kohnert.diagrams import Diagram
    from kohnert.moves import generate_kd
    peak_total = members = 0
    tracemalloc.start()
    try:
        for d in diagrams:
            fresh = Diagram(frozenset(d.cells))
            gc.collect()
            gc.disable()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                kset = generate_kd(fresh)
                peak_total += tracemalloc.get_traced_memory()[1] - base
            finally:
                gc.enable()
            members += len(kset.members)
            del kset
    finally:
        tracemalloc.stop()
    return _ratio(peak_total, members)
