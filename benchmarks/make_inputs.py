"""Remake inputs.json, the candidate inputs of every band.

    PYTHONPATH=src:benchmarks python3 benchmarks/make_inputs.py [FAMILY ...]

Each workload draws its inputs from bands (workloads.Band): a family
(Rothe diagrams of S_n, composition diagrams of n parts and a given
size, southwest diagrams in a box), a range of closure sizes and, for
most bands, a range of work: the thousands of Python calls, counted
with cProfile, that the band's op makes on the input.  Inputs of one
band then cost about the same, so a band's latencies, and the
percentiles that fall among them, move little with the seed.  Finding
members of a narrow band takes hundreds of proposals and profiled runs,
so the candidates are listed here once, with the closure size computed
by operators (Schubert polynomials, Demazure characters) or, for box
diagrams, by the closure.  The file holds inputs only; every run
recomputes the reference values it checks against and refuses a
candidate whose size left its band.

With FAMILY arguments only those families are remade and the other
bands are kept, so that two families can be made side by side.
"""

from __future__ import annotations

import cProfile
import json
import random
import sys

from workloads import INPUTS_FILE, WORK_OPS, WORKLOADS, make_input, propose

PER_BAND = 200          # candidates kept per band without a work range
PER_WORK_BAND = 120     # and per band with one
MAX_PROPOSALS = 60000   # per family
SEED = 20200217


def work_kcalls(op: str, inp) -> int:
    """Thousands of Python calls (functions and builtins) the op makes."""
    profiler = cProfile.Profile()
    profiler.enable()
    WORK_OPS[op](inp)
    profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats()) // 1000


def make_family(family: str, bands: list) -> dict:
    found = {band: [] for band in bands}

    def wanted(band):
        return band.keep or (PER_WORK_BAND if band.work else PER_BAND)

    rng = random.Random(f"{SEED} {family}")
    seen = set()
    for _ in range(MAX_PROPOSALS):
        if all(len(found[band]) >= wanted(band) for band in bands):
            break
        value = propose(family, rng)
        if value in seen:
            continue
        seen.add(value)
        inp = make_input(family, value)
        work: dict = {}
        for band in bands:
            if len(found[band]) >= wanted(band) or not band.lo <= inp.size <= band.hi:
                continue
            if band.work:
                if band.work not in work:
                    work[band.work] = work_kcalls(band.work, inp)
                if not band.wlo <= work[band.work] <= band.whi:
                    continue
            found[band].append(value)
    for band in bands:
        print(f"{band.key}: {len(found[band])} candidates from {len(seen)} proposals",
              file=sys.stderr)
    return {band.key: sorted(values) for band, values in found.items()}


def main() -> int:
    families: dict[str, set] = {}
    for workload in WORKLOADS.values():
        for band in workload.bands():
            families.setdefault(band.family, set()).add(band)
    only = set(sys.argv[1:]) or set(families)
    unknown = only - set(families)
    if unknown:
        print(f"unknown families: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    keys = {band.key for bands in families.values() for band in bands}
    old = json.loads(INPUTS_FILE.read_text()) if INPUTS_FILE.is_file() else {}
    table = {key: values for key, values in old.items() if key in keys}
    for family in sorted(only):
        table.update(make_family(family, sorted(families[family], key=lambda b: b.key)))
    # re-read, so that a family made side by side in another process is kept
    if INPUTS_FILE.is_file():
        for key, values in json.loads(INPUTS_FILE.read_text()).items():
            if key in keys and key.split()[0] not in only:
                table[key] = values
    INPUTS_FILE.write_text(json.dumps(dict(sorted(table.items())), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
