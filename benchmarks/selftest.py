"""Self-test of the benchmark: its checkers catch wrong results, and every
workload runs end to end.

    python3 benchmarks/selftest.py            # from the root of a checkout

For each workload one operation is run as is (its check must pass) and
once more with a deliberately wrong result (its check must fail, so the
op counts as failed): a polynomial with one coefficient changed
(closure), a dropped expansion term (expand), a missing component
(crystal), and CLI output with a wrong count (cli).  Then each workload
runs briefly through run.py, and the traced cli run is made twice to see
that its counts repeat exactly.  Exits 1 if any of this fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS, CliResult, Context, run_op  # noqa: E402


def bump_coefficient(poly):
    exps = next(iter(poly.terms))
    poly.terms[exps] += 1
    return poly


def wrong_kd_count(res: CliResult) -> CliResult:
    data = json.loads(res.out)
    data["count"] += 1
    return CliResult(res.code, json.dumps(data))


def wrong_case_count(res: CliResult) -> CliResult:
    head, _, rest = res.out.partition(": ")
    count, _, tail = rest.partition(" ")
    return CliResult(res.code, f"{head}: {int(count) + 1} {tail}")


# workload -> (which op of round 0, how to spoil its output)
INJECTIONS = {
    "closure": [(0, "changed coefficient", bump_coefficient)],
    "expand": [(lambda label: label.startswith("key_"), "dropped key term",
                lambda terms: terms[:-1]),
               (lambda label: label.startswith("slide_"), "dropped slide term",
                lambda terms: terms[:-1])],
    "crystal": [(1, "missing component", lambda comps: comps[:-1])],
    "cli": [(lambda label: label.startswith("kd "), "wrong member count", wrong_kd_count),
            (lambda label: label.startswith("verify "), "wrong case count", wrong_case_count)],
}


def check_injections(workdir: Path) -> list[str]:
    problems = []
    for name, cases in INJECTIONS.items():
        workload = WORKLOADS[name]
        ctx = Context(7, workdir)
        workload.fixed_ops(ctx)
        ops = workload.round_ops(ctx, 0)
        for pick, what, spoil in cases:
            op = ops[pick] if isinstance(pick, int) else next(o for o in ops if pick(o.label))
            errors: list = []
            latencies: list = []
            honest, _ = run_op(op, latencies, errors)
            call = op.call
            op.call = lambda call=call, spoil=spoil: spoil(call())
            spoiled, _ = run_op(op, latencies, errors)
            op.call = call
            verdict = "ok" if honest == "ok" and spoiled == "wrong" else "FAIL"
            print(f"{verdict} {name}: {op.label}: honest result {honest}, {what} {spoiled}")
            if verdict != "ok":
                problems.append(f"{name}: {what}")
    return problems


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "11", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_smoke() -> list[str]:
    problems = []
    for name in WORKLOADS:
        result = run_bench(name, 0)
        ok = result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 \
            and all(m["value"] > 0 for m in result["metrics"].values())
        print(f"{'ok' if ok else 'FAIL'} smoke {name}: {result['attempted']} ops, "
              f"{result['failed']} failed")
        if not ok:
            problems.append(f"smoke {name}")
    first, second = run_bench("cli", 1), run_bench("cli", 1)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "B")}
              for r in (first, second)]
    same = counts[0] == counts[1] and first["failed"] == second["failed"] == 0
    print(f"{'ok' if same else 'FAIL'} traced cli counts repeat: {len(counts[0])} counts")
    if not same:
        problems.append("traced counts differ")
    return problems


def main() -> int:
    if not (ROOT / "src" / "kohnert" / "__init__.py").is_file():
        print("error: run from a source checkout", file=sys.stderr)
        return 2
    (ROOT / ".bench_results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_results") as tmp:
        problems = check_injections(Path(tmp))
    problems += check_smoke()
    print("selftest: " + ("PASS" if not problems else "FAIL " + ", ".join(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    os.environ.setdefault("PYTHONHASHSEED", "0")
    sys.exit(main())
