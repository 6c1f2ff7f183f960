"""Benchmark entry point: run one workload and print its metrics.

    python3 benchmarks/run.py --workload closure --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
worker process (worker.py) that imports the package from ``src/``.
Set-up is timed in that worker and in eight more fresh processes, four
before it and four after, that only start the interpreter and import
the package; setup_s is the median of the nine.  With ``--trace 1`` the worker runs a fixed number of rounds
under the tracer, then the same rounds untraced, and the per-layer
metrics replace the end-to-end ones.

Every run writes a full record to .bench_results/ (environment, per-op
latencies, errors) and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8            # fresh processes besides the worker
WORKER_TIMEOUT_S = 170
WORKLOAD_NAMES = ("closure", "expand", "crystal", "cli")


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def spawn(args: list[str], env: dict, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    return t0, proc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = ROOT / "src" / "kohnert" / "__init__.py"
    if not package.is_file():
        print(f"error: no package source at {package.relative_to(ROOT)}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.unlink(missing_ok=True)

    setups: list[float] = []

    def probe(count: int) -> bool:
        for _ in range(count if not args.trace else 0):
            t0, proc = spawn([args.workload, "probe"], env, 60)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return False
            setups.append(float(proc.stdout.strip()) - t0)
        return True

    # half the probes before the workload and half after, so that the
    # median spans the run rather than one moment of the machine's speed
    if not probe(SETUP_PROBES // 2):
        return 1
    t0, proc = spawn([args.workload, "run", "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", str(out_file)], env, WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not out_file.is_file():
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return 1
    record = json.loads(out_file.read_text())
    if Path(record["package"]).resolve() != package.parent.resolve():
        print(f"error: imported kohnert from {record['package']}", file=sys.stderr)
        return 1
    setups.append(record["ready"] - t0)
    if not probe(SETUP_PROBES - SETUP_PROBES // 2):
        return 1

    lat = [ms for _, ms, _ in record["latencies"]]
    statuses = [status for _, _, status in record["latencies"]]
    attempted = len(lat)
    failed = attempted - statuses.count("ok")
    tail_ms, beyond = tail(lat, record["tail_pct"])
    record.update({
        "environment": environment(),
        "args": vars(args),
        "setup_s_samples": setups,
        "op_tail": {"percentile": record["tail_pct"], "ops": attempted,
                    "ops_beyond": beyond},
    })
    if args.trace:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in record["layers"].items()}
    else:
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / record["timed_s"], "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    record["metrics"] = metrics
    out_file.write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(record["environment"]))
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in "
          f"{record['rounds']} rounds, {record['timed_s']:.2f} s timed; "
          f"op_tail_ms is p{record['tail_pct']} with {beyond} ops beyond it")
    if args.trace:
        print(f"tracing overhead: {record['timed_s']:.2f} s traced against "
              f"{record['untraced_timed_s']:.2f} s untraced")
    for err in record["errors"][:10]:
        print("failed op: " + err)
    if record["ended_early"]:
        print("run ended early: " + record["ended_early"])
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": "wrong" not in statuses, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
