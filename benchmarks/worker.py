"""One workload in one fresh, single-threaded process.

    python worker.py WORKLOAD probe
    python worker.py WORKLOAD run --seed N --seconds S --trace 0|1 --out FILE

The first statements import the package (``kohnert.cli`` for the cli
workload) and take the clock, so the parent can time interpreter start
plus import as set-up.  ``probe`` stops there and prints the clock
reading.  ``run`` generates inputs, runs the workload, and writes one
JSON record to FILE.  Run it through run.py, which sets PYTHONPATH.
"""

import sys
import time

if sys.argv[1] == "cli":
    import kohnert.cli  # noqa: F401
else:
    import kohnert  # noqa: F401
READY = time.perf_counter()

if sys.argv[2] == "probe":
    print(repr(READY))
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CliResult, Context, Exhausted, run_op  # noqa: E402

WALL_LIMIT_S = 140          # stop starting rounds after this, to end within 180 s
TRACED_MEMORY_ROUNDS = 1    # rounds whose closures the memory pass re-runs


def timed_run(workload, ctx, seconds: float, rounds: int | None, tracer=None) -> dict:
    """Fixed ops, then whole rounds: until the rounds have taken ``seconds``
    of timed work and ``min_ops`` ops are done, or exactly ``rounds``
    rounds when given."""
    latencies: list = []
    errors: list = []
    start = time.perf_counter()

    def run_all(ops):
        for op in ops:
            if tracer is not None:
                tracer.active = True
            try:
                _, out = run_op(op, latencies, errors)
            finally:
                if tracer is not None:
                    tracer.active = False
            if tracer is not None and isinstance(out, CliResult):
                tracer.output_bytes += len(out.out.encode())

    run_all(workload.fixed_ops(ctx))
    fixed = len(latencies)
    index = 0
    ended = None
    while True:
        # the rounds alone fill ``seconds``: were the fixed ops counted, a
        # slower machine would leave room for fewer rounds, shift the mix
        # toward the fixed ops and move ops_per_s more than the slowdown
        if rounds is not None:
            if index >= rounds:
                break
        elif (sum(lat[1] for lat in latencies[fixed:]) >= seconds * 1000.0
              and len(latencies) >= workload.min_ops) \
                or time.perf_counter() - start > WALL_LIMIT_S:
            break
        if tracer is not None and index == TRACED_MEMORY_ROUNDS:
            tracer.keep_closures = False
        try:
            ops = workload.round_ops(ctx, index)
        except Exhausted as exc:
            ended = f"round {index} not started: {exc}"
            break
        run_all(ops)
        index += 1
    return {"latencies": latencies, "errors": errors, "rounds": index, "ended_early": ended,
            "timed_s": sum(lat[1] for lat in latencies) / 1000.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("mode", choices=("run",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out_path = Path(args.out)
    workdir = out_path.parent / f"work-{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"ready": READY, "workload": workload.name,
              "tail_pct": workload.tail_pct,
              "package": str(Path(sys.modules["kohnert"].__file__).parent)}
    try:
        if not args.trace:
            record.update(timed_run(workload, Context(args.seed, workdir), args.seconds, None))
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_run(workload, Context(args.seed, workdir), args.seconds,
                                   workload.traced_rounds, tracer)
            finally:
                tracer.uninstall()
            # the same ops again, from freshly generated inputs, untraced
            plain = timed_run(workload, Context(args.seed, workdir), args.seconds,
                              workload.traced_rounds)
            overhead = traced["timed_s"] / plain["timed_s"]
            bytes_per_member = tracing.closure_bytes_per_member(tracer.closure_inputs)
            record.update(traced)
            record["untraced_timed_s"] = plain["timed_s"]
            record["layers"] = {k: [v, unit] for k, (v, unit) in
                                tracer.metrics(bytes_per_member, overhead).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
