"""algoselect benchmark: one workload per run, one JSON result line on stdout.

    python3 perfbench/run.py --workload offline-erm --seed 0 --seconds 25 --trace 0

Run from the repository root.  The library is imported from `src/` next to
this directory; nothing is installed.  With `--trace 0` the run measures the
end-to-end metrics; with `--trace 1` it runs the workload untraced for half
of `--seconds`, then with every algoselect function wrapped in spans for the
other half, and reports the per-layer metrics and the tracing overhead.
Everything runs in one process on one thread.  See README.md.
"""

from __future__ import annotations

import os

# One thread: BLAS pools and the library's own thread cap stay off.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ALGOSELECT_THREADS", None)

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import algoselect from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "algoselect", "__init__.py")):
        sys.exit(f"benchmark: no algoselect sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401  (counted in the import time)

    import algoselect
    import algoselect.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(algoselect.__file__)) != os.path.join(SRC, "algoselect"):
        sys.exit(f"benchmark: algoselect imported from {algoselect.__file__}, not {SRC}")
    return algoselect


def run_rounds(workload, seconds: float, rounds: list) -> list:
    """Whole rounds until `seconds` have passed (at least one)."""
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        if time.perf_counter() - start >= seconds:
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    algoselect = import_library()

    import reference
    import spans as tracing
    import workloads
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    problems = reference.self_test()
    if problems:
        sys.exit("benchmark: reference self-test failed: " + "; ".join(problems))

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.Workload(args.workload, args.seed)
        # Set-up time at calibration speed, like every timing (workloads.Stopwatch).
        import_s *= workloads.CALIBRATION_S / workloads.calibrate()
        watch = workloads.Stopwatch()
        setup_times = []
        for k in range(SETUP_REPEATS):
            workdir = os.path.join(tmp, f"setup{k}")
            os.makedirs(workdir)
            setup_times.append(watch.time(workload.setup, workdir)[1])
        setup_s = import_s + workloads.median(setup_times)

        rounds: list = []
        tracer = None
        if args.trace:
            run_rounds(workload, args.seconds / 2, rounds)
            untraced = len(rounds)
            tracer = tracing.Tracer()
            tracer.install(algoselect)
            try:
                run_rounds(workload, args.seconds / 2, rounds)
            finally:
                tracer.uninstall()
        else:
            run_rounds(workload, args.seconds, rounds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted, failures = workload.check(rounds)
        for failure in failures[:20]:
            print(failure, file=sys.stderr)
        correct = all(f.expected for f in failures)

        if args.trace:
            traced = len(rounds) - untraced
            metrics = tracing.per_layer_metrics(tracer, traced)
            base, with_spans = (workloads.median([r["wall"] for r in part])
                                for part in (rounds[:untraced], rounds[untraced:]))
            metrics["trace.overhead_pct"] = (100.0 * (with_spans / base - 1.0), "%")
            tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
            with open(os.path.join(OUT, f"trace-{args.workload}.json"), "w") as fh:
                fh.write(tracing.summary_json(tracer))
        else:
            metrics = workload.metrics(rounds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
