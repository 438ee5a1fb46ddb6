"""aircast benchmark: closed-loop workloads of in-process aircast commands.

    python3 perfbench/run.py --workload train-beijing --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run sets the workload up three times from its seed, then repeats its
op, each started when the last has finished, until --seconds have passed
since the first. It then checks the outputs and prints one JSON object as
its last line: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. ``--workload all`` runs every workload in its own
process and prints each one's metrics by name and unit.
"""

from __future__ import annotations

import os
import sys

# BLAS is limited to the cores of the machine, at most two threads,
# before numpy loads.
THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3  # set-ups per run; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program():
    """Import aircast from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "aircast" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no aircast sources under {src}")
    sys.path.insert(0, str(src))
    os.environ.pop("AQC_SEED", None)  # the workload's config sets the seeds
    import aircast.cli
    return aircast.cli


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, setups: int = SETUPS,
                 trace_file: Path | None = None):
    """Run one workload; returns the result object that run.py prints."""
    cli = import_program()
    import workloads

    workload = workloads.WORKLOADS[name](sizes or workloads.FULL)
    base = BENCH / "_work" / f"{name}-{os.getpid()}"
    tracer = None
    try:
        setup_times = []
        for k in range(setups):
            work = base / f"setup{k}"
            work.mkdir(parents=True)
            t0 = perf_counter()
            workload.setup(work, seed)
            setup_times.append(perf_counter() - t0)

        latencies, failed = [], 0
        sink = io.StringIO()
        if trace:
            from tracing import Tracer
            tracer = Tracer()
        with tracer if tracer else contextlib.nullcontext():
            start = perf_counter()
            while True:
                if tracer:
                    tracer.begin_op()
                t0 = perf_counter()
                with contextlib.redirect_stdout(sink):
                    rc = cli.cli_dispatch(workload.argv)
                latencies.append(perf_counter() - t0)
                if tracer:
                    tracer.end_op()
                sink.seek(0)
                sink.truncate()
                if rc == 0:
                    workload.after_op()
                else:
                    failed += 1
                if perf_counter() - start >= seconds:
                    break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = workload.check()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    done = len(latencies) - failed
    if tracer:
        metrics = tracer.layer_metrics()
        if trace_file is not None:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_file, {"workload": name, "seed": seed})
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": workload.items * done / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(f"perfbench: {name}: set-ups {[round(t, 4) for t in setup_times]} s, "
          f"op latencies {[round(t, 4) for t in latencies]} s", file=sys.stderr)
    for message in errors:
        print(f"perfbench: {name}: check failed: {message}", file=sys.stderr)
    return {"correct": not errors, "attempted": len(latencies),
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; prints a table, then the results."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"{name}: attempted={r['attempted']} failed={r['failed']} "
              f"correct={str(r['correct']).lower()}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    trace_file = None
    if args.trace:
        trace_file = BENCH / "_traces" / f"{args.workload}-seed{args.seed}.json"
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), trace_file=trace_file)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
