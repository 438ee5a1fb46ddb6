"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints the metrics BENCHMARK.json names, with their units. Then it
hands every correctness check a deliberately perturbed output and expects
a rejection, and runs the benchmark where the aircast sources are absent,
expecting it to fail without a result. Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import run  # first: it caps the BLAS threads before numpy loads

import numpy as np

import checks
import workloads

SEED = 3
WORK = run.BENCH / "_work" / f"selfcheck-{os.getpid()}"


def spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_problems(name: str, trace: bool, result: dict, bench: dict) -> list[str]:
    expected = {m["name"]: m["unit"] for m in
                bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if got != expected:
        problems.append(f"{name} trace={int(trace)}: metrics {sorted(got)} "
                        f"do not match BENCHMARK.json")
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        problems.append(f"{name} trace={int(trace)}: {result['attempted']} "
                        f"attempted, {result['failed']} failed, "
                        f"correct={result['correct']}")
    return problems


def require_pass(workload) -> None:
    errors = workload.check()
    if errors:
        raise SystemExit(f"selfcheck: {workload.name} failed unperturbed: {errors}")


def one_op(name: str):
    """Set a tiny workload up and run its op once; leaves its files."""
    from aircast.cli import cli_dispatch

    workload = workloads.WORKLOADS[name](workloads.TINY)
    work = WORK / name
    work.mkdir(parents=True)
    workload.setup(work, SEED)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_dispatch(workload.argv)
    if rc != 0:
        raise SystemExit(f"selfcheck: {name} op exited with {rc}")
    workload.after_op()
    return workload


def perturbed_checks() -> dict[str, list[str]]:
    """Check name -> the errors it reported on a perturbed output; every
    list must be non-empty."""
    out = {}
    train = one_op("train-beijing")
    require_pass(train)
    out["laplacian top eigenvalue"] = checks.laplacian_errors(
        train.laplacian * 1.001, "perturbed")
    ckpt = train.out / "checkpoint.npz"
    arrays, meta = checks.read_npz(ckpt)
    arrays["decoder.b"] = arrays["decoder.b"] + 1e-15
    changed = WORK / "changed.npz"
    np.savez(changed, _meta=np.array(json.dumps(meta)), **arrays)
    out["bitwise identical checkpoints"] = checks.same_digest_errors(
        train.digests + [checks.arrays_digest(changed)], "checkpoint arrays")
    loss, pairs = train.gradients
    name, analytic, numeric = pairs[0]
    out["backward against central differences"] = checks.gradient_errors(
        loss, [(name, analytic * (1 + 1e-3), numeric)] + pairs[1:])

    fc = one_op("forecast-shenzhen")
    require_pass(fc)
    pred_rows, truth_rows = checks.read_rows(fc.pred), checks.read_rows(fc.truth)
    n = len(fc.layout.ids)
    expected = fc.items * workloads.HORIZON_72H * n
    truth_values = np.array([float(r[2]) for r in truth_rows])
    out["forecast row count"] = checks.forecast_rows_errors(
        pred_rows[:-1], truth_rows, expected, truth_values)
    shifted = truth_values.copy()
    shifted[0] += 0.1
    out["truth rows against the dataset"] = checks.forecast_rows_errors(
        pred_rows, truth_rows, expected, shifted)
    mae = checks.numpy_mae(pred_rows, truth_rows)
    out["evaluate MAE against numpy"] = checks.mae_errors(mae * (1 + 1e-9), mae)
    got, reference, tol = fc.forecast_pair
    bumped = got.copy()
    bumped[-1, 0] += 2 * tol
    out["forecast against the DOP853 reference"] = checks.reference_errors(
        bumped, reference, tol)

    ing = one_op("ingest-beijing")
    require_pass(ing)
    arrays, meta = checks.read_npz(ing.out)
    args = (ing.layout, ing.fields, ing.gaps)

    def first_block(complete: bool) -> tuple[int, int]:
        obs = ing.gaps.observed("pm25")
        steps = ing.fields.hours // 3
        full = obs[0:3 * steps:3] & obs[1:3 * steps:3] & obs[2:3 * steps:3]
        idx = np.argwhere(full if complete else ~full)[0]
        return int(idx[0]), int(idx[1])

    for label, complete in (("observed blocks unchanged", True),
                            ("24-hour imputation", False)):
        bad = {k: v.copy() for k, v in arrays.items()}
        bad["pm25"][first_block(complete)] *= 1 + 1e-6
        out[label] = checks.ingest_errors(bad, meta, *args)
    bad = {k: v.copy() for k, v in arrays.items()}
    bad["wind_u"][first_block(True)] += 1e-6
    out["wind components"] = checks.ingest_errors(bad, meta, *args)
    out["station table"] = checks.ingest_errors(
        arrays, dict(meta, station_ids=meta["station_ids"][::-1]), *args)
    return out


def bare_directory_fails() -> list[str]:
    """The benchmark alone, without the aircast sources, must fail."""
    bare = WORK / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "_traces",
                                                  "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload",
         "ingest-beijing", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, "
                f"stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    t0 = perf_counter()
    run.import_program()
    bench = spec()
    problems = []
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = run.run_workload(name, SEED, 0.0, trace,
                                          sizes=workloads.TINY, setups=1)
                problems += result_problems(name, trace, result, bench)
        for label, errors in perturbed_checks().items():
            status = "rejected" if errors else "ACCEPTED"
            print(f"perturbed output, {label}: {status}")
            if not errors:
                problems.append(f"{label}: a perturbed output passed")
        problems += bare_directory_fails()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print(f"selfcheck {'passed' if not problems else 'FAILED'} "
          f"in {perf_counter() - t0:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
