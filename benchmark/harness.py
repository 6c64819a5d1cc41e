"""Timed loop, correctness gate and metric assembly for one workload run.

A run times its set-up (see SETUP_*), then repeats the workload's job until
the next job would overrun `seconds` (at least one job).  Untraced,
it reports the end-to-end metrics.  Traced, it alternates an untraced and a
traced job, reports the per-layer metrics of the traced jobs, and checks that
the two kinds of job give the same fingerprint.

Timings are floors.  On a shared virtual machine a process runs at full
speed, then, for spells of a second up to minutes, up to about 1.5x slower;
stalls only ever add time.  So each job is cut into segments (see
workloads.py), every segment key keeps its fastest time over the run, and a
job's time is the sum of its segments' fastest times (`floors`).  Set-up is
timed in rounds spread over the run and keeps its fastest round.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import layers
from tracer import Tracer
from workloads import JobResult

#: minimum number of samples beyond a reported tail percentile
TAIL_BEYOND = 10
#: set-up is timed in rounds of at least SETUP_ROUND_S seconds (one set-up
#: per round if it takes longer): rounds for SETUP_FIRST_S before the jobs
#: (at least 3), then one after any job that ends SETUP_EVERY_S or more after
#: the last round, and one at the end; setup_s is the fastest round's time
#: per set-up
SETUP_ROUND_S = 0.05
SETUP_FIRST_S = 1.0
SETUP_EVERY_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "step_ms.p50": "ms",
    "step_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples above
    it; 100, the maximum, when n is too small for any."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / n)) if n > TAIL_BEYOND else 100


def nearest_rank(sorted_values, q: float) -> float:
    """q-th percentile by nearest rank."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def environment() -> dict:
    """Interpreter, numpy, BLAS and thread settings this run measured with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas,
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")}}


def setup_round(workload, seed: int, workdir: str):
    """(seconds per set-up, set-up calls made, inputs) of one round."""
    n, t0 = 0, time.perf_counter()
    while True:
        inputs = workload.setup(seed, workdir)
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_ROUND_S:
            return elapsed / n, n, inputs


def floors(jobs):
    """(floor of one job's seconds, per-step floor samples) over a run's
    (seconds, JobResult) pairs of one kind.  The part of a job outside its
    segments is one more segment, keyed "rest".  A step group's floor is
    the sum of its segments' floors, shared evenly by its steps."""
    def segments(seconds, result):
        inside = sum(t for _, t, _, _ in result.segments)
        return result.segments + [("rest", seconds - inside, None, 0)]

    best = {}
    for seconds, result in jobs:
        for key, t, _, _ in segments(seconds, result):
            best[key] = min(t, best.get(key, t))
    first = segments(*jobs[0])
    groups = {}
    for key, _, group, n in first:
        if group is not None:
            groups[group] = (groups.get(group, (0.0, n))[0] + best[key], n)
    samples = sorted(x for total, n in groups.values() for x in [total / n] * n)
    return sum(best[key] for key, _, _, _ in first), samples


def _failed_job(exc: BaseException) -> JobResult:
    traceback.print_exception(exc, file=sys.stderr)
    return JobResult(steps=0, segments=[], ops=1, failed=1,
                     checks={"job_completed": False}, quality={},
                     fingerprint=f"raised {type(exc).__name__}")


def _run_job(workload, inputs, tracer: Tracer | None = None):
    """(seconds, JobResult, (per-layer metrics, span summary) or None)."""
    if tracer is not None:
        tracer.reset()
        tracer.install(layers.traced_modules())
    t0 = time.perf_counter()
    try:
        result = workload.job(inputs)
    except Exception as exc:        # a failed job is a measured outcome
        result = _failed_job(exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = time.perf_counter() - t0
    layer = layers.job_metrics(tracer, result) if tracer is not None else None
    return seconds, result, layer


def run(workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Returns (result line dict, report dict)."""
    os.makedirs(workdir, exist_ok=True)
    try:
        rounds, t0 = [], time.perf_counter()
        while len(rounds) < 3 or time.perf_counter() - t0 < SETUP_FIRST_S:
            rounds.append(setup_round(workload, seed, workdir))
        inputs = rounds[0][2]
        tracer = Tracer(layers.EPISODE_FN, layers.OBSERVERS) if trace else None
        if tracer is not None:
            tracer.install(layers.traced_modules())
            try:
                workload.setup(seed, workdir)
            finally:
                tracer.uninstall()
            gen_s = layers.generator_seconds(tracer)

        plain, traced = [], []          # _run_job results
        start = last_round = time.perf_counter()
        while True:
            plain.append(_run_job(workload, inputs))
            if tracer is not None:
                traced.append(_run_job(workload, inputs, tracer))
            if time.perf_counter() - last_round >= SETUP_EVERY_S:
                rounds.append(setup_round(workload, seed, workdir))
                last_round = time.perf_counter()
            longest = max(t for t, _, _ in plain + traced)
            step = longest * (2 if tracer is not None else 1)
            if time.perf_counter() - start + step > seconds:
                break
        rounds.append(setup_round(workload, seed, workdir))
        verify = workload.verify(inputs) if hasattr(workload, "verify") else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = min(t for t, _, _ in rounds)
    setup_calls = sum(n for _, n, _ in rounds)

    jobs = [r for _, r, _ in plain + traced]
    checks = {}
    for r in jobs:
        for name, ok in r.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks.update(verify)
    # also shows, in a traced run, that the wrappers change no result
    checks["fingerprint_repeats"] = len({r.fingerprint for r in jobs}) == 1
    checks["quality_repeats"] = len({repr(r.quality) for r in jobs}) == 1
    if tracer is not None:
        counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".base"))}
                  for _, _, (m, _) in traced]
        checks["trace_counts_repeat"] = all(c == counts[0] for c in counts)
    attempted = sum(r.ops for r in jobs)
    failed = sum(r.failed for r in jobs)
    if not all(checks.values()) and failed == 0:
        failed = attempted          # a run-level check failed: no result stands
    correct = failed == 0 and all(checks.values())

    run_s, step_floors = floors([(t, r) for t, r, _ in plain])
    tail_q = tail_percentile(len(step_floors))
    first = jobs[0]
    report = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "step_unit": workload.step_unit,
        "job_s": [t for t, _, _ in plain], "traced_job_s": [t for t, _, _ in traced],
        "steps_per_job": first.steps, "timed_steps": len(step_floors),
        "tail_percentile": tail_q,
        "operations": attempted, "failed_ratio": failed / attempted,
        "fingerprint": first.fingerprint, "quality": first.quality,
        "checks": checks, "setup_calls": setup_calls,
        "environment": environment(),
    }
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "steps_per_s": first.steps / run_s,
            "step_ms.p50": 1e3 * nearest_rank(step_floors, 50) if step_floors else 0.0,
            "step_ms.tail": 1e3 * nearest_rank(step_floors, tail_q) if step_floors else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        per_job = [m for _, _, (m, _) in traced]
        units = layers.metric_units()
        values = {name: statistics.median(m[name] for m in per_job)
                  for name in per_job[0]}
        for name, unit in units.items():
            if unit == "count":
                values[name] = int(values[name])
        values["datasets.gen.s"] = gen_s
        overhead = floors([(t, r) for t, r, _ in traced])[0] / run_s - 1.0
        values["trace.overhead_pct"] = 100.0 * overhead
        report["spans"] = traced[0][2][1]
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
    return line, report
