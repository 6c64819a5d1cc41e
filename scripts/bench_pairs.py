"""Alternating parent/change pairs of the benchmark, summarized as a
BENCH_<n>.json record.

Usage: python scripts/bench_pairs.py --parent REV --workload W --pairs N
                                     --out FILE [--first-seed 1]

The change is this checkout's working tree; the parent is the committed tree
of REV, exported with `git archive` into a temporary directory that is
removed afterwards, also when the script is stopped with SIGTERM, which
stops the running benchmark process too (unlike a `git worktree`, the export
registers nothing in the repository).  For each workload (W is one name or
"all") it first runs TRACED_RUNS short traced seed-0 runs per side,
alternating which side runs first, and records both sides' fingerprints and
quality figures and the median and every value of the per-layer figures of
the fit kernels (one traced run of a search varies by up to 1.6x).  Then it runs N pairs of
``benchmark/run.py --workload W --seed S`` for the run length
BENCHMARK.json sets, one process per run, pair i at seed first_seed + i on
both sides, alternating which side runs first.  Per end-to-end metric it
writes the medians, the quartiles, the change/parent ratio of the medians,
the pairs the change won and every pair's values; per workload, the failed
operations per side and whether the fingerprints agreed in every pair.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("syn1_search", "toy_search", "fixed_fit", "landscape_probe")
#: run length of the traced seed-0 runs, as in earlier BENCH files
FINGERPRINT_SECONDS = 5
#: traced seed-0 runs per side and workload
TRACED_RUNS = 5


#: the per-layer metrics recorded from the traced seed-0 runs
LAYERS = ("local_net.gradients.", "local_net.fit_trace.self_s", "local_net.fit_snapped.",
          "q_learning.phase.polish_s", "icnn.icnn_fit.", "icnn.minimize_over_box_batch.",
          "icnn.icnn_value_and_input_grad.calls", "q_learning.phase.action_s")


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark process: (report, result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "benchmark", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def summarize(pairs, better):
    """Medians, quartiles, ratio and pairs won for one metric, given
    (parent, change) values per pair."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]

    def quartiles(xs):
        return [round(float(q), 6) for q in np.percentile(xs, (25, 75))]

    won = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    return {
        "parent_median": round(statistics.median(parent), 6),
        "change_median": round(statistics.median(change), 6),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "ratio": round(statistics.median(change) / statistics.median(parent), 3),
        "change_better_pairs": won,
        "pairs": [[round(p, 6), round(c, 6)] for p, c in pairs],
    }


def alternating(i):
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def traced_seed0(sides, workload):
    """The seed-0 report per side, whether every traced run of a side gave
    the same fingerprint and quality, and per layer metric the median and
    every value per side."""
    runs = {name: [] for name in sides}
    for i in range(TRACED_RUNS):
        for name in alternating(i):
            runs[name].append(run_once(sides[name], workload, 0, FINGERPRINT_SECONDS,
                                       trace=1))
    repeatable = all(
        (r[0]["fingerprint"], r[0]["quality"]) ==
        (runs[name][0][0]["fingerprint"], runs[name][0][0]["quality"])
        for name in sides for r in runs[name])
    layers = {}
    for m in runs["parent"][0][1]["metrics"]:
        if m.startswith(LAYERS):
            values = {name: [r[1]["metrics"][m]["value"] for r in runs[name]]
                      for name in sides}
            layers[m] = {
                **{name: statistics.median(values[name]) for name in sides},
                "runs": values,
            }
    return {name: runs[name][0][0] for name in sides}, repeatable, layers


def bench_workload(sides, workload, n_pairs, first_seed, seconds, better):
    seed0, repeatable, layers = traced_seed0(sides, workload)
    runs = []
    for i in range(n_pairs):
        order = alternating(i)
        out = {name: run_once(sides[name], workload, first_seed + i, seconds)
               for name in order}
        runs.append(out)
        ratio = out["change"][1]["metrics"]["run_s"]["value"] / \
            out["parent"][1]["metrics"]["run_s"]["value"]
        print(f"{workload} pair {i + 1}/{n_pairs} seed {first_seed + i}: "
              f"run_s change/parent {ratio:.3f}", file=sys.stderr, flush=True)
    metrics = runs[0]["parent"][1]["metrics"]
    return seed0, {
        "pairs": n_pairs,
        "seeds": [first_seed, first_seed + n_pairs - 1],
        "failed": {name: sum(r[name][1]["failed"] for r in runs) for name in sides},
        "jobs_per_run": {name: [len(r[name][0]["job_s"]) for r in runs] for name in sides},
        "fingerprints_equal_in_every_pair": all(
            r["parent"][0]["fingerprint"] == r["change"][0]["fingerprint"] for r in runs),
        "end_to_end": {
            m: summarize([(r["parent"][1]["metrics"][m]["value"],
                           r["change"][1]["metrics"][m]["value"]) for r in runs],
                         better[m])
            for m in metrics},
        "seed0_traced_runs_repeatable": repeatable,
        "per_layer_seed0_traced": layers,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="seed of the first pair; pair i uses first_seed + i")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    # a normal exit: subprocess.run kills the running benchmark process and
    # the export's TemporaryDirectory is removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent_rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", args.parent],
                                capture_output=True, text=True, check=True).stdout.strip()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = os.path.join(tmp, "parent")
        tar = os.path.join(tmp, "parent.tar")
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", tar, parent_rev],
                       check=True)
        with tarfile.open(tar) as tf:
            tf.extractall(parent_dir, filter="data")
        sides = {"parent": parent_dir, "change": ROOT}
        record = {
            "parent_commit": parent_rev,
            "machine": f"{os.cpu_count()}-core, Python {sys.version.split()[0]}, "
                       f"numpy {np.__version__}, BLAS threads pinned to 1 "
                       "by benchmark/run.py",
            "seed0_fingerprints": {
                "command": f"python3 benchmark/run.py --workload W --seed 0 "
                           f"--seconds {FINGERPRINT_SECONDS} --trace 1, "
                           f"{TRACED_RUNS} runs per side, alternating",
                "parent": {}, "change": {}, "quality_equal": True},
            "pairs_method": (
                f"python3 benchmark/run.py --workload W --seed N --seconds "
                f"{seconds:g} --trace 0, one process per run; pair i uses "
                f"seed {args.first_seed}+i on both sides; the side that runs "
                "first alternates from pair to pair"),
            "workloads": {},
        }
        fps = record["seed0_fingerprints"]
        for w in workloads:
            seed0, record["workloads"][w] = bench_workload(
                sides, w, args.pairs, args.first_seed, seconds, better)
            for name in sides:
                fps[name][w] = seed0[name]["fingerprint"]
            fps["quality_equal"] &= seed0["parent"]["quality"] == seed0["change"]["quality"]
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
