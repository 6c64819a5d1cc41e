"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all [--seed N] [--seconds S]

Runs one workload in this process and prints, as its last stdout line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics traced).  The line before
it is a ``report`` object with the environment, fingerprint, quality figures
and checks.  ``--workload all`` runs every workload untraced and traced, each
in its own process, and prints a table with the tracing overhead.

Must be run from a checkout holding ``src/consol``; it exits with code 2
otherwise.  BLAS/OpenMP thread counts are pinned to 1 before numpy loads.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("syn1_search", "toy_search", "fixed_fit", "landscape_probe")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    rows = []
    for name in WORKLOAD_NAMES:
        lines = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            out = proc.stdout.strip().splitlines()
            lines[trace] = json.loads(out[-1])
            if trace == 0:
                report = json.loads(out[-2].split(" ", 1)[1])
        rows.append((name, lines, report))
    for name, lines, report in rows:
        line = lines[0]
        print(f"== {name}  correct={line['correct']}  "
              f"failed {line['failed']}/{line['attempted']}  "
              f"fingerprint {report['fingerprint']}")
        for metric, m in line["metrics"].items():
            print(f"   {metric:<14} {m['value']:>12.6g} {m['unit']}")
        print(f"   step_ms.tail is p{report['tail_percentile']} over "
              f"{report['timed_steps']} {report['step_unit']} steps")
        traced = lines[1]["metrics"]
        print(f"   trace overhead {traced['trace.overhead_pct']['value']:.1f} %, "
              f"gradients calls {traced['local_net.gradients.calls']['value']}")
        print(f"   quality {json.dumps(report['quality'])}")
    ok = all(lines[t]["correct"] for _, lines, _ in rows for t in (0, 1))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "consol", "__init__.py")):
        print(f"error: consol sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:         # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import harness
    from workloads import WORKLOADS

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    line, report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), workdir)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
