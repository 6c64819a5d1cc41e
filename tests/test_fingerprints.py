"""The seed-0 behaviour fingerprints of the four benchmark workloads.

A fingerprint hashes what a job computed (equations, losses, rewards, probe
figures), so an unchanged one shows that a refactor kept the search path.  A
change that moves a path on purpose updates the constant here and says why.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FINGERPRINTS = {
    "syn1_search": "44ff8abd2c0376c9",
    "toy_search": "9e636b84fee46d1c",
    "fixed_fit": "8c628732635f9299",
    "landscape_probe": "05fec8ca602b9673",
}


@pytest.mark.parametrize("workload", sorted(FINGERPRINTS))
def test_seed0_fingerprint(workload):
    # benchmark/run.py finds src/ itself and pins the BLAS threads to 1
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmark", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])
    assert result["correct"]
    assert report["fingerprint"] == FINGERPRINTS[workload]
