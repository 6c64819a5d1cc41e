import importlib.util
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from consol.local_net import (TrainConfig, _mse, fit_snapped, forward, get_weight_vector,
                              set_weight_vector)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(f for f in os.listdir(os.path.join(ROOT, "scripts"))
                 if f.endswith(".py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_runs(script):
    # --help imports everything the script imports, so a renamed or deleted
    # consol name fails here instead of on the next reproduction run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                           "--help"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def load_quality():
    spec = importlib.util.spec_from_file_location(
        "quality", os.path.join(ROOT, "scripts", "quality.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the keys of a QUALITY.json row, as scripts/quality.py documents them
FIT_KEYS = {"name", "seed", "nrmse_train", "nrmse_test", "e_c", "equation", "eta",
            "membership", "hessian_min_eig", "wall_s"}
SEARCH_KEYS = FIT_KEYS | {"stopped", "episodes", "best_reward", "segment_violations"}
TOY_KEYS = FIT_KEYS | {"w0_converged", "min_d2"}


def row_keys(name):
    return (SEARCH_KEYS if name.endswith("_search") else
            TOY_KEYS if name == "toy_fit" else FIT_KEYS)


@pytest.mark.parametrize("system,seed", [("power", 0), ("toy", 0)])
def test_quality_fit_recovers_and_repeats(system, seed):
    quality = load_quality()
    first, second = (quality.fit_row(system, seed) for _ in range(2))
    assert first["e_c"] <= quality.EXACT_E_C and first["membership"]
    assert set(first) == row_keys(first["name"]) and first["nrmse_test"] is None
    del first["wall_s"], second["wall_s"]
    assert first == second


def test_hessian_min_eig_at_the_toy_fit_is_positive_and_matches_finite_differences():
    quality = load_quality()
    train, _, _, structure, _, _ = quality.problem("toy", 0)
    weights, _ = fit_snapped(structure, TrainConfig(epochs=quality.FIT_EPOCHS["toy"]),
                             (train.X, train.Y))
    w0 = get_weight_vector(structure, weights)

    def loss(dw):
        w = set_weight_vector(structure, weights, w0 + dw)
        return _mse(forward(structure, w, train.X) - train.Y)

    h, P = 1e-4, len(w0)
    steps = h * np.eye(P)
    fd = np.array([[(loss(steps[i] + steps[j]) - loss(steps[i] - steps[j])
                     - loss(steps[j] - steps[i]) + loss(-steps[i] - steps[j])) / (4 * h * h)
                    for j in range(P)] for i in range(P)])
    lam = quality.hessian_min_eig(structure, weights, train)
    assert lam > 0.0
    assert lam == pytest.approx(np.linalg.eigvalsh(fd)[0], rel=1e-5)


def test_quality_json_has_one_row_per_planned_row():
    """A changed row plan, or rows edited without their summary, fails here."""
    quality = load_quality()
    with open(os.path.join(ROOT, "QUALITY.json")) as fh:
        doc = json.load(fh)
    assert [(r["name"], r["seed"]) for r in doc["rows"]] == list(quality.ROWS)
    for row in doc["rows"]:
        assert set(row) == row_keys(row["name"])
    assert doc["exact_e_c"] == quality.EXACT_E_C
    assert doc["summary"] == quality.summarize(doc["rows"])


def test_bench_pairs_leaves_no_export_and_no_child_after_sigterm(tmp_path):
    """SIGTERM ends bench_pairs.py as a normal exit would: the git-archive
    export of the parent is removed and the running benchmark is stopped."""
    if subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("bench_pairs.py exports the parent from a git checkout")
    tmp = tmp_path / "tmp"
    tmp.mkdir()

    def benchmark_pids():
        """The benchmark processes running from an export under tmp."""
        pids = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read()
            except OSError:
                continue
            if str(tmp).encode() in cmdline and b"run.py" in cmdline:
                pids.append(int(pid))
        return pids

    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_pairs.py"), "--parent", "HEAD",
         "--workload", "toy_search", "--pairs", "1", "--out", str(tmp_path / "b.json")],
        env={**os.environ, "TMPDIR": str(tmp)}, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not benchmark_pids():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert list(tmp.glob("*/parent"))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert benchmark_pids() == [] and list(tmp.iterdir()) == []
    finally:
        proc.kill()
        proc.wait()
        for pid in benchmark_pids():
            os.kill(pid, signal.SIGKILL)
