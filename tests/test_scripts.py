import importlib.util
import json
import os
import subprocess
import sys

import pytest

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
            "membership", "wall_s"}
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
