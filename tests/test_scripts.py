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
FIT_KEYS = {"name", "seed", "nrmse_train", "nrmse_test", "e_c", "equation", "wall_s"}
SEARCH_KEYS = FIT_KEYS | {"stopped", "episodes", "best_reward"}


def test_quality_power_fit_recovers_and_repeats():
    quality = load_quality()
    first, second = (quality.fit_row("power", 0) for _ in range(2))
    assert first["e_c"] <= quality.EXACT_E_C
    assert set(first) == FIT_KEYS and first["nrmse_test"] is None
    del first["wall_s"], second["wall_s"]
    assert first == second


def test_quality_json_has_one_row_per_planned_row():
    """A changed row plan without a fresh QUALITY.json fails here."""
    quality = load_quality()
    with open(os.path.join(ROOT, "QUALITY.json")) as fh:
        doc = json.load(fh)
    assert [(r["name"], r["seed"]) for r in doc["rows"]] == list(quality.ROWS)
    for row in doc["rows"]:
        assert set(row) == (SEARCH_KEYS if row["name"].endswith("_search") else FIT_KEYS)
    assert set(doc["summary"]["exact_recoveries"]) == {name for name, _ in quality.ROWS}
