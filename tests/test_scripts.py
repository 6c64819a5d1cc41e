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
