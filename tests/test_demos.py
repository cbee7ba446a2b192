import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("disk_counting.py", "holds across a 20-point mu grid: True"),
    ("symbol_playground.py", "passed: True"),
    ("interface_identities.py", "ratios 4.00 4.00 4.00 4.00"),
    ("rate_of_convergence.py", "fitted slope -0.5559"),
], ids=["disk_counting", "symbol_playground", "interface_identities",
        "rate_of_convergence"])
def test_demo_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
