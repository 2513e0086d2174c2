"""The experiment scripts run end to end on small batches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["classify_zoo.py"],
    ["support_profile.py", "Z4", "20", "0"],
    ["solver_shootout.py", "Z6", "20", "0"],    # exits 1 on any disagreement
], ids=lambda argv: argv[0])
def test_script_exits_cleanly(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
