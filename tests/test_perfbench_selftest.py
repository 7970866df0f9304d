"""The benchmark's own self-test passes on this tree.

perfbench/selftest.py runs every workload once at its smallest size with
its exact oracle on (Lee forms, witness rechecks, CLI byte replay), so a
change that breaks what the benchmark checks fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"selftest": "pass"}
