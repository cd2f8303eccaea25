"""Smoke check of the benchmark harness: its self-test must pass.

``perfbench/run.py --selftest`` runs every workload at tiny sizes and checks
outputs only; no timing is compared here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
