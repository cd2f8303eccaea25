"""Shared test plumbing: paths, the child interpreter and the jobs and CSVs tests compare.

A child interpreter runs on the spime this process imported. The environment
it inherits is the one ``conftest.py`` cleans for the whole run.
"""

import csv
import io
import os
import pathlib
import shutil
import subprocess
import sys

import spime
from spime.array_sim import SpimeJob
from spime.perf import CSV_HEADER, sweep_csv_rows

from oracles import (
    FIPS_B_CIPHERTEXT,
    FIPS_B_KEY,
    FIPS_B_PLAINTEXT,
    FIPS_C1_CIPHERTEXT,
    FIPS_C1_KEY,
    FIPS_C1_PLAINTEXT,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(spime.__file__)))

C1_KEY_HEX = FIPS_C1_KEY.hex()
C1_PT_HEX = FIPS_C1_PLAINTEXT.hex()

# The FIPS-197 C.1 and Appendix B vectors: key, plaintext, ciphertext.
FIPS_UNITS = [(FIPS_C1_KEY, FIPS_C1_PLAINTEXT, FIPS_C1_CIPHERTEXT),
              (FIPS_B_KEY, FIPS_B_PLAINTEXT, FIPS_B_CIPHERTEXT)]
PLAINTEXT, CIPHERTEXT = 1, 2


# ---------------------------------------------------------------------------
# a fresh interpreter
# ---------------------------------------------------------------------------

def child_env(**overrides):
    """``os.environ`` with ``SRC`` first on ``PYTHONPATH``, then ``overrides``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def run_python(*args, cwd, env=None, timeout=60, **streams):
    """Run ``python *args`` in a fresh interpreter, in ``env`` (default ``child_env()``).

    ``streams`` go to ``subprocess.run``; without them stdout and stderr are
    captured as text.
    """
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env or child_env(),
                          timeout=timeout, **(streams or {"capture_output": True, "text": True}))


def copy_package(root, without=()):
    """Copy the spime package to ``root/spime``, leaving out its ``__pycache__`` and the
    files named in ``without``; return the environment of a child that imports the copy."""
    shutil.copytree(os.path.join(SRC, "spime"), os.path.join(root, "spime"),
                    ignore=shutil.ignore_patterns("__pycache__", *without))
    return child_env(PYTHONPATH=str(root))


def spime(*argv, cwd):
    """Run the installed ``spime`` script when it is on ``PATH``, else ``python -m spime``."""
    script = shutil.which("spime")
    return run_python(*([script] if script else ["-m", "spime"]), *argv, cwd=cwd)


def newly_loaded(statement, cwd):
    """The modules a fresh interpreter loads to run ``statement``; diffing ignores ``site``."""
    proc = run_python("-c", "import sys; before = set(sys.modules); " + statement
                      + "; print(*sorted(set(sys.modules) - before))", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# ---------------------------------------------------------------------------
# jobs and CSVs
# ---------------------------------------------------------------------------

def fips_job(column, blocks=1, sep=" ", ending="\n"):
    """A job line per FIPS unit: its key and ``blocks`` copies of its block in ``column``."""
    return "".join(f"{unit[0].hex()}{sep}{','.join([unit[column].hex()] * blocks)}{ending}"
                   for unit in FIPS_UNITS)


def write_job(path, rng, num_pims, blocks_per_unit):
    keys, inputs, lines = [], [], []
    for _ in range(num_pims):
        key = rng.randbytes(16)
        blocks = [rng.randbytes(16) for _ in range(blocks_per_unit)]
        keys.append(key)
        inputs.append(blocks)
        lines.append(f"{key.hex()} {','.join(b.hex() for b in blocks)}")
    path.write_text("\n".join(lines) + "\n")
    return keys, inputs


def random_job(rng, num_pims, blocks):
    return SpimeJob(keys=[rng.randbytes(16) for _ in range(num_pims)],
                    inputs=[[rng.randbytes(16) for _ in range(blocks)] for _ in range(num_pims)])


def flat_csv(grid, interpretation):
    """The flat path's CSV: every point through ``sweep_csv_rows``, written by ``csv.writer``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [CSV_HEADER, *sweep_csv_rows(list(grid), interpretation)])
    return buf.getvalue()
