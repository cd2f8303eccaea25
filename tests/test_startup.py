"""Start-up: ``import spime.cli`` loads only what ``simulate`` and ``encrypt`` run.

Each check runs a fresh interpreter. In this process another test may
already have imported ``spime.perf``, which would hide a command that
forgot to import it lazily.
"""

import pytest

from spime.perf import load_device_catalog

from oracles import (
    FIPS_B_CIPHERTEXT,
    FIPS_B_KEY,
    FIPS_B_PLAINTEXT,
    FIPS_C1_CIPHERTEXT,
    FIPS_C1_KEY,
    FIPS_C1_PLAINTEXT,
)
from helpers import DATA, newly_loaded, run_python

# Modules the simulate path must not load: the perf model and what dataclasses pulls in.
NOT_AT_START_UP = {"spime.perf", "dataclasses", "inspect", "csv"}


def _spime(*argv, cwd):
    return run_python("-m", "spime", *argv, cwd=cwd)


def test_importing_the_cli_loads_neither_perf_nor_dataclasses(tmp_path):
    loaded = newly_loaded("import spime.cli", tmp_path)
    assert "spime.cli" in loaded
    assert loaded & NOT_AT_START_UP == set()


def test_importing_perf_loads_no_dataclasses_or_csv(tmp_path):
    loaded = newly_loaded("import spime.perf", tmp_path)
    assert "spime.perf" in loaded
    assert loaded & (NOT_AT_START_UP - {"spime.perf"}) == set()


def test_devices_lists_the_catalog_from_a_fresh_interpreter(tmp_path):
    proc = _spime("devices", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = [line.split()[0] for line in proc.stdout.splitlines()[2:]]
    assert names == list(load_device_catalog())


def test_sweep_figure_3_from_a_fresh_interpreter(tmp_path):
    proc = _spime("sweep", "--figure", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "figure3.csv").read_text()


def test_simulate_fips_job_from_a_fresh_interpreter(tmp_path):
    vectors = [(FIPS_C1_KEY, FIPS_C1_PLAINTEXT, FIPS_C1_CIPHERTEXT),
               (FIPS_B_KEY, FIPS_B_PLAINTEXT, FIPS_B_CIPHERTEXT)]
    (tmp_path / "fips.job").write_text("".join(f"{k.hex()} {p.hex()}\n" for k, p, _ in vectors))
    proc = _spime("simulate", "--job", "fips.job", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"{k.hex()} {c.hex()}\n" for k, _, c in vectors)
    assert proc.stderr == "num_pims=2 blocks_per_unit=1 total_cycles=15 per_block_cycles=15\n"


def test_a_job_that_is_not_utf8_names_its_line_from_a_fresh_interpreter(tmp_path):
    (tmp_path / "bad.job").write_bytes(
        b"# first\n" + f"{FIPS_C1_KEY.hex()} {FIPS_C1_PLAINTEXT.hex()}\n".encode() + b"caf\xe9\n")
    proc = _spime("simulate", "--job", "bad.job", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: bad.job: line 3: byte 0xe9 at offset 77 is not UTF-8 "
                           "(invalid continuation byte)\n")


@pytest.mark.parametrize("argv, phrase", [
    (["--help"], "Set SPIME_DEVICE_CATALOG to override the device catalog CSV."),
    (["sweep", "--help"], "analytical cycles per block (11; use 15 for the measured "
                          "handshake-inclusive constant)"),
], ids=["epilog", "cycles-per-task"])
def test_help_from_a_fresh_interpreter(tmp_path, argv, phrase):
    proc = _spime(*argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert phrase in " ".join(proc.stdout.split())
