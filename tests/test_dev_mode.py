"""Every command runs clean under ``python -X dev -W error``.

Dev mode turns on the checks a plain run skips, such as ``ResourceWarning``
for a file left open, and ``-W error`` makes every warning an error. A
warning printed at exit cannot change the exit code, so each check also
asserts that stderr holds nothing but the expected error line.
"""

import pathlib

import pytest

from oracles import FIPS_C1_CIPHERTEXT, FIPS_C1_KEY, FIPS_C1_PLAINTEXT
from helpers import CIPHERTEXT, DATA, PLAINTEXT, fips_job, run_python


def _dev(*argv, cwd):
    return run_python("-X", "dev", "-W", "error", "-m", "spime", *argv, cwd=cwd)


def test_encrypt_verify(tmp_path):
    proc = _dev("encrypt", FIPS_C1_KEY.hex(), FIPS_C1_PLAINTEXT.hex(), "--verify", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, FIPS_C1_CIPHERTEXT.hex() + "\n", "")


def test_simulate_with_a_trace(tmp_path):
    (tmp_path / "dev.job").write_text(fips_job(PLAINTEXT, blocks=2))
    proc = _dev("simulate", "--job", "dev.job", "--output", "dev.out", "--trace", "dev.csv",
                cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "num_pims=2 blocks_per_unit=2 total_cycles=30 per_block_cycles=15\n"
    assert len((tmp_path / "dev.csv").read_text().splitlines()) == 61
    assert (tmp_path / "dev.out").read_text() == fips_job(CIPHERTEXT, blocks=2)


def test_sweep_figure_6(tmp_path):
    proc = _dev("sweep", "--figure", "6", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (DATA / "figure6.csv").read_text()


def test_a_job_with_no_units_is_refused_with_no_line_number(tmp_path):
    job = tmp_path / "dev.empty.job"
    job.write_text("# no units\n\n")
    proc = _dev("simulate", "--job", str(job), "--output", "dev.empty.out", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {job}: job file holds no units\n"
    assert not (tmp_path / "dev.empty.out").exists()


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_sweep_to_a_full_device_fails_once_and_stages_nothing(tmp_path):
    # 480 rows, about 24 KB: the write fails with the row iterator part read.
    proc = _dev("sweep", "--device", "U55C", "U280", "VCU118", "ZCU104", "ZCU106",
                "--num-pims", *map(str, range(1, 9)), "--fmax-mhz", "100", "200", "300",
                "--block-bits", "128", "256", "512", "1024", "--output", "/dev/full",
                cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []
    assert not list(pathlib.Path("/dev").glob(".full.*.tmp"))
