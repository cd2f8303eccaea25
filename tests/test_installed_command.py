"""The ``spime`` command as a user runs it, in a fresh process.

Each check runs the installed ``spime`` script when one is on ``PATH`` (as
after ``pip install -e .``), and ``python -m spime`` otherwise. Either way the
interpreter is this one, on the spime this process imported.
"""

import pytest

from oracles import FIPS_C1_CIPHERTEXT, FIPS_C1_KEY, FIPS_C1_PLAINTEXT
from helpers import CIPHERTEXT, DATA, FIPS_UNITS, PLAINTEXT, fips_job, spime


def test_encrypt_verify_prints_the_fips_ciphertext(tmp_path):
    proc = spime("encrypt", FIPS_C1_KEY.hex(), FIPS_C1_PLAINTEXT.hex(), "--verify", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, FIPS_C1_CIPHERTEXT.hex() + "\n", "")


@pytest.mark.parametrize("figure", [3, 4, 5, 6, 7])
def test_sweep_figure_is_its_golden_csv(tmp_path, figure):
    proc = spime("sweep", "--figure", str(figure), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (DATA / f"figure{figure}.csv").read_text()


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("spelling", ["plain", "upper-tab-crlf"])
def test_simulate_and_encrypt_give_the_fips_ciphertexts(tmp_path, spelling, blocks):
    """Uppercase hex, tab separators and CRLF endings give the same, lowercase, result."""
    if spelling == "plain":
        text = fips_job(PLAINTEXT, blocks)
    else:
        text = fips_job(PLAINTEXT, blocks, "\t", "\r\n").upper()
    (tmp_path / "fips.job").write_text(text, newline="")
    proc = spime("simulate", "--job", "fips.job", "--output", "fips.out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fips.out").read_text() == fips_job(CIPHERTEXT, blocks)
    if blocks == 1:
        # encrypt runs the same operands as one job on the same array: the ciphertext column.
        proc = spime("encrypt", "--input", "fips.job", "--verify", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "".join(ct.hex() + "\n" for _, _, ct in FIPS_UNITS)


def test_refusals_exit_2_and_write_no_file(tmp_path):
    (tmp_path / "latin1.txt").write_bytes(b"\xff\xfe caf\xe9\n")
    assert spime("simulate", "--job", "latin1.txt", cwd=tmp_path).returncode == 2
    proc = spime("sweep", "--device", "U55C", "--fmax-mhz", "100", "1e-320",
                 "--output", "late.csv", cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "late.csv").exists()


def test_an_output_path_ending_in_a_slash_creates_nothing(tmp_path):
    (tmp_path / "fips.job").write_text(fips_job(PLAINTEXT))
    proc = spime("simulate", "--job", "fips.job", "--output", "nodir/", cwd=tmp_path)
    assert proc.returncode == 3
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fips.job"]


def test_other_spellings_of_a_command_line_give_the_same_bytes(tmp_path):
    """A plain command line is read without argparse; any other spelling goes to argparse."""
    (tmp_path / "spell.job").write_text(fips_job(PLAINTEXT))
    report = "num_pims=2 blocks_per_unit=1 total_cycles=15 per_block_cycles=15\n"
    spellings = {
        "plain": ["--job", "spell.job", "--output", "plain.out"],
        "equals": ["--job=spell.job", "--output=equals.out"],
        "abbrev": ["--out", "abbrev.out", "--job", "spell.job"],
    }
    for name, args in spellings.items():
        proc = spime("simulate", *args, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, report, ""), name
        assert (tmp_path / f"{name}.out").read_text() == fips_job(CIPHERTEXT)
    proc = spime("sweep", "--figure=3", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, (DATA / "figure3.csv").read_text())
