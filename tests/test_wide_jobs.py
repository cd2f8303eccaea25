"""Wide seeded jobs through the ``spime`` command, checked against the ``cryptography`` package.

A canonical job is read in one pass and any other spelling line by line, and
the result file is rendered in runs of ~64 KiB of whole lines. These checks run
jobs as wide as the benchmark's (4096 units x 2 blocks) through both readers
and several runs, to a file and to stdout.
"""

import random

import pytest

from oracles import aes128_ecb
from helpers import spime


def _seeded_job(tmp_path, units, seed):
    """Write ``job.txt`` of ``units`` x 2 seeded blocks; return the result lines it must give."""
    rng = random.Random(seed)
    job, want = [], []
    for _ in range(units):
        key, blocks = rng.randbytes(16), [rng.randbytes(16) for _ in range(2)]
        job.append(f"{key.hex()} {','.join(b.hex() for b in blocks)}\n")
        want.append(f"{key.hex()} {','.join(aes128_ecb(key, b).hex() for b in blocks)}\n")
    (tmp_path / "job.txt").write_text("".join(job))
    return want


def _report(units):
    return f"num_pims={units} blocks_per_unit=2 total_cycles=30 per_block_cycles=15\n"


def _simulate(tmp_path, job, units):
    """Run ``simulate`` on ``job`` to a result file; return its lines.

    Results are compared as lists of lines, so that a failure names the first line that
    differs at once (a diff of two long strings takes minutes)."""
    out = job.replace(".txt", ".out")
    proc = spime("simulate", "--job", job, "--output", out, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, _report(units), ""), job
    return (tmp_path / out).read_text().splitlines(keepends=True)


def test_the_datapath_at_the_benchmarks_width(tmp_path):
    want = _seeded_job(tmp_path, 4096, seed=4096)
    assert _simulate(tmp_path, "job.txt", 4096) == want


@pytest.mark.parametrize("spelling", ["canonical", "comment", "tab", "nbsp", "blanks"])
def test_every_reader_gives_the_same_result(tmp_path, spelling):
    """A canonical job is read in one pass. A trailing comment line or a tab on the last line
    sends the rest of the file through the per-line check; U+00A0 between the fields or a
    blank around them, on every line, sends every line after the first through it."""
    want = _seeded_job(tmp_path, 4096, seed=2)
    canonical = (tmp_path / "job.txt").read_text()
    lines = canonical.splitlines(keepends=True)
    if spelling == "comment":
        lines.append("# end\n")
    elif spelling == "tab":
        lines[-1] = lines[-1].replace(" ", "\t", 1)
    elif spelling == "nbsp":
        lines = [line.replace(" ", "\xa0", 1) for line in lines]
    elif spelling == "blanks":
        lines = [f" {line[:-1]} \n" for line in lines]
    text = "".join(lines)
    assert (text == canonical) == (spelling == "canonical")
    (tmp_path / f"{spelling}.txt").write_text(text)
    assert _simulate(tmp_path, f"{spelling}.txt", 4096) == want


def test_a_result_of_several_runs_to_a_file_and_to_stdout(tmp_path):
    """3000 x 2 units make 297,000 characters of result text: several ~64 KiB runs."""
    want = _seeded_job(tmp_path, 3000, seed=3000)
    assert len("".join(want)) == 297_000
    assert _simulate(tmp_path, "job.txt", 3000) == want
    proc = spime("simulate", "--job", "job.txt", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, _report(3000))
    assert proc.stdout.splitlines(keepends=True) == want
