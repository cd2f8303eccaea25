"""A run that exits non-zero creates no file: `main` opens every output a
command returns before it writes to any, and a failed run removes the
files it created (never one that was there before it)."""

import errno
import os
import random

import pytest

from spime.cli import EXIT_IO, main

from test_cli import C1_KEY_HEX, C1_PT_HEX, write_job


def _files(root):
    return {os.path.join(d, name) for d, _, names in os.walk(root) for name in names}


@pytest.fixture
def job(tmp_path):
    path = tmp_path / "job.txt"
    write_job(path, random.Random(0x18), num_pims=4, blocks_per_unit=2)
    return path


def test_an_unopenable_trace_leaves_no_result_file(tmp_path, job, capsys):
    result = tmp_path / "r.out"
    argv = ["simulate", "--job", str(job), "--output", str(result), "--trace", str(tmp_path)]
    assert main(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == (f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                            f"{str(tmp_path)!r}\n")
    assert captured.out == ""
    assert not result.exists()


def test_an_unopenable_result_leaves_no_trace_file(tmp_path, job, capsys):
    trace = tmp_path / "t.csv"
    argv = ["simulate", "--job", str(job), "--output", str(tmp_path), "--trace", str(trace)]
    assert main(argv) == EXIT_IO
    assert "Is a directory" in capsys.readouterr().err
    assert not trace.exists()


def test_a_failed_run_never_deletes_a_file_that_was_there(tmp_path, job, capsys):
    result = tmp_path / "r.out"
    result.write_text("kept\n")
    argv = ["simulate", "--job", str(job), "--output", str(result), "--trace", str(tmp_path)]
    assert main(argv) == EXIT_IO
    capsys.readouterr()
    assert result.exists()


@pytest.mark.parametrize("kept", [b"keep", b"an old result\n" * 1000], ids=["short", "long"])
def test_a_failed_open_leaves_an_existing_output_byte_for_byte(tmp_path, job, capsys, kept):
    result = tmp_path / "r.out"
    result.write_bytes(kept)
    argv = ["simulate", "--job", str(job), "--output", str(result), "--trace", str(tmp_path)]
    assert main(argv) == EXIT_IO
    assert "Is a directory" in capsys.readouterr().err
    assert result.read_bytes() == kept


def test_an_existing_longer_output_is_replaced_not_overlaid(tmp_path, job, capsys):
    result = tmp_path / "r.out"
    assert main(["simulate", "--job", str(job), "--output", str(result)]) == 0
    want = result.read_bytes()
    result.write_bytes(b"x" * (3 * len(want)))
    assert main(["simulate", "--job", str(job), "--output", str(result)]) == 0
    capsys.readouterr()
    assert result.read_bytes() == want


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_a_failed_write_removes_the_files_the_run_created(tmp_path, job, capsys):
    result = tmp_path / "r.out"
    argv = ["simulate", "--job", str(job), "--output", str(result), "--trace", "/dev/full"]
    assert main(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert "No space left on device" in captured.err
    assert captured.out == ""
    assert not result.exists()


@pytest.mark.parametrize("command", [
    ["encrypt", "--input", "{job}"],
    ["simulate", "--job", "{job}"],
    ["sweep", "--figure", "3"],
], ids=["encrypt-input", "simulate", "sweep"])
def test_an_output_in_a_missing_directory_creates_no_file(tmp_path, capsys, command):
    job = tmp_path / "job.txt"
    job.write_text(f"{C1_KEY_HEX} {C1_PT_HEX}\n")
    before = _files(tmp_path)
    argv = [arg.format(job=job) for arg in command]
    assert main([*argv, "--output", str(tmp_path / "missing" / "out")]) == EXIT_IO
    captured = capsys.readouterr()
    assert "No such file or directory" in captured.err
    assert captured.out == ""
    assert _files(tmp_path) == before
