"""A run that exits non-zero changes no regular file: `main` writes each
output a command returns to a new file beside its target, renames them onto
their targets only after every write has succeeded, and removes them if the
run fails (never a file that was there before it)."""

import contextlib
import errno
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from spime import cli
from spime.cli import EXIT_IO, main

from helpers import C1_KEY_HEX, C1_PT_HEX, run_python, write_job


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


@pytest.mark.parametrize("output, trace", [
    ("{tmp}/r.out", "{tmp}"),
    ("{tmp}", "{tmp}/t.csv"),
    pytest.param("{tmp}/r.out", "/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs a device that refuses writes")),
    ("{tmp}/r.out", "{tmp}/missing/t.csv"),
], ids=["unopenable-trace", "unopenable-result", "dev-full", "missing-directory"])
@pytest.mark.parametrize("kept", [False, True], ids=["new", "existing"])
def test_a_failed_run_leaves_no_staged_file(tmp_path, job, capsys, output, trace, kept):
    if kept:
        (tmp_path / "r.out").write_bytes(b"keep")
    before = {path: Path(path).read_bytes() for path in _files(tmp_path)}
    argv = ["simulate", "--job", str(job), "--output", output.format(tmp=tmp_path),
            "--trace", trace.format(tmp=tmp_path)]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().out == ""
    assert {path: Path(path).read_bytes() for path in _files(tmp_path)} == before


def test_an_output_in_a_missing_directory_names_the_path_as_given(tmp_path, job, capsys):
    result = tmp_path / "missing" / "r.out"
    assert main(["simulate", "--job", str(job), "--output", str(result)]) == EXIT_IO
    assert capsys.readouterr().err == (f"error: [Errno {errno.ENOENT}] "
                                       f"{os.strerror(errno.ENOENT)}: {str(result)!r}\n")


def test_a_symlinked_output_is_replaced_through_the_link(tmp_path, job, capsys):
    want = tmp_path / "want.out"
    assert main(["simulate", "--job", str(job), "--output", str(want)]) == 0
    target, link = tmp_path / "target.out", tmp_path / "link.out"
    target.write_bytes(b"keep")
    link.symlink_to(target)
    assert main(["simulate", "--job", str(job), "--output", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == want.read_bytes()
    assert _files(tmp_path) == {str(job), str(want), str(target), str(link)}


def test_a_replaced_output_keeps_its_mode(tmp_path, job, capsys):
    result = tmp_path / "r.out"
    result.write_bytes(b"keep")
    result.chmod(0o640)
    assert main(["simulate", "--job", str(job), "--output", str(result)]) == 0
    capsys.readouterr()
    assert result.read_bytes() != b"keep"
    assert stat.S_IMODE(result.stat().st_mode) == 0o640


def test_a_second_hard_link_keeps_the_old_bytes(tmp_path, job, capsys):
    result, other = tmp_path / "r.out", tmp_path / "other.out"
    result.write_bytes(b"keep")
    other.hardlink_to(result)
    assert main(["simulate", "--job", str(job), "--output", str(result)]) == 0
    capsys.readouterr()
    assert result.read_bytes() != b"keep"
    assert other.read_bytes() == b"keep"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs a null device")
def test_a_device_output_is_written_in_place(job, capsys):
    assert main(["simulate", "--job", str(job), "--output", os.devnull]) == 0
    assert "total_cycles=" in capsys.readouterr().out
    assert not stat.S_ISREG(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_a_read_only_output_is_refused_and_left_as_it_was(tmp_path, job, capsys):
    result = tmp_path / "r.out"
    result.write_bytes(b"keep")
    result.chmod(0o444)
    assert main(["simulate", "--job", str(job), "--output", str(result)]) == EXIT_IO
    assert capsys.readouterr().err == (f"error: [Errno {errno.EACCES}] "
                                       f"{os.strerror(errno.EACCES)}: {str(result)!r}\n")
    assert result.read_bytes() == b"keep"
    assert _files(tmp_path) == {str(job), str(result)}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_named_through_dev_fd_is_written_in_place(tmp_path, job, capsys):
    want = tmp_path / "want.csv"
    assert main(["simulate", "--job", str(job), "--output", os.devnull, "--trace", str(want)]) == 0
    read_end, write_end = os.pipe()
    try:
        assert main(["simulate", "--job", str(job), "--output", os.devnull,
                     "--trace", f"/dev/fd/{write_end}"]) == 0
    finally:
        os.close(write_end)
    capsys.readouterr()
    with open(read_end, "rb") as fh:
        assert fh.read() == want.read_bytes()
    assert _files(tmp_path) == {str(job), str(want)}


def test_a_killed_runs_staged_file_does_not_block_the_output(tmp_path, job, capsys):
    want, result = tmp_path / "want.out", tmp_path / "r.out"
    assert main(["simulate", "--job", str(job), "--output", str(want)]) == 0
    leftovers = [tmp_path / f".r.out.{os.getpid()}{n}.tmp" for n in ("", ".0", ".1")]
    for leftover in leftovers:
        leftover.write_bytes(b"killed")
    assert main(["simulate", "--job", str(job), "--output", str(result)]) == 0
    capsys.readouterr()
    assert result.read_bytes() == want.read_bytes()
    assert all(leftover.read_bytes() == b"killed" for leftover in leftovers)
    assert _files(tmp_path) == {str(job), str(want), str(result), *map(str, leftovers)}


def test_outputs_with_long_names_are_written(tmp_path, job, capsys):
    """A staged name holds at most 32 characters of its target's name, so names at the file
    system's limit are written, also two that share those 32 characters."""
    want, want_trace = tmp_path / "want.out", tmp_path / "want.csv"
    assert main(["simulate", "--job", str(job), "--output", str(want),
                 "--trace", str(want_trace)]) == 0
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    result, trace = tmp_path / ("r" * limit), tmp_path / ("r" * (limit - 4) + ".csv")
    assert main(["simulate", "--job", str(job), "--output", str(result), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert result.read_bytes() == want.read_bytes()
    assert trace.read_bytes() == want_trace.read_bytes()
    assert _files(tmp_path) == {str(job), str(want), str(want_trace), str(result), str(trace)}


def test_an_interrupted_run_leaves_no_staged_file(tmp_path, job, monkeypatch):
    def interrupt(fh, lines):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_write_lines", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--job", str(job), "--output", str(tmp_path / "r.out")])
    assert _files(tmp_path) == {str(job)}


@pytest.mark.parametrize("output, message", [
    ("", f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
    ("nd/", f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'nd/'"),
    ("d/.", f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'd/.'"),
    ("missing/..", f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'missing/..'"),
], ids=["empty", "trailing-slash", "dot", "dot-dot"])
def test_a_path_that_does_not_end_in_a_name_is_refused_as_open_refuses_it(
        tmp_path, job, capsys, monkeypatch, output, message):
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    before = _files(tmp_path)
    assert main(["simulate", "--job", str(job), "--output", output]) == EXIT_IO
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _files(tmp_path) == before


@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
@pytest.mark.parametrize("command", [
    ["encrypt", C1_KEY_HEX, C1_PT_HEX],
    ["simulate", "--job", "{job}", "--output", "R"],
    ["simulate", "--job", "{job}"],
    ["sweep", "--figure", "3"],
    ["devices"],
], ids=["encrypt", "simulate-output", "simulate-stdout", "sweep", "devices"])
def test_a_failed_stdout_write_exits_3_and_writes_no_file(tmp_path, job, command, sink):
    """The report line is an output like any other: a failed write of it is an ``OSError``.
    Stdout is buffered, as by default, so what it could not write is still buffered at exit,
    where Python flushes it again; that flush must not fail (Python would exit 120)."""
    if sink == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("needs a device that refuses writes")
    if sink == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)
    code = errno.EPIPE if sink == "closed-pipe" else errno.ENOSPC
    try:
        proc = run_python("-m", "spime", *(a.format(job=job) for a in command), cwd=tmp_path,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (EXIT_IO, f"error: [Errno {code}] "
                                              f"{os.strerror(code)}\n")
    assert _files(tmp_path) == {str(job)}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_a_failed_report_write_leaves_an_existing_output_as_it_was(tmp_path, job, capsys,
                                                                    monkeypatch):
    result = tmp_path / "r.out"
    result.write_bytes(b"keep")
    full = open("/dev/full", "w")
    monkeypatch.setattr(sys, "stdout", full)
    try:
        assert main(["simulate", "--job", str(job), "--output", str(result)]) == EXIT_IO
    finally:
        monkeypatch.undo()
        with contextlib.suppress(OSError):  # the report line it could not write is still buffered
            full.close()
    assert capsys.readouterr().err == (f"error: [Errno {errno.ENOSPC}] "
                                       f"{os.strerror(errno.ENOSPC)}\n")
    assert result.read_bytes() == b"keep"
    assert _files(tmp_path) == {str(job), str(result)}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
@pytest.mark.parametrize("command, code", [
    (["simulate", "--job", "{job}"], EXIT_IO),
    (["simulate", "--job", "missing.job", "--output", "R"], EXIT_IO),
    (["simulate", "--job", "{job}", "--num-pims", "5", "--output", "R"], cli.EXIT_USAGE),
], ids=["report-line", "missing-job", "usage-error"])
def test_a_failed_stderr_keeps_the_exit_code(tmp_path, job, command, code):
    """The report line (on stderr when the result goes to stdout) and the ``error:`` line fail
    on a full stderr; the exit code still tells. Stderr is buffered, as by default, so what it
    could not write is still buffered at exit, where Python flushes it again; that flush must
    not fail (Python would exit 120)."""
    with open(os.devnull, "w") as stdout, open("/dev/full", "w") as stderr:
        proc = run_python("-m", "spime", *(a.format(job=job) for a in command), cwd=tmp_path,
                          stdout=stdout, stderr=stderr)
    assert proc.returncode == code
    assert _files(tmp_path) == {str(job)}
