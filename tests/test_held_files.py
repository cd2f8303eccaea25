"""The ``spime`` command reaches every file through one handle.

An input is read once, through the handle that opened it: a byte that is not
UTF-8 in a FIFO or a pipe is named from the decoder's error (no line), never
by opening the path again, which on a FIFO would wait for a writer forever.
An output path that names the file stdout or stderr already holds
(``/dev/stdout``, ``/dev/fd/1``, ``/dev/stderr`` under a redirect) is written
through that stream, so the bytes already in the file stay and nothing is
renamed over it. Each run is a fresh ``python -m spime`` with buffered
streams and a timeout, so a hang fails the test and the child is killed.
"""

import os
import random
import subprocess
import threading

import pytest

from spime.cli import EXIT_OK, EXIT_USAGE, main

from helpers import DATA, child_env, run_python, write_job

TIMEOUT_S = 30

pytestmark = pytest.mark.skipif(not os.path.exists("/dev/fd/1"),
                                reason="needs /dev/stdout, /dev/stderr and /dev/fd")


def _spime(tmp_path, *args, catalog=None, **kwargs):
    env = child_env() if catalog is None else child_env(SPIME_DEVICE_CATALOG=catalog)
    return run_python("-m", "spime", *args, cwd=tmp_path, env=env, timeout=TIMEOUT_S, **kwargs)


def _staged(tmp_path):
    return sorted(path.name for path in tmp_path.glob(".*.tmp"))


# ---------------------------------------------------------------------------
# a FIFO or a pipe is read once
# ---------------------------------------------------------------------------

_BAD_TEXT = b"abc \xff\n"
_NOT_UTF8 = "byte 0xff is not UTF-8 (invalid start byte)"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("args, via_catalog, prefix", [
    (["simulate", "--job", "j"], False, ""),
    (["encrypt", "--input", "j"], False, ""),
    (["devices"], True, "device catalog: "),
], ids=["simulate-job", "encrypt-input", "devices-catalog"])
def test_a_fifo_that_is_not_utf8_is_refused_without_a_second_open(tmp_path, args, via_catalog,
                                                                  prefix):
    fifo = tmp_path / "j"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(_BAD_TEXT)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        proc = _spime(tmp_path, *args, catalog="j" if via_catalog else None,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    finally:
        if writer.is_alive():  # the child never opened the FIFO: be its reader, so feed ends
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(TIMEOUT_S)
    assert not writer.is_alive()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_USAGE, "", f"error: {prefix}j: {_NOT_UTF8}\n")


def test_a_pipe_that_is_not_utf8_is_named_by_its_byte(tmp_path):
    proc = _spime(tmp_path, "simulate", "--job", "/dev/stdin", input=_BAD_TEXT,
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
        EXIT_USAGE, b"", f"error: /dev/stdin: {_NOT_UTF8}\n")


# ---------------------------------------------------------------------------
# a path naming the file a standard stream holds is written through that stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("output", ["/dev/stdout", "/dev/fd/1"])
def test_an_appended_stdout_named_as_the_output_keeps_its_bytes(tmp_path, output):
    appended = tmp_path / "f"
    appended.write_bytes(b"first\n")
    with open(appended, "ab") as stdout:
        proc = _spime(tmp_path, "sweep", "--figure", "7", "--output", output,
                      stdout=stdout, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert appended.read_bytes() == b"first\n" + (DATA / "figure7.csv").read_bytes()
    assert _staged(tmp_path) == []


def test_appended_stdout_and_stderr_named_as_outputs_keep_their_bytes(tmp_path, capsys):
    job = tmp_path / "job.txt"
    write_job(job, random.Random(0x25), num_pims=3, blocks_per_unit=2)
    result, trace = tmp_path / "r.out", tmp_path / "t.csv"
    assert main(["simulate", "--job", str(job), "--output", str(result),
                 "--trace", str(trace)]) == EXIT_OK
    report = capsys.readouterr().out

    out, err = tmp_path / "o", tmp_path / "e"
    out.write_bytes(b"first out\n")
    err.write_bytes(b"first err\n")
    with open(out, "ab") as stdout, open(err, "ab") as stderr:
        proc = _spime(tmp_path, "simulate", "--job", str(job), "--output", "/dev/stdout",
                      "--trace", "/dev/stderr", stdout=stdout, stderr=stderr)
    assert proc.returncode == EXIT_OK
    assert out.read_bytes() == b"first out\n" + result.read_bytes() + report.encode()
    assert err.read_bytes() == b"first err\n" + trace.read_bytes()
    assert _staged(tmp_path) == []
