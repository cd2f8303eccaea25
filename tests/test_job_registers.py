"""Jobs held as registers from the job file to the result file.

``parse_job_lines`` collects the hex text of every line of the usual form
and checks any other line on its own; either way the job ends up as one key
register and one input register per block index. These tests write jobs in
every accepted spelling and check that the bytes that come out, and every
refusal, do not depend on which branch read a line.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spime import array_sim
from spime.array_sim import JobFormatError, SpimeJob, parse_job_lines
from spime.cli import EXIT_OK, EXIT_USAGE, main

from oracles import aes128_ecb

BLOCK = st.binary(min_size=16, max_size=16)
_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def canonical_lines(keys, inputs):
    return [f"{key.hex()} {','.join(block.hex() for block in blocks)}"
            for key, blocks in zip(keys, inputs)]


def simulate(tmp_path, capsys, name, data):
    """Run ``simulate`` on job bytes ``data``: (exit code, result bytes or None, stderr)."""
    job, out = tmp_path / f"{name}.job", tmp_path / f"{name}.out"
    job.write_bytes(data)
    if out.exists():
        out.unlink()
    code = main(["simulate", "--job", str(job), "--output", str(out)])
    captured = capsys.readouterr()
    return code, out.read_bytes() if out.exists() else None, captured


def read_job(path):
    with open(path, encoding="utf-8-sig") as fh:
        return parse_job_lines(fh)


# ---------------------------------------------------------------------------
# property: every spelling of a job gives the canonical job's registers and result
# ---------------------------------------------------------------------------

def _mixed(text):
    return "".join(c.upper() if i % 2 else c for i, c in enumerate(text))


_CASES = {"lower": str.lower, "upper": str.upper, "mixed": _mixed}
_ASCII_BLANKS = ["", " ", "\t", " \t"]
_BLANKS = _ASCII_BLANKS + ["\xa0", " \xa0"]
_ENDINGS = ["\n", "\r\n", "\r"]
_FILLER = ["# note", "#", "", "   ", "\t", "# caf\xe9 \xa0"]


def line_form(blanks):
    """How one unit line is spelled, and the comment or blank lines before it."""
    return st.fixed_dictionaries({
        "case": st.sampled_from(sorted(_CASES)),
        "lead": st.sampled_from(blanks),
        "sep": st.sampled_from([b for b in blanks if b]),
        "trail": st.sampled_from(blanks),
        "ending": st.sampled_from(_ENDINGS),
        "before": st.lists(st.sampled_from(_FILLER), max_size=2),
    })


@st.composite
def spelled_jobs(draw):
    num_units = draw(st.integers(2, 8))
    blocks = draw(st.integers(1, 4))
    keys = draw(st.lists(BLOCK, min_size=num_units, max_size=num_units))
    inputs = [draw(st.lists(BLOCK, min_size=blocks, max_size=blocks)) for _ in keys]
    # The last unit is spelled with ASCII blanks only, so at least one line
    # takes the collect-the-text branch; the first data line is always
    # checked on its own, because it sets the block count.
    forms = [draw(line_form(_BLANKS)) for _ in keys[:-1]] + [draw(line_form(_ASCII_BLANKS))]
    final_ending = draw(st.sampled_from(_ENDINGS + [""]))
    text = ""
    for line, form in zip(canonical_lines(keys, inputs), forms):
        key, blocks_text = line.split(" ")
        spelled = _CASES[form["case"]](f"{form['lead']}{key}{form['sep']}{blocks_text}")
        for filler in form["before"]:
            text += filler + form["ending"]
        text += spelled + form["trail"] + form["ending"]
    text = text[:-len(forms[-1]["ending"])] + final_ending
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return keys, inputs, bom + text.encode("utf-8")


@_PROPERTY
@given(job=spelled_jobs())
def test_any_spelling_gives_the_canonical_registers_and_result(tmp_path, capsys, job):
    keys, inputs, data = job
    canonical = "".join(line + "\n" for line in canonical_lines(keys, inputs)).encode()
    code, want, _ = simulate(tmp_path, capsys, "canonical", canonical)
    assert code == EXIT_OK
    assert want.decode().splitlines() == [
        f"{key.hex()} {','.join(aes128_ecb(key, block).hex() for block in blocks)}"
        for key, blocks in zip(keys, inputs)
    ]

    per_line_checks = mock.patch.object(array_sim, "block_from_hex",
                                        wraps=array_sim.block_from_hex)
    with per_line_checks as checked:
        code, got, captured = simulate(tmp_path, capsys, "spelled", data)
    assert code == EXIT_OK, captured.err
    assert got == want
    # The first data line went through the per-line check, the last did not.
    assert 0 < checked.call_count < len(keys) * (1 + len(inputs[0]))

    parsed = read_job(tmp_path / "spelled.job")
    assert parsed.keys == keys
    assert parsed.inputs == inputs
    assert parsed.key_register == b"".join(keys)
    assert parsed.input_registers == [b"".join(column) for column in zip(*inputs)]


# ---------------------------------------------------------------------------
# error parity: one bad line anywhere gets the per-line message and line number
# ---------------------------------------------------------------------------

_KEY = "2b7e151628aed2a6abf7158809cf4f3c"
_BLOCK = "3243f6a8885a308d313198a2e0370734"
_BAD_KINDS = ["bad-hex-key", "bad-hex-block", "31-chars", "3-columns", "trailing-comma",
              "block-count"]


def bad_line(kind, blocks):
    """(line text, message) of one malformed unit line in a job of ``blocks`` per unit."""
    good = ",".join([_BLOCK] * blocks)
    if kind == "bad-hex-key":
        return f"{'zz' * 16} {good}", f"invalid block hex: {'zz' * 16!r}"
    if kind == "bad-hex-block":
        token = "g" + _BLOCK[1:]
        return f"{_KEY} {good[:-32]}{token}", f"invalid block hex: {token!r}"
    if kind == "31-chars":
        return f"{_KEY} {good[:-1]}", "block hex must be 32 chars, got 31"
    if kind == "3-columns":
        return f"{_KEY} {good} {_BLOCK}", "expected '<key-hex> <block-hex>[,<block-hex>...]'"
    if kind == "trailing-comma":
        return f"{_KEY} {good},", "block hex must be 32 chars, got 0"
    other = blocks + 1 if blocks == 1 else blocks - 1
    return (f"{_KEY} {','.join([_BLOCK] * other)}",
            f"expected {blocks} blocks per unit, got {other}")


@st.composite
def jobs_with_one_bad_line(draw):
    blocks = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(_BAD_KINDS))
    good_units = draw(st.integers(2, 6))
    # A different block count is only an error after the first unit set it.
    position = draw(st.integers(2 if kind == "block-count" else 0, good_units))
    good = f"{_KEY} {','.join([_BLOCK] * blocks)}"
    units = [good] * good_units
    bad, message = bad_line(kind, blocks)
    units.insert(position, bad)
    lines = []
    for unit in units:
        lines += draw(st.lists(st.sampled_from(["# note", ""]), max_size=2))
        if unit is bad:
            lineno = len(lines) + 1
        lines.append(unit)
    ending = draw(st.sampled_from(_ENDINGS))
    return "".join(line + ending for line in lines).encode(), lineno, message


def assert_refused(tmp_path, capsys, data, lineno, message):
    path = tmp_path / "bad.job"
    path.write_bytes(data)
    with pytest.raises(JobFormatError) as excinfo:
        read_job(path)
    assert excinfo.value.lineno == lineno
    assert str(excinfo.value) == f"line {lineno}: {message}"

    code, out, captured = simulate(tmp_path, capsys, "bad", data)
    assert code == EXIT_USAGE
    assert out is None
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'bad.job'}: line {lineno}: {message}\n"


@_PROPERTY
@given(job=jobs_with_one_bad_line())
def test_one_bad_line_anywhere_keeps_its_message_and_line(tmp_path, capsys, job):
    assert_refused(tmp_path, capsys, *job)


@pytest.mark.parametrize(
    "lines, lineno, message",
    [
        ([f"{_KEY} {_BLOCK},{_BLOCK}"] * 3 + ["# later", "", "", f"{_KEY} {_BLOCK}"],
         7, "expected 2 blocks per unit, got 1"),
        ([f"{_KEY} {_BLOCK}", "# note", f"{_KEY} {_BLOCK},"],
         3, "block hex must be 32 chars, got 0"),
    ],
    ids=["short-after-usual-lines", "trailing-comma"],
)
def test_refusals_name_the_line_the_per_line_parser_named(tmp_path, capsys, lines, lineno,
                                                          message):
    assert_refused(tmp_path, capsys, "".join(line + "\n" for line in lines).encode(),
                   lineno, message)


@pytest.mark.parametrize("data", [b"", b"# nothing here\n\n", b"  \r\n# a\r\n"],
                         ids=["empty", "comment-and-blank", "crlf"])
def test_a_job_without_units_is_refused_without_a_line_number(tmp_path, capsys, data):
    """The whole file is at fault, not a line: line numbers start at 1."""
    code, out, captured = simulate(tmp_path, capsys, "empty", data)
    assert code == EXIT_USAGE
    assert out is None
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'empty.job'}: job file holds no units\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["empty.job"]


# ---------------------------------------------------------------------------
# keys are printed from the key register, not echoed from the job text
# ---------------------------------------------------------------------------

def test_uppercase_job_gives_the_lowercase_result_file(tmp_path, capsys):
    rng = random.Random(0x16)
    keys = [rng.randbytes(16) for _ in range(5)]
    inputs = [[rng.randbytes(16) for _ in range(2)] for _ in keys]
    lower = "".join(line + "\n" for line in canonical_lines(keys, inputs))
    results = [simulate(tmp_path, capsys, name, text.encode())
               for name, text in (("lower", lower), ("upper", lower.upper()))]
    assert [code for code, _, _ in results] == [EXIT_OK, EXIT_OK]
    assert results[1][1] == results[0][1]
    assert results[1][1].decode() == results[1][1].decode().lower()


# ---------------------------------------------------------------------------
# SpimeJob built from per-unit lists
# ---------------------------------------------------------------------------

def test_job_from_lists_joins_them_into_registers_once():
    keys = [bytes([u]) * 16 for u in range(3)]
    inputs = [[bytes([u, b]) * 8 for b in range(2)] for u in range(3)]
    job = SpimeJob(keys=keys, inputs=[[bytearray(block) for block in seq] for seq in inputs])
    assert job.key_register == b"".join(keys)
    assert job.input_registers == [b"".join(column) for column in zip(*inputs)]
    assert (job.num_units, job.blocks_per_unit) == (3, 2)
    assert job.keys == keys
    assert job.inputs == inputs


@pytest.mark.parametrize(
    "inputs",
    [[[bytes(16)], [bytes(16), bytes(16)]], [[bytes(16)]]],
    ids=["ragged", "one-row-for-two-keys"],
)
def test_job_without_one_row_per_key_of_one_length_is_refused(inputs):
    with pytest.raises(array_sim.ConfigError):
        SpimeJob(keys=[bytes(16)] * 2, inputs=inputs)
