"""Canonical job files are read in one pass, with the per-line parser's results.

A canonical job line is ``<key-hex32> <block-hex32>[,<block-hex32>...]\\n``:
one space, commas, no other blanks and no comments, in either hex case; it
is what ``format_result_lines`` writes. ``parse_job_lines`` reads the lines
after the one that sets the block count as a whole when all of them are
canonical, and otherwise checks them one by one. These tests show that the
one-pass read runs on canonical files and that one edit anywhere gives the
registers, or the refusal and line number, that the per-line check gives.
"""

import io
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spime import array_sim
from spime.array_sim import JobFormatError, parse_job_lines
from spime.cli import EXIT_OK, main

from oracles import aes128_ecb

_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])
_CASES = {"lower": str.lower, "upper": str.upper}


@st.composite
def canonical_jobs(draw, max_units=40, max_blocks=6):
    """(keys, inputs, text) of a canonical job of 1..max_units units x 1..max_blocks blocks."""
    num_units = draw(st.integers(1, max_units))
    blocks = draw(st.integers(1, max_blocks))
    rng = random.Random(draw(st.integers(0, 2**32)))
    keys = [rng.randbytes(16) for _ in range(num_units)]
    inputs = [[rng.randbytes(16) for _ in range(blocks)] for _ in keys]
    text = "\n".join(f"{key.hex()} {','.join(block.hex() for block in row)}"
                     for key, row in zip(keys, inputs))
    text = _CASES[draw(st.sampled_from(sorted(_CASES)))](text)
    return keys, inputs, text + "\n" if draw(st.booleans()) else text


def counted_checks():
    """Count the per-line parser's block checks."""
    return mock.patch.object(array_sim, "block_from_hex", wraps=array_sim.block_from_hex)


@_PROPERTY
@given(job=canonical_jobs())
def test_a_canonical_job_is_read_in_one_pass(tmp_path, capsys, job):
    keys, inputs, text = job
    blocks = len(inputs[0])
    parsed = parse_job_lines(io.StringIO(text))
    assert parsed.key_register == b"".join(keys)
    assert parsed.input_registers == [b"".join(column) for column in zip(*inputs)]
    assert type(parsed.key_register) is bytes
    assert all(type(register) is bytes for register in parsed.input_registers)

    path, out = tmp_path / "canonical.job", tmp_path / "canonical.out"
    path.write_text(text)
    with counted_checks() as checked:
        assert main(["simulate", "--job", str(path), "--output", str(out)]) == EXIT_OK
    # Only the first line, which sets the block count, is checked on its own.
    assert checked.call_count == 1 + blocks
    assert out.read_text().splitlines() == [
        f"{key.hex()} {','.join(aes128_ecb(key, block).hex() for block in row)}"
        for key, row in zip(keys, inputs)
    ]

    # encrypt --input gives the block count, so no line is checked on its own.
    one_block = "".join(f"{key.hex()} {row[0].hex()}\n" for key, row in zip(keys, inputs))
    path.write_text(one_block)
    with counted_checks() as checked:
        assert main(["encrypt", "--input", str(path), "--output", str(out)]) == EXIT_OK
    assert checked.call_count == 0
    assert out.read_text().splitlines() == [aes128_ecb(key, row[0]).hex()
                                            for key, row in zip(keys, inputs)]
    capsys.readouterr()


def outcome(text, blocks_per_unit):
    """The registers ``text`` parses to, or the refusal's message and line number."""
    try:
        job = parse_job_lines(io.StringIO(text), blocks_per_unit)
    except JobFormatError as exc:
        return str(exc), exc.lineno
    return job.key_register, job.input_registers


_EDIT_CHARS = [" ", "\t", ",", "\n", "g", "\xa0", "#", "0"]


@st.composite
def one_defect_jobs(draw):
    """(text, blocks) of a canonical job with one character substituted, inserted or deleted."""
    _, inputs, text = draw(canonical_jobs(max_units=12, max_blocks=4))
    first_line = text.find("\n") + 1 or len(text)
    position = draw(st.integers(first_line, len(text)))
    edit = draw(st.sampled_from(["substitute", "insert", "delete"]))
    char = draw(st.sampled_from(_EDIT_CHARS))
    if edit == "insert" or position == len(text):
        text = text[:position] + char + text[position:]
    elif edit == "substitute":
        text = text[:position] + char + text[position + 1:]
    else:
        text = text[:position] + text[position + 1:]
    return text, len(inputs[0])


@_PROPERTY
@given(job=one_defect_jobs())
def test_one_edit_after_line_one_gives_what_the_per_line_check_gives(job):
    text, blocks = job
    # A comment line makes the rest of the file non-canonical, so every line
    # is checked on its own; the blank line before it ends the last line.
    per_line = text + "\n# end\n"
    for blocks_per_unit in (None, blocks):
        assert outcome(text, blocks_per_unit) == outcome(per_line, blocks_per_unit)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_every_single_edit_of_a_small_job_gives_what_the_per_line_check_gives(blocks):
    """Every substitution, insertion and deletion of one of the edit characters after line 1."""
    rng = random.Random(blocks)
    lanes = [[rng.randbytes(16).hex() for _ in range(1 + blocks)] for _ in range(3)]
    text = "".join(f"{key} {','.join(row)}\n" for key, *row in lanes)
    first_line = text.find("\n") + 1
    edits = {text[:p] + text[p + 1:] for p in range(first_line, len(text))}
    for char in _EDIT_CHARS:
        edits.update(text[:p] + char + text[p:] for p in range(first_line, len(text) + 1))
        edits.update(text[:p] + char + text[p + 1:] for p in range(first_line, len(text)))
    for edited in edits:
        for blocks_per_unit in (None, blocks):
            assert outcome(edited, blocks_per_unit) == outcome(edited + "\n# end\n",
                                                               blocks_per_unit), edited


@pytest.mark.parametrize("blanks", ["  ", "\t\t", " \t", "\r\n"])
def test_blanks_in_place_of_a_hex_pair_give_what_the_per_line_check_gives(blanks):
    """``bytes.fromhex`` skips them, so only the byte count shows that they are not hex."""
    line = f"{'00' * 16} {'11' * 16},{'22' * 16}\n"
    for position in (0, 33, 97):
        text = line * 2 + line[:position] + blanks + line[position + 2:] + line
        assert len(text) == 4 * len(line)
        for blocks_per_unit in (None, 2):
            assert outcome(text, blocks_per_unit) == outcome(text + "\n# end\n", blocks_per_unit)

