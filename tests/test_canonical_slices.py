"""The one-pass job read decodes the canonical rest in slices of whole lines.

``array_sim._canonical_units`` checks the separators of the rest of the text
from an offset and decodes it ``_DECODE_CHARS`` at a time, rounded to whole
lines, so no copy of the whole text is made. These tests show that a job
decoded in many slices gives the registers of one decoded in one, and that an
edit in any slice gives what the per-line check gives.
"""

import io
import random
from unittest import mock

import pytest

from spime import array_sim
from spime.array_sim import JobFormatError, parse_job_lines

# For 3-block jobs (132-char lines): under one line, so one line per slice; three lines;
# not a whole number of lines, so seven; more than the whole text.
_SLICE_CHARS = [1, 3 * 33 * 4, 1000, 10**9]


def _job(units, blocks, seed):
    """(key register, input registers, canonical text with a final newline)."""
    rng = random.Random(seed)
    rows = [[rng.randbytes(16) for _ in range(1 + blocks)] for _ in range(units)]
    text = "".join(f"{row[0].hex()} {','.join(b.hex() for b in row[1:])}\n" for row in rows)
    return b"".join(row[0] for row in rows), [b"".join(col) for col in zip(*rows)][1:], text


def _outcome(text, blocks_per_unit):
    try:
        job = parse_job_lines(io.StringIO(text), blocks_per_unit)
    except JobFormatError as exc:
        return str(exc), exc.lineno
    return job.key_register, job.input_registers


@pytest.mark.parametrize("final_newline", [True, False])
def test_a_job_longer_than_one_slice_is_read_in_one_pass(final_newline):
    keys, inputs, text = _job(1000, 4, seed=1)
    assert len(text) > 2 * array_sim._DECODE_CHARS
    text = text if final_newline else text[:-1]
    canonical_units_of = array_sim._canonical_units
    for blocks_per_unit in (None, 4):
        read = []

        def canonical_units(*args):
            read.append(canonical_units_of(*args))
            return read[-1]

        with mock.patch.object(array_sim, "_canonical_units", canonical_units):
            assert _outcome(text, blocks_per_unit) == (keys, inputs)
        # The rest after the line that sets the block count is read as a whole.
        assert len(read) == 1 and read[0] is not None


@pytest.mark.parametrize("slice_chars", _SLICE_CHARS)
@pytest.mark.parametrize("final_newline", [True, False])
def test_every_slice_size_gives_the_same_registers(monkeypatch, slice_chars, final_newline):
    monkeypatch.setattr(array_sim, "_DECODE_CHARS", slice_chars)
    keys, inputs, text = _job(9, 3, seed=slice_chars)
    text = text if final_newline else text[:-1]
    for blocks_per_unit in (None, 3):
        assert _outcome(text, blocks_per_unit) == (keys, inputs)


@pytest.mark.parametrize("slice_chars", _SLICE_CHARS)
def test_an_edit_in_any_slice_gives_what_the_per_line_check_gives(monkeypatch, slice_chars):
    monkeypatch.setattr(array_sim, "_DECODE_CHARS", slice_chars)
    _, _, text = _job(6, 3, seed=7)
    rng = random.Random(slice_chars)
    first_line = text.find("\n") + 1
    for position in sorted(rng.sample(range(first_line, len(text)), 60)):
        for char in ("g", " ", "\n", ",", "0"):
            edited = text[:position] + char + text[position + 1:]
            for blocks_per_unit in (None, 3):
                assert _outcome(edited, blocks_per_unit) == _outcome(
                    edited + "\n# end\n", blocks_per_unit), (position, char)

