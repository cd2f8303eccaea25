"""The result file is rendered from the registers in runs of whole unit lines.

``array_sim.format_result_lines`` scatters the key and output registers into
each unit's key and blocks in file order, hex-encodes about ``_DECODE_CHARS``
of text at a time and writes every separator with one strided slice. Each run
is one string without its final newline. These tests compare the joined text
with a per-lane rendering, read it back with ``parse_job_lines``, and pin how
many strings a result makes and how much memory rendering it takes.
"""

import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spime import array_sim
from spime.array_sim import SpimeJob, SpimeResult, format_result_lines, parse_job_lines

_PROPERTY = settings(max_examples=60, deadline=None)


def _result(units, blocks, seed):
    """A job and a result built straight from random registers, no array run."""
    rng = random.Random(seed)
    job = SpimeJob.from_registers(rng.randbytes(16 * units), [])
    outputs = [rng.randbytes(16 * units) for _ in range(blocks)]
    return job, SpimeResult(outputs, total_cycles=0, done_flags=[True] * units)


def _oracle(job, result):
    """The result file rendered one lane at a time."""
    return "".join(f"{key.hex()} {','.join(c.hex() for c in blocks)}\n"
                   for key, blocks in zip(job.keys, result.outputs))


def _rendered(job, result):
    """The strings ``format_result_lines`` yields, each checked for its missing final newline."""
    strings = list(format_result_lines(job, result))
    assert all(s and not s.endswith("\n") for s in strings)
    return strings


def _check(job, result):
    strings = _rendered(job, result)
    text = "".join(s + "\n" for s in strings)
    # Compared as lists of lines, so that a failure names the first line that differs.
    assert text.splitlines(keepends=True) == _oracle(job, result).splitlines(keepends=True)
    parsed = parse_job_lines(io.StringIO(text))
    assert parsed.key_register == job.key_register
    assert parsed.input_registers == result.output_registers
    return strings


def _units_per_string(blocks):
    return max(1, array_sim._DECODE_CHARS // (array_sim._FIELD * (blocks + 1)))


@_PROPERTY
@given(units=st.integers(1, 300), blocks=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_the_text_is_the_per_lane_rendering(units, blocks, seed):
    strings = _check(*_result(units, blocks, seed))
    assert len(strings) == -(-units // _units_per_string(blocks))


@_PROPERTY
@given(units=st.integers(1, 40), blocks=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       chars=st.integers(1, 2000))
def test_any_run_length_gives_the_same_text(units, blocks, seed, chars):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(array_sim, "_DECODE_CHARS", chars)
        strings = _check(*_result(units, blocks, seed))
        assert len(strings) == -(-units // _units_per_string(blocks))


@pytest.mark.parametrize("blocks", [1, 2, 4])
@pytest.mark.parametrize("extra, count", [(0, 1), (1, 2)])
def test_a_text_of_one_step_and_one_unit_past_it(blocks, extra, count):
    units = _units_per_string(blocks)
    assert units > 1
    assert len(_check(*_result(units + extra, blocks, seed=units + extra))) == count


def test_a_line_longer_than_one_step_is_a_string_of_its_own():
    job, result = _result(2, 2100, seed=2100)
    assert array_sim._FIELD * 2101 > array_sim._DECODE_CHARS
    strings = _check(job, result)
    assert [s.count("\n") for s in strings] == [0, 0]


def test_keys_print_in_lowercase_whatever_case_the_job_used():
    job = parse_job_lines(["ABCDEF0123456789ABCDEF0123456789 00112233445566778899AABBCCDDEEFF"])
    result = SpimeResult([bytes(range(16))], total_cycles=0, done_flags=[True])
    assert _rendered(job, result) == [
        "abcdef0123456789abcdef0123456789 000102030405060708090a0b0c0d0e0f"]


def test_a_wide_result_is_rendered_in_few_strings_and_little_memory():
    job, result = _result(4096, 64, seed=64)
    payload = len(job.key_register) + sum(map(len, result.output_registers))
    tracemalloc.start()
    try:
        strings = 0
        for _ in format_result_lines(job, result):
            strings += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert strings < job.num_units
    assert peak < payload + (1 << 20), (peak, payload)
