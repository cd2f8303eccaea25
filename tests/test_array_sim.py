"""Lockstep-array behavior: parallel equivalence, isolation, file formats."""

import csv
import io
import random

import pytest

from spime.array_sim import (
    TRACE_HEADER,
    ConfigError,
    JobFormatError,
    SpimeConfig,
    SpimeJob,
    build_array,
    format_result_lines,
    parse_job_lines,
)
from spime.controller import UNIT_CYCLES_PER_BLOCK

from oracles import aes128_ecb
from helpers import random_job


def make_cfg(num_pims, blocks_per_unit, trace=False):
    return SpimeConfig(
        num_pims=num_pims,
        per_pim_block_bits=blocks_per_unit * 128,
        trace_enabled=trace,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_zero_units():
    with pytest.raises(ConfigError):
        SpimeConfig(num_pims=0)


def test_config_rejects_non_multiple_block_bits():
    with pytest.raises(ConfigError):
        SpimeConfig(num_pims=1, per_pim_block_bits=100)
    with pytest.raises(ConfigError):
        SpimeConfig(num_pims=1, per_pim_block_bits=0)


def test_largest_published_array_constructs():
    array = build_array(SpimeConfig(num_pims=4096))
    assert len(array.units) == 4096


# ---------------------------------------------------------------------------
# run_job correctness and timing
# ---------------------------------------------------------------------------

def test_outputs_match_external_oracle_per_block():
    rng = random.Random(0xA1)
    cfg = make_cfg(num_pims=3, blocks_per_unit=4)
    job = random_job(rng, 3, 4)
    result = build_array(cfg).run_job(job)
    for key, blocks, out in zip(job.keys, job.inputs, result.outputs):
        assert out == [aes128_ecb(key, b) for b in blocks]
    assert all(result.done_flags)


def test_total_cycles_is_blocks_times_constant():
    rng = random.Random(0xA2)
    for blocks in (1, 2, 8):
        cfg = make_cfg(num_pims=2, blocks_per_unit=blocks)
        result = build_array(cfg).run_job(random_job(rng, 2, blocks))
        assert result.total_cycles == blocks * UNIT_CYCLES_PER_BLOCK


def test_total_cycles_independent_of_unit_count():
    rng = random.Random(0xA3)
    totals = set()
    for num_pims in (1, 2, 4, 8):
        cfg = make_cfg(num_pims=num_pims, blocks_per_unit=3)
        totals.add(build_array(cfg).run_job(random_job(rng, num_pims, 3)).total_cycles)
    assert len(totals) == 1


def test_published_array_sizes_report_equal_cycles():
    rng = random.Random(0xA30)
    totals = set()
    for num_pims in (256, 4096):
        cfg = make_cfg(num_pims=num_pims, blocks_per_unit=1)
        totals.add(build_array(cfg).run_job(random_job(rng, num_pims, 1)).total_cycles)
    assert totals == {UNIT_CYCLES_PER_BLOCK}


def test_single_unit_array_equals_standalone_pair():
    rng = random.Random(0xA4)
    key, blocks = rng.randbytes(16), [rng.randbytes(16) for _ in range(3)]
    cfg = make_cfg(num_pims=1, blocks_per_unit=3)
    result = build_array(cfg).run_job(SpimeJob(keys=[key], inputs=[blocks]))

    from spime.controller import PimUnit, run_block

    unit = PimUnit()
    standalone = []
    cycles = 0
    for block in blocks:
        ciphertext, c = run_block(unit, key, block)
        standalone.append(ciphertext)
        cycles += c
    assert result.outputs[0] == standalone
    assert result.total_cycles == cycles


def test_parallel_equivalence_to_independent_single_unit_runs():
    rng = random.Random(0xA5)
    for num_pims in (1, 4, 8):
        blocks_per_unit = 2
        job = random_job(rng, num_pims, blocks_per_unit)
        parallel = build_array(make_cfg(num_pims, blocks_per_unit)).run_job(job)
        for u in range(num_pims):
            single_job = SpimeJob(keys=[job.keys[u]], inputs=[job.inputs[u]])
            single = build_array(make_cfg(1, blocks_per_unit)).run_job(single_job)
            assert single.outputs[0] == parallel.outputs[u]
            assert single.total_cycles == parallel.total_cycles


def test_run_job_is_deterministic():
    rng = random.Random(0xA6)
    job = random_job(rng, 4, 3)
    first = build_array(make_cfg(4, 3)).run_job(job)
    second = build_array(make_cfg(4, 3)).run_job(job)
    assert first.outputs == second.outputs
    assert first.total_cycles == second.total_cycles


def test_input_perturbation_is_isolated_to_one_unit():
    rng = random.Random(0xA7)
    job = random_job(rng, 4, 2)
    base = build_array(make_cfg(4, 2)).run_job(job)

    perturbed_inputs = [list(seq) for seq in job.inputs]
    perturbed_inputs[2][1] = bytes(a ^ 0xFF for a in perturbed_inputs[2][1])
    perturbed = build_array(make_cfg(4, 2)).run_job(
        SpimeJob(keys=job.keys, inputs=perturbed_inputs)
    )
    for u in range(4):
        if u == 2:
            assert perturbed.outputs[u] != base.outputs[u]
        else:
            assert perturbed.outputs[u] == base.outputs[u]


def test_job_shape_mismatch_rejected():
    rng = random.Random(0xA8)
    array = build_array(make_cfg(num_pims=3, blocks_per_unit=2))
    with pytest.raises(ConfigError):
        array.run_job(random_job(rng, 2, 2))  # too few units
    with pytest.raises(ConfigError):
        array.run_job(random_job(rng, 3, 4))  # wrong per-unit length


@pytest.mark.parametrize(
    "keys, inputs",
    [
        ([bytes(15), bytes(17)], [[bytes(16)], [bytes(16)]]),
        ([bytes(16), bytes(16)], [[bytes(15)], [bytes(17)]]),
        (["00" * 8], [[bytes(16)]]),
    ],
    ids=["keys-15-17", "blocks-15-17", "str-key"],
)
def test_job_with_a_bad_key_or_block_is_refused_before_any_tick(keys, inputs):
    # 15 + 17 bytes join to a valid 32-byte register, so only validate can catch them.
    array = build_array(make_cfg(num_pims=len(keys), blocks_per_unit=1))
    with pytest.raises(ValueError):
        array.run_job(SpimeJob(keys=keys, inputs=inputs))
    assert array.cycle == 0


# ---------------------------------------------------------------------------
# tick-level observation
# ---------------------------------------------------------------------------

def test_units_idle_after_reset():
    array = build_array(SpimeConfig(num_pims=3))
    for obs in array.tick():
        assert (obs.ctrl_state, obs.core_state) == ("IDLE", "IDLE")
        assert not obs.aes_start and not obs.aes_done and not obs.done


def test_identical_inputs_give_identical_unit_states():
    rng = random.Random(0xA9)
    key, block = rng.randbytes(16), rng.randbytes(16)
    array = build_array(make_cfg(num_pims=4, blocks_per_unit=1))
    array.load_job(SpimeJob(keys=[key] * 4, inputs=[[block]] * 4))
    for _ in range(UNIT_CYCLES_PER_BLOCK):
        observations = array.tick()
        assert len(set(observations)) == 1


def test_manual_ticks_reproduce_run_job():
    rng = random.Random(0xAA)
    job = random_job(rng, 2, 3)

    via_run = build_array(make_cfg(2, 3)).run_job(job)

    array = build_array(make_cfg(2, 3))
    array.load_job(job)
    ticks = 0
    while not array.job_complete():
        array.tick()
        ticks += 1
        assert ticks <= via_run.total_cycles
    assert array._outputs == via_run.outputs
    assert ticks == via_run.total_cycles


def test_trace_rows_carry_unit_prefix():
    rng = random.Random(0xAB)
    array = build_array(make_cfg(num_pims=2, blocks_per_unit=1, trace=True))
    array.run_job(random_job(rng, 2, 1))
    assert len(array.trace_rows) == 2 * UNIT_CYCLES_PER_BLOCK
    assert sorted({row[0] for row in array.trace_rows}) == [0, 1]
    assert all(len(row) == 8 for row in array.trace_rows)


@pytest.mark.parametrize("num_pims,blocks_per_unit", [(1, 1), (1, 3), (2, 1), (3, 5), (4, 2)])
def test_trace_lines_are_the_csv_writer_bytes(num_pims, blocks_per_unit):
    rng = random.Random(0xAD)
    array = build_array(make_cfg(num_pims, blocks_per_unit, trace=True))
    array.run_job(random_job(rng, num_pims, blocks_per_unit))
    lines = list(array.iter_trace_lines())
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    writer.writerows(array.iter_trace_rows())
    assert "\n".join(lines) + "\n" == want.getvalue()
    assert len(lines) == 1 + array.cycle
    assert all(len(line.split("\n")) == num_pims for line in lines[1:])


def test_trace_lines_without_tracing_hold_only_the_header():
    rng = random.Random(0xAE)
    array = build_array(make_cfg(num_pims=3, blocks_per_unit=2))
    array.run_job(random_job(rng, 3, 2))
    assert list(array.iter_trace_lines()) == [",".join(TRACE_HEADER)]


# ---------------------------------------------------------------------------
# job / result files
# ---------------------------------------------------------------------------

def test_job_file_round_trip():
    rng = random.Random(0xAC)
    job = random_job(rng, 3, 2)
    lines = [
        f"{key.hex()} {','.join(b.hex() for b in blocks)}"
        for key, blocks in zip(job.keys, job.inputs)
    ]
    parsed = parse_job_lines(["# demo job", ""] + lines)
    assert parsed.keys == job.keys
    assert parsed.inputs == job.inputs


def test_result_lines_have_job_shape():
    rng = random.Random(0xAD)
    job = random_job(rng, 2, 2)
    result = build_array(make_cfg(2, 2)).run_job(job)
    lines = format_result_lines(job, result)
    reparsed = parse_job_lines(lines)
    assert reparsed.keys == job.keys
    assert reparsed.inputs == result.outputs


@pytest.mark.parametrize(
    "lines, bad_line",
    [
        (["00" * 16], 1),  # missing blocks column
        (["00" * 16 + " " + "11" * 16, "zz" * 16 + " " + "11" * 16], 2),  # bad hex
        (["00" * 16 + " " + "11" * 16 + "," + "22" * 16, "00" * 16 + " " + "11" * 16], 2),
        ([" ".join(["a"] * 3)], 1),  # too many columns
    ],
)
def test_job_parse_errors_carry_line_numbers(lines, bad_line):
    with pytest.raises(JobFormatError) as excinfo:
        parse_job_lines(lines)
    assert excinfo.value.lineno == bad_line
    assert f"line {bad_line}" in str(excinfo.value)


def test_empty_job_file_rejected():
    with pytest.raises(JobFormatError):
        parse_job_lines(["# nothing here", ""])
