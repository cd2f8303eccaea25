"""``load_job`` refuses an input register that is not 16N bytes wide.

A job built with ``SpimeJob.from_registers`` is taken as it is, so its
input registers may be of any width. The array checks each against its
16-byte lane per unit before it resets, so a refused job leaves a
finished run's cycle count, trace and captures as they were.
"""

import random

import pytest

from spime.array_sim import ConfigError, SpimeConfig, SpimeJob, build_array
from spime.controller import UNIT_CYCLES_PER_BLOCK

from oracles import aes128_ecb


def finished_array(num_pims, blocks, seed):
    """A traced array that has run one job of random operands to its end, and that job."""
    rng = random.Random(seed)
    job = SpimeJob(keys=[rng.randbytes(16) for _ in range(num_pims)],
                   inputs=[[rng.randbytes(16) for _ in range(blocks)] for _ in range(num_pims)])
    array = build_array(SpimeConfig(num_pims, blocks * 128, trace_enabled=True))
    result = array.run_job(job)
    assert result.total_cycles == array.cycle == blocks * UNIT_CYCLES_PER_BLOCK
    return array, job


def snapshot(array):
    return array.cycle, list(array.iter_trace_lines()), array._outputs, array.units


def wrong_widths(num_pims, blocks):
    """Input-register lists of the right count, one of them not 16 * num_pims bytes."""
    width = 16 * num_pims
    for b in range(blocks):
        for bad in (width - 16, width + 16, width + 1, 0):
            registers = [bytes(width)] * blocks
            registers[b] = bytes(bad)
            yield b, bad, registers


def test_the_one_unit_job_with_a_two_lane_block_is_refused_before_reset():
    array, _ = finished_array(1, 1, seed=0x1D)
    before = snapshot(array)

    with pytest.raises(ConfigError, match="block 0 register holds 32 bytes, not 16 for 1 units"):
        array.load_job(SpimeJob.from_registers(bytes(16), [bytes(32)]))
    assert snapshot(array) == before


@pytest.mark.parametrize("num_pims, blocks", [(1, 2), (3, 2), (4, 3)])
def test_every_wrong_width_leaves_a_finished_run_as_it_was(num_pims, blocks):
    array, _ = finished_array(num_pims, blocks, seed=num_pims * 10 + blocks)
    before = snapshot(array)
    assert len(before[1]) == 1 + blocks * UNIT_CYCLES_PER_BLOCK  # the header, one string per cycle

    for b, bad, registers in wrong_widths(num_pims, blocks):
        with pytest.raises(ConfigError, match=f"block {b} register holds {bad} bytes"):
            array.load_job(SpimeJob.from_registers(bytes(16 * num_pims), registers))
        assert snapshot(array) == before


def test_the_array_runs_a_good_job_after_a_refusal():
    num_pims, blocks = 2, 2
    array, job = finished_array(num_pims, blocks, seed=0x600D)
    with pytest.raises(ConfigError):
        array.load_job(SpimeJob.from_registers(job.key_register, [job.input_registers[0][:16]] * 2))

    result = array.run_job(job)
    assert result.total_cycles == array.cycle == blocks * UNIT_CYCLES_PER_BLOCK
    assert result.outputs == [[aes128_ecb(key, block) for block in row]
                              for key, row in zip(job.keys, job.inputs)]
