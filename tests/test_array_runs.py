"""One job per run: loading a job starts the array from reset.

``load_job`` checks the job and expands its keys first, so a refused job
leaves the array as it was; only then does it reset the array and stage
the job's registers. The cycle count, the trace and the captures then
cover exactly one job, and the core sees only that job's 16N-byte buses.
"""

import random

import pytest

from spime import controller
from spime.array_sim import ConfigError, SpimeConfig, SpimeJob, build_array
from spime.controller import UNIT_CYCLES_PER_BLOCK

from oracles import aes128_ecb
from helpers import random_job


def cfg(num_pims, blocks):
    return SpimeConfig(num_pims, blocks * 128, trace_enabled=True)


def fresh_run(job, num_pims, blocks):
    """The result and trace lines of the job on a newly built array."""
    array = build_array(cfg(num_pims, blocks))
    return array.run_job(job), list(array.iter_trace_lines())


def assert_same_run(array, result, want_result, want_lines):
    assert result.output_registers == want_result.output_registers
    assert result.total_cycles == want_result.total_cycles
    assert result.done_flags == want_result.done_flags
    assert list(array.iter_trace_lines()) == want_lines
    assert array.cycle == result.total_cycles


@pytest.mark.parametrize("idle_ticks", [1, 7, 40])
def test_a_job_loaded_after_idle_ticks_runs_as_on_a_fresh_array(idle_ticks):
    num_pims, blocks = 3, 2
    job = random_job(random.Random(idle_ticks), num_pims, blocks)
    want_result, want_lines = fresh_run(job, num_pims, blocks)

    array = build_array(cfg(num_pims, blocks))
    for _ in range(idle_ticks):
        array.tick()
    assert array.cycle == idle_ticks
    assert_same_run(array, array.run_job(job), want_result, want_lines)
    assert want_result.total_cycles == blocks * UNIT_CYCLES_PER_BLOCK


def test_a_second_job_on_the_same_array_runs_as_on_a_fresh_array():
    num_pims, blocks = 4, 3
    rng = random.Random(0x2D0B)
    first, second = random_job(rng, num_pims, blocks), random_job(rng, num_pims, blocks)

    array = build_array(cfg(num_pims, blocks))
    array.run_job(first)
    for _ in range(5):  # idle ticks between the jobs count for neither
        array.tick()
    want_result, want_lines = fresh_run(second, num_pims, blocks)
    assert_same_run(array, array.run_job(second), want_result, want_lines)
    assert array._outputs == [[aes128_ecb(key, block) for block in row]
                              for key, row in zip(second.keys, second.inputs)]


def test_manual_ticks_after_a_load_count_from_zero():
    num_pims, blocks = 2, 2
    rng = random.Random(0x71C)
    array = build_array(cfg(num_pims, blocks))
    array.run_job(random_job(rng, num_pims, blocks))
    array.load_job(random_job(rng, num_pims, blocks))
    assert array.cycle == 0
    assert list(array.iter_trace_lines())[1:] == []
    assert array._outputs == [[] for _ in range(num_pims)]


@pytest.mark.parametrize("num_pims, blocks", [(1, 1), (3, 4), (5, 2)])
def test_a_job_builds_one_port_per_block_all_on_its_own_buses(monkeypatch, num_pims, blocks):
    built = []  # (data_in width, round-key widths) of every port built

    def counting(*args):
        port = real(*args)
        built.append((len(port.data_in), {*map(len, port.round_keys)}))
        return port

    real = controller.AesCoreInputs
    monkeypatch.setattr(controller, "AesCoreInputs", counting)
    array = build_array(cfg(num_pims, blocks))
    assert len(built) == 1  # the unit's construction port
    result = array.run_job(random_job(random.Random(blocks), num_pims, blocks))

    assert result.total_cycles == blocks * UNIT_CYCLES_PER_BLOCK
    assert len(built) == blocks + 1
    width = 16 * num_pims
    assert built[1:] == [(width, {width})] * blocks
    for _ in range(3):  # the idle tail keeps the last block's buses
        array.tick()
    assert len(built) == blocks + 1


def refused_jobs():
    """Jobs a 1-unit x 2-block array refuses in ``load_job``, each with its error."""
    rng = random.Random(0x4EF)
    yield ConfigError, random_job(rng, 2, 2)  # one unit too many
    yield ConfigError, random_job(rng, 1, 1)  # one block too few
    # A 17-byte key register holds one whole lane, so the shape check passes;
    # expand_keys refuses it.
    yield ValueError, SpimeJob.from_registers(rng.randbytes(17), [rng.randbytes(16)] * 2)


@pytest.mark.parametrize("error, job", list(refused_jobs()),
                         ids=["two-units", "one-block", "17-byte-key-register"])
def test_a_refused_job_leaves_the_array_as_it_was(error, job):
    rng = random.Random(0x5A1E)
    array = build_array(cfg(1, 2))
    array.load_job(random_job(rng, 1, 2))
    for _ in range(UNIT_CYCLES_PER_BLOCK + 3):  # mid-job: one block captured
        array.tick()
    before = (array.cycle, list(array.iter_trace_lines()), array._outputs, array.units)
    assert len(before[2][0]) == 1

    with pytest.raises(error):
        array.load_job(job)
    assert (array.cycle, list(array.iter_trace_lines()), array._outputs, array.units) == before
    while not array.job_complete():  # the staged job runs on to its end
        array.tick()
    assert array.cycle == 2 * UNIT_CYCLES_PER_BLOCK
