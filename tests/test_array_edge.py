"""The array's one clock edge: ``tick()`` and ``run_job`` read the same FSM registers.

``run_job`` clocks the array without building an observation per cycle;
``tick()`` is the same edge followed by one observation. The trace record,
the observation and ``job_complete()`` read the controller and core
registers each their own way, and must agree cycle by cycle.
"""

import random

import pytest

from spime.aes_core import IDLE
from spime.array_sim import SpimeArraySim, SpimeConfig, build_array
from spime.controller import C_IDLE, UNIT_CYCLES_PER_BLOCK

from oracles import aes128_ecb
from helpers import random_job


def traced_array(num_pims, blocks):
    return build_array(SpimeConfig(num_pims, blocks * 128, trace_enabled=True))


@pytest.mark.parametrize("num_pims,blocks", [(1, 1), (3, 2), (2, 3)], ids=["1x1", "3x2", "2x3"])
def test_observations_trace_records_and_job_complete_agree(num_pims, blocks):
    job = random_job(random.Random(0xED6E + 16 * num_pims + blocks), num_pims, blocks)
    array = traced_array(num_pims, blocks)
    array.load_job(job)
    observations, completes = [], [array.job_complete()]
    while not completes[-1]:
        returned = array.tick()
        assert len(returned) == num_pims and len(set(returned)) == 1
        observations.append(returned[0])
        completes.append(array.job_complete())
        assert len(observations) <= blocks * UNIT_CYCLES_PER_BLOCK

    records = array.trace_rows[::num_pims]  # one row per cycle: [0, *record]
    assert len(records) == len(observations) == array.cycle
    for cycle, (obs, row, complete) in enumerate(zip(observations, records, completes[1:]), 1):
        _, at, ctrl_state, aes_start, core_state, rnd, aes_done, done = row
        assert at == cycle
        assert tuple(obs) == (ctrl_state, core_state, aes_start, aes_done, done, rnd)
        captured = sum(r[-1] for r in records[:cycle])  # done pulses up to this cycle
        idle = tuple(obs)[:5] == (C_IDLE, IDLE, False, False, False)
        assert complete == (captured == blocks and idle)
    assert not any(completes[:-1])

    run = traced_array(num_pims, blocks)
    result = run.run_job(job)
    assert result.total_cycles == array.cycle == blocks * UNIT_CYCLES_PER_BLOCK
    assert result.output_registers == array._captured
    assert list(run.iter_trace_lines()) == list(array.iter_trace_lines())
    for key, seq, out in zip(job.keys, job.inputs, result.outputs):
        assert out == [aes128_ecb(key, block) for block in seq]


def test_run_job_builds_no_observation_per_cycle(monkeypatch):
    calls = []
    real = SpimeArraySim._observe

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(SpimeArraySim, "_observe", counting)
    counts = []
    for blocks in (1, 3):
        calls.clear()
        job = random_job(random.Random(0x0B5 + blocks), 4, blocks)
        result = build_array(SpimeConfig(4, blocks * 128)).run_job(job)
        assert result.total_cycles == blocks * UNIT_CYCLES_PER_BLOCK
        counts.append(len(calls))
    assert counts[0] == counts[1] < UNIT_CYCLES_PER_BLOCK
