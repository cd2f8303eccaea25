"""The shared-control array against N independent reference units.

The reference drives one (controller, core) :class:`PimUnit` per unit the
way a per-unit lockstep array would: a global ``start`` held high until
every unit has begun its last block, and each unit's pending block on its
``data_in``. The array must match it cycle for cycle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from spime import aes_core, array_sim
from spime.array_sim import SpimeConfig, SpimeJob, UnitObservation, build_array
from spime.controller import PimUnit
from spime.primitives import expand_key

from oracles import aes128_ecb

BLOCK = st.binary(min_size=16, max_size=16)


@st.composite
def jobs(draw):
    num_pims = draw(st.integers(1, 6))
    blocks = draw(st.integers(1, 4))
    if draw(st.booleans()):
        keys = [draw(BLOCK)] * num_pims
    else:
        keys = draw(st.lists(BLOCK, min_size=num_pims, max_size=num_pims, unique=True))
    inputs = [draw(st.lists(BLOCK, min_size=blocks, max_size=blocks)) for _ in keys]
    return SpimeJob(keys=keys, inputs=inputs)


def observe(unit):
    return UnitObservation(
        ctrl_state=unit.ctrl.state,
        core_state=unit.core.current_state,
        aes_start=unit.ctrl.aes_start,
        aes_done=unit.core.done,
        done=unit.ctrl.done,
        round=unit.core.round,
    )


def reference_run(job):
    """Per-cycle observations, trace rows, outputs and cycles of N independent units."""
    blocks = len(job.inputs[0])
    units = [PimUnit() for _ in job.keys]
    schedules = [expand_key(k) for k in job.keys]
    outputs = [[] for _ in job.keys]
    observations, rows = [], []
    started = cycle = 0

    def idle(unit):
        return (unit.ctrl.state == "IDLE" and unit.core.current_state == "IDLE"
                and not unit.ctrl.done and not unit.ctrl.aes_start and not unit.core.done)

    while not (all(len(out) == blocks for out in outputs) and all(map(idle, units))):
        start = started < blocks
        accepted = start and units[0].ctrl.state == "IDLE"
        for unit, seq, schedule, out in zip(units, job.inputs, schedules, outputs):
            unit.tick(start=start, data_in=seq[min(len(out), blocks - 1)], round_keys=schedule)
        cycle += 1
        started += accepted
        observations.append([observe(unit) for unit in units])
        for u, (unit, out) in enumerate(zip(units, outputs)):
            if unit.ctrl.done:
                out.append(unit.ctrl.data_out)
            obs = observations[-1][u]
            rows.append([u, cycle, obs.ctrl_state, int(obs.aes_start), obs.core_state,
                         obs.round, int(obs.aes_done), int(obs.done)])
    return observations, rows, outputs, cycle


def make_cfg(job):
    return SpimeConfig(
        num_pims=len(job.keys),
        per_pim_block_bits=128 * len(job.inputs[0]),
        trace_enabled=True,
    )


@settings(max_examples=40, deadline=None)
@given(jobs())
def test_array_matches_independent_units(job):
    want_obs, want_rows, want_outputs, want_cycles = reference_run(job)

    array = build_array(make_cfg(job))
    array.load_job(job)
    got_obs = []
    while not array.job_complete():
        got_obs.append(array.tick())
    assert got_obs == want_obs
    assert array.trace_rows == want_rows
    assert array._outputs == want_outputs

    result = build_array(make_cfg(job)).run_job(job)
    assert result.outputs == want_outputs
    assert result.total_cycles == want_cycles
    for key, seq, out in zip(job.keys, job.inputs, result.outputs):
        assert out == [aes128_ecb(key, block) for block in seq]


def test_array_builds_one_control_unit(monkeypatch):
    built = []

    class CountingUnit(PimUnit):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(array_sim, "PimUnit", CountingUnit)
    for num_pims in (1, 64):
        built.clear()
        array = build_array(SpimeConfig(num_pims=num_pims))
        assert len(built) == 1
        assert len(array.units) == num_pims


def test_array_runs_one_datapath_on_the_whole_register(monkeypatch):
    widths = []

    def recording(fn):
        def wrapper(register, *args, **kwargs):
            widths.append(len(register))
            return fn(register, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(aes_core, "block_round", recording(aes_core.block_round))
    monkeypatch.setattr(aes_core, "xor_blocks", recording(aes_core.xor_blocks))
    job = SpimeJob(keys=[bytes([u]) * 16 for u in range(3)],
                   inputs=[[bytes([u, b]) * 8 for b in range(2)] for u in range(3)])
    result = build_array(make_cfg(job)).run_job(job)
    assert widths == [48] * 22  # 11 datapath operations per block, all 3 lanes at once
    for key, seq, out in zip(job.keys, job.inputs, result.outputs):
        assert out == [aes128_ecb(key, block) for block in seq]
