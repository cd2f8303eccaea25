"""The shared control signals are plain tuples.

A trace record is the six control signals of one cycle, in TRACE_HEADER order
without unit and cycle: its position in the trace gives the cycle. A
:class:`UnitObservation` is a ``collections.namedtuple``, so importing the
command line loads no ``typing``.
"""

import tracemalloc

from spime.array_sim import TRACE_HEADER, SpimeConfig, SpimeJob, UnitObservation, build_array
from spime.controller import UNIT_CYCLES_PER_BLOCK

from helpers import run_python

# The peak of a traced one-unit run, per simulated cycle: about 100 bytes per record,
# against about 140 when a record also held its cycle number.
TRACE_BYTES_PER_CYCLE = 120


def _traced_run(blocks):
    sim = build_array(SpimeConfig(1, 128 * blocks, trace_enabled=True))
    return sim, sim.run_job(SpimeJob(keys=[bytes(16)], inputs=[[bytes(range(16))] * blocks]))


def test_a_bare_interpreter_imports_the_cli_without_typing(tmp_path):
    proc = run_python("-S", "-c", "import sys, spime.cli; print(*sys.modules)", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "spime.cli" in loaded
    assert "typing" not in loaded


def test_an_observation_is_a_named_tuple_of_the_six_signals():
    observation = UnitObservation(ctrl_state="IDLE", core_state="ROUND", aes_start=True,
                                  aes_done=False, done=False, round=3)
    assert observation == ("IDLE", "ROUND", True, False, False, 3)
    assert UnitObservation._fields == ("ctrl_state", "core_state", "aes_start", "aes_done",
                                       "done", "round")
    assert repr(observation) == ("UnitObservation(ctrl_state='IDLE', core_state='ROUND', "
                                 "aes_start=True, aes_done=False, done=False, round=3)")


def test_repeated_blocks_give_equal_records_numbered_from_one():
    sim, result = _traced_run(4)
    rows = sim.trace_rows
    assert [row[:2] for row in rows] == [[0, cycle] for cycle in range(1, result.total_cycles + 1)]
    assert len(rows[0]) == len(TRACE_HEADER)
    # After the first block, whose round register starts from reset, every block repeats.
    blocks = [[row[2:] for row in rows[b:b + UNIT_CYCLES_PER_BLOCK]]
              for b in range(UNIT_CYCLES_PER_BLOCK, len(rows), UNIT_CYCLES_PER_BLOCK)]
    assert len(blocks) == 3 and blocks[0] == blocks[1] == blocks[2]


def test_a_traced_run_holds_about_a_hundred_bytes_per_cycle():
    _traced_run(1)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        _sim, result = _traced_run(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.total_cycles == 2000 * UNIT_CYCLES_PER_BLOCK
    assert peak < TRACE_BYTES_PER_CYCLE * result.total_cycles
