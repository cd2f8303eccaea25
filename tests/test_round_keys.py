"""Round keys carry their own int, and ``primitives`` holds no per-job state.

:func:`~spime.primitives.expand_keys` returns :class:`~spime.primitives.RoundKey`
registers, each converting itself to an int once. They must behave as the plain
``bytes`` they hold, and the datapath must give the same register for any
bytes-like form of a schedule.
"""

import copy
import pickle
import random

import pytest

from spime import primitives
from spime.aes_core import FINAL, IDLE, INIT, ROUND, datapath
from spime.array_sim import SpimeConfig, SpimeJob, build_array
from spime.primitives import RoundKey, expand_key, expand_keys, reference_encrypt

CORE_STATES = [(IDLE, 0), (INIT, 0)] + [(ROUND, rnd) for rnd in range(9)] + [(FINAL, 9)]


def _containers():
    """Every module-level dict, list and set of ``primitives``: its identity and a copy."""
    return {name: (id(value), value.copy()) for name, value in vars(primitives).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))}


def test_primitives_keeps_no_per_job_state():
    rng = random.Random(0x57A7E)
    before = _containers()
    for num_pims, blocks in ((3, 2), (5, 4)):
        keys = [rng.randbytes(16) for _ in range(num_pims)]
        inputs = [[rng.randbytes(16) for _ in range(blocks)] for _ in keys]
        result = build_array(SpimeConfig(num_pims, blocks * 128)).run_job(
            SpimeJob(keys=keys, inputs=inputs))
        assert result.outputs == [[reference_encrypt(key, block) for block in row]
                                  for key, row in zip(keys, inputs)]
        assert _containers() == before


@pytest.mark.parametrize("expand, width", [(expand_key, 16), (expand_keys, 48)],
                         ids=["expand_key", "expand_keys"])
def test_round_keys_stay_plain_values(expand, width):
    schedule = expand(random.Random(width).randbytes(width))
    assert len(schedule) == primitives.NUM_ROUND_KEYS
    for key in schedule:
        plain = bytes(key)
        assert isinstance(key, bytes) and type(key) is RoundKey
        assert key == plain and hash(key) == hash(plain) and repr(key) == repr(plain)
        assert key.value == int.from_bytes(plain, "big")
        for twin in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key)):
            assert twin == plain and twin.value == key.value


@pytest.mark.parametrize("state, rnd", CORE_STATES, ids=[f"{s}-{r}" for s, r in CORE_STATES])
def test_datapath_gives_one_register_for_every_round_key_form(state, rnd):
    rng = random.Random(0xDA7A + rnd)
    schedules = [expand_keys(rng.randbytes(48)) for _ in range(2)]
    for _ in range(3):  # two schedules used in turn, as N per-unit cores do
        for schedule in schedules:
            register, data_in = rng.randbytes(48), rng.randbytes(48)
            want = datapath(state, rnd, register, data_in, schedule)
            for form in ([bytes(key) for key in schedule], [bytearray(key) for key in schedule]):
                assert datapath(state, rnd, register, data_in, form) == want
            assert datapath(state, rnd, register, data_in, schedule) == want
