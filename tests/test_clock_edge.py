"""One clock edge does only the work that changes on it.

:class:`~spime.controller.PimUnit` checks its core's input buses when they
change, not on every cycle, and :func:`~spime.primitives.block_round`
reads the int a :class:`~spime.primitives.RoundKey` carries and converts
any other bytes-like round key on each call. Neither may narrow what the
functions accept or skip a check on a changed bus.
"""

import random

import pytest

from spime import controller
from spime.aes_core import FINAL, INIT, ROUND, datapath
from spime.array_sim import SpimeConfig, SpimeJob, build_array
from spime.controller import UNIT_CYCLES_PER_BLOCK, PimUnit
from spime.primitives import (
    NUM_ROUND_KEYS,
    block_round,
    expand_keys,
    reference_encrypt,
)

CORE_STEPS = [(INIT, 0)] + [(ROUND, rnd) for rnd in range(9)] + [(FINAL, 9)]


def test_a_job_builds_one_core_input_port_per_block(monkeypatch):
    num_pims, blocks = 3, 4
    rng = random.Random(0xC10C)
    keys = [rng.randbytes(16) for _ in range(num_pims)]
    inputs = [[rng.randbytes(16) for _ in range(blocks)] for _ in range(num_pims)]
    built = []

    def counting(*args, **kwargs):
        built.append(args or kwargs)
        return real(*args, **kwargs)

    real = controller.AesCoreInputs
    monkeypatch.setattr(controller, "AesCoreInputs", counting)
    array = build_array(SpimeConfig(num_pims, blocks * 128))
    result = array.run_job(SpimeJob(keys=keys, inputs=inputs))

    assert result.total_cycles == blocks * UNIT_CYCLES_PER_BLOCK  # 60 ticks
    assert len(built) <= blocks + 2  # one per block and one at construction
    assert result.outputs == [[reference_encrypt(key, block) for block in row]
                              for key, row in zip(keys, inputs)]


@pytest.mark.parametrize("bus", ["wide-keys", "narrow-keys", "short-data"])
def test_a_changed_bus_is_checked_after_good_ticks(bus):
    rng = random.Random(0xB05)
    unit = PimUnit()
    data_in, schedule = rng.randbytes(32), expand_keys(rng.randbytes(32))
    for _ in range(5):
        unit.tick(start=True, data_in=data_in, round_keys=schedule)
    if bus == "short-data":
        data_in = data_in[:15]
    else:
        schedule = expand_keys(rng.randbytes(48 if bus == "wide-keys" else 16))
    with pytest.raises(ValueError):
        unit.tick(start=True, data_in=data_in, round_keys=schedule)


@pytest.mark.parametrize("kind", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_block_round_takes_any_bytes_like_round_key(kind):
    rng = random.Random(0xB7E)
    schedule = expand_keys(rng.randbytes(64))
    for _ in range(3):  # the same key registers across blocks
        register = rng.randbytes(64)
        for key in schedule[1:]:
            for final in (False, True):
                want = block_round(register, key, final)
                assert block_round(register, kind(bytearray(key)), final) == want
                assert block_round(register, key, final) == want


def test_a_round_key_changed_in_place_is_read_again():
    rng = random.Random(0x1A7E)
    register, first, second = rng.randbytes(16), rng.randbytes(16), rng.randbytes(16)
    key = bytearray(first)
    assert block_round(register, key) == block_round(register, first)
    key[:] = second
    assert block_round(register, key) == block_round(register, second)


def test_bytes_round_keys_match_their_bytearray_copies_whatever_their_count_or_address():
    rng = random.Random(0xCAC4E)
    register = rng.randbytes(32)
    keys = [rng.randbytes(32) for _ in range(3 * NUM_ROUND_KEYS)]
    want = [block_round(register, bytearray(key)) for key in keys]
    for _ in range(2):
        assert [block_round(register, key) for key in keys] == want
    # A key freed and another made in its place (often at the same address).
    for _ in range(2 * NUM_ROUND_KEYS):
        key = rng.randbytes(32)
        assert block_round(register, key) == block_round(register, bytearray(key))
        del key


@pytest.mark.parametrize("state, rnd", CORE_STEPS, ids=[f"{s}-{r}" for s, r in CORE_STEPS])
def test_datapath_gives_the_same_bytes_for_bytearray_round_keys(state, rnd):
    rng = random.Random(rnd)
    schedule = expand_keys(rng.randbytes(48))
    mutable = [bytearray(key) for key in schedule]
    for _ in range(3):  # one schedule reused across blocks
        register, data_in = rng.randbytes(48), rng.randbytes(48)
        want = datapath(state, rnd, register, data_in, schedule)
        assert datapath(state, rnd, register, data_in, mutable) == want
        assert datapath(state, rnd, register, data_in, schedule) == want
