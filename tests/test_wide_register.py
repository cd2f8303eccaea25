"""The datapath at the benchmark's width: AES on every lane of a 4096-lane register.

The lane masks behind ShiftRows and MixColumns repeat across every lane of
a register, and ``expand_keys`` hands each round-key register its int. A
slip that only shows far from lane 0 (a mask repeated one lane short, a
shift that spills into the next lane) shows here, where the smaller
register tests stop at a few lanes. Every lane is compared with the
``cryptography`` package.
"""

import random

import pytest

from spime.primitives import RoundKey, block_round, expand_keys, xor_blocks

from oracles import aes128_ecb, expand_key_oracle


def operands(lanes):
    rng = random.Random(0x4096 + lanes)
    keys = [rng.randbytes(16) for _ in range(lanes)]
    assert len(set(keys)) == lanes  # distinct keys, so no lane can stand in for another
    return keys, [rng.randbytes(16) for _ in range(lanes)]


def lanes_of(register):
    return [register[i:i + 16] for i in range(0, len(register), 16)]


@pytest.fixture(scope="module", params=[64, 4096])
def wide(request):
    lanes = request.param
    keys, plaintexts = operands(lanes)
    return keys, plaintexts, expand_keys(b"".join(keys))


def encrypt(plaintexts, schedule):
    """INIT, nine full rounds and FINAL, as the core runs them."""
    register = xor_blocks(b"".join(plaintexts), schedule[0])
    for rnd in range(1, 10):
        register = block_round(register, schedule[rnd])
    return block_round(register, schedule[10], final=True)


def test_every_lane_is_aes_128(wide):
    keys, plaintexts, schedule = wide
    got = lanes_of(encrypt(plaintexts, schedule))
    assert got == [aes128_ecb(key, block) for key, block in zip(keys, plaintexts)]


def test_round_keys_as_plain_bytes_give_the_same_register(wide):
    _, plaintexts, schedule = wide
    assert encrypt(plaintexts, [bytes(key) for key in schedule]) == encrypt(plaintexts, schedule)


def test_every_round_key_carries_its_int_and_every_lane_its_schedule(wide):
    keys, _, schedule = wide
    assert len(schedule) == 11
    for key in schedule:
        assert type(key) is RoundKey and key.value == int.from_bytes(key, "big")
    for u in (0, 1, len(keys) // 2, len(keys) - 1):
        assert [lanes_of(key)[u] for key in schedule] == expand_key_oracle(keys[u])
