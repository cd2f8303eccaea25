"""The datapath on a register of k blocks against each block on its own.

:func:`spime.primitives.block_round`, :func:`~spime.primitives.xor_blocks`
and :func:`~spime.primitives.expand_keys` treat every 16-byte lane of a
register as one unit's state. Each lane must come out exactly as its block
would alone, so no mask may carry a byte across a lane boundary. The
per-block results come from the list-of-lists transforms, the FIPS-197
key recurrence in ``oracles`` and the ``cryptography`` package.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spime.primitives import (
    add_round_key,
    block_round,
    block_to_state,
    expand_key,
    expand_keys,
    mix_columns,
    shift_rows,
    state_to_block,
    sub_bytes,
    xor_blocks,
)

from oracles import aes128_ecb, expand_key_oracle

BLOCK = st.binary(min_size=16, max_size=16)


def lanes(register):
    return [register[i:i + 16] for i in range(0, len(register), 16)]


@st.composite
def lane_blocks(draw, k):
    """k blocks drawn from a pool of at most k, so lanes may repeat."""
    pool = draw(st.lists(BLOCK, min_size=1, max_size=k))
    return draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))


@st.composite
def registers(draw):
    """Keys, round keys and states of one k-lane register, k in 1..9."""
    k = draw(st.integers(1, 9))
    return draw(lane_blocks(k)), draw(lane_blocks(k)), draw(lane_blocks(k))


def list_round(block, round_key, final):
    state = shift_rows(sub_bytes(block_to_state(block)))
    if not final:
        state = mix_columns(state)
    return state_to_block(add_round_key(state, round_key))


@pytest.mark.parametrize("final", [False, True], ids=["round", "final"])
@given(registers())
def test_block_round_works_lane_by_lane(final, blocks):
    _keys, round_keys, states = blocks
    got = block_round(b"".join(states), b"".join(round_keys), final=final)
    assert lanes(got) == [list_round(s, rk, final) for s, rk in zip(states, round_keys)]


@given(registers())
def test_xor_blocks_works_lane_by_lane(blocks):
    _keys, round_keys, states = blocks
    got = xor_blocks(b"".join(states), b"".join(round_keys))
    assert lanes(got) == [bytes(a ^ b for a, b in zip(s, rk)) for s, rk in zip(states, round_keys)]


@given(registers())
def test_expand_keys_works_lane_by_lane(blocks):
    keys, _round_keys, _states = blocks
    schedule = expand_keys(b"".join(keys))
    assert len(schedule) == 11
    want = [expand_key_oracle(key) for key in keys]
    for i, register in enumerate(schedule):
        assert lanes(register) == [w[i] for w in want]


@given(registers())
def test_eleven_steps_over_a_register_are_aes_per_lane(blocks):
    keys, _round_keys, plaintexts = blocks
    round_keys = expand_keys(b"".join(keys))
    register = xor_blocks(b"".join(plaintexts), round_keys[0])
    for rnd in range(1, 10):
        register = block_round(register, round_keys[rnd])
    register = block_round(register, round_keys[10], final=True)
    assert lanes(register) == [aes128_ecb(k, p) for k, p in zip(keys, plaintexts)]


@pytest.mark.parametrize("size", [0, 15, 17, 32])
def test_expand_key_takes_exactly_one_block(size):
    with pytest.raises(ValueError):
        expand_key(bytes(size))


@pytest.mark.parametrize("keys", [b"", bytes(15), bytes(17), bytes(33), "00" * 16],
                         ids=["0", "15", "17", "33", "str"])
def test_expand_keys_takes_a_positive_multiple_of_a_block(keys):
    with pytest.raises(ValueError):
        expand_keys(keys)
