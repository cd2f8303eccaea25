"""The block-form datapath against the list-of-lists round transforms.

:func:`spime.aes_core.datapath` runs the simulator's rounds on 16-byte
blocks and 128-bit ints; the list-of-lists transforms are the separately
coded composition oracle. Every core state must give the same register.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spime.aes_core import FINAL, INIT, ROUND, datapath
from spime.primitives import (
    add_round_key,
    block_to_state,
    expand_key,
    mix_columns,
    shift_rows,
    state_to_block,
    sub_bytes,
)

from oracles import expand_key_oracle

BLOCK = st.binary(min_size=16, max_size=16)
# (core state, round counter): INIT, the nine ROUND cycles, FINAL.
CORE_STEPS = [(INIT, 0)] + [(ROUND, rnd) for rnd in range(9)] + [(FINAL, 9)]


def list_datapath(state, rnd, reg, data_in, round_keys):
    """The same register transfer composed from the list-of-lists transforms."""
    if state == INIT:
        return state_to_block(add_round_key(block_to_state(data_in), round_keys[0]))
    s = sub_bytes(block_to_state(reg))
    if state == ROUND:
        return state_to_block(add_round_key(mix_columns(shift_rows(s)), round_keys[rnd + 1]))
    return state_to_block(add_round_key(shift_rows(s), round_keys[10]))


@pytest.mark.parametrize("state, rnd", CORE_STEPS, ids=[f"{s}-{r}" for s, r in CORE_STEPS])
@given(reg=BLOCK, data_in=BLOCK, key=BLOCK)
def test_block_datapath_matches_list_transforms(state, rnd, reg, data_in, key):
    round_keys = expand_key(key)
    want = list_datapath(state, rnd, reg, data_in, round_keys)
    assert datapath(state, rnd, reg, data_in, round_keys) == want


@given(key=BLOCK)
@example(key=bytes(16))
@example(key=b"\xff" * 16)
def test_expand_key_matches_list_recurrence(key):
    assert expand_key(key) == expand_key_oracle(key)
