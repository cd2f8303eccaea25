"""Cycle-level tests for the AES core state machine."""

import random

import pytest

from spime.aes_core import (
    CORE_CYCLES_PER_BLOCK,
    AesCoreInputs,
    AesCoreSim,
    encrypt_block,
)
from spime.primitives import ZERO_BLOCK, expand_key, expand_keys

from oracles import (
    FIPS_B_CIPHERTEXT,
    FIPS_B_KEY,
    FIPS_B_PLAINTEXT,
    FIPS_C1_CIPHERTEXT,
    FIPS_C1_KEY,
    FIPS_C1_PLAINTEXT,
    aes128_ecb,
)


def drive_one_encryption(core, key, plaintext):
    """Pulse start, then step until done; returns visited executing states."""
    schedule = expand_key(key)
    visited = [core.current_state]
    core.step(AesCoreInputs(start=True, data_in=plaintext, round_keys=schedule))
    hold = AesCoreInputs(start=False, data_in=plaintext, round_keys=schedule)
    while not core.done:
        visited.append(core.current_state)
        core.step(hold)
        assert len(visited) < 32
    visited.append(core.current_state)
    return visited


def test_reset_state():
    core = AesCoreSim()
    assert core.current_state == "IDLE"
    assert core.round == 0
    assert not core.done
    assert core.cycle_count == 0


def test_idle_holds_without_start():
    core = AesCoreSim()
    idle = AesCoreInputs()
    for _ in range(50):
        core.step(idle)
        assert core.current_state == "IDLE"
        assert not core.done
    assert core.cycle_count == 50


def test_fips_appendix_b_vector():
    core = AesCoreSim()
    drive_one_encryption(core, FIPS_B_KEY, FIPS_B_PLAINTEXT)
    assert core.data_out == FIPS_B_CIPHERTEXT


def test_encrypt_block_fips_c1_vector():
    ciphertext, cycles = encrypt_block(FIPS_C1_KEY, FIPS_C1_PLAINTEXT)
    assert ciphertext == FIPS_C1_CIPHERTEXT
    assert cycles == CORE_CYCLES_PER_BLOCK


def test_state_sequence_is_init_nine_rounds_final():
    core = AesCoreSim()
    visited = drive_one_encryption(core, FIPS_B_KEY, FIPS_B_PLAINTEXT)
    assert visited == ["IDLE", "INIT"] + ["ROUND"] * 9 + ["FINAL", "IDLE"]
    assert core.current_state == "IDLE"


def test_eleven_cycles_from_init_to_done():
    rng = random.Random(0x11C)
    for _ in range(200):
        _, cycles = encrypt_block(rng.randbytes(16), rng.randbytes(16))
        assert cycles == 11


def test_done_high_for_exactly_one_cycle():
    core = AesCoreSim()
    drive_one_encryption(core, FIPS_B_KEY, FIPS_B_PLAINTEXT)
    assert core.done
    core.step(AesCoreInputs())
    assert not core.done
    assert core.current_state == "IDLE"


def test_round_counter_stays_in_range():
    core = AesCoreSim()
    schedule = expand_key(FIPS_B_KEY)
    core.step(AesCoreInputs(start=True, data_in=FIPS_B_PLAINTEXT, round_keys=schedule))
    hold = AesCoreInputs(start=False, data_in=FIPS_B_PLAINTEXT, round_keys=schedule)
    while not core.done:
        if core.current_state == "ROUND":
            assert 0 <= core.round <= 9
        core.step(hold)


def test_reset_is_idempotent_and_clears_mid_round():
    core = AesCoreSim()
    schedule = expand_key(FIPS_B_KEY)
    core.step(AesCoreInputs(start=True, data_in=FIPS_B_PLAINTEXT, round_keys=schedule))
    for _ in range(5):  # abandon partway through the rounds
        core.step(AesCoreInputs(start=False, data_in=FIPS_B_PLAINTEXT, round_keys=schedule))
    core.reset()
    snapshot = (core.current_state, core.round, core.done, core.cycle_count)
    core.reset()
    assert (core.current_state, core.round, core.done, core.cycle_count) == snapshot
    assert snapshot == ("IDLE", 0, False, 0)

    drive_one_encryption(core, FIPS_B_KEY, FIPS_B_PLAINTEXT)
    assert core.data_out == FIPS_B_CIPHERTEXT


def test_step_is_deterministic():
    results = set()
    for _ in range(3):
        ciphertext, cycles = encrypt_block(FIPS_C1_KEY, FIPS_C1_PLAINTEXT)
        results.add((ciphertext, cycles))
    assert len(results) == 1


def test_matches_external_oracle_on_random_inputs():
    rng = random.Random(0xD1FF)
    for _ in range(300):
        key = rng.randbytes(16)
        plaintext = rng.randbytes(16)
        ciphertext, _ = encrypt_block(key, plaintext)
        assert ciphertext == aes128_ecb(key, plaintext)


def test_start_held_high_runs_back_to_back():
    core = AesCoreSim()
    schedule = expand_key(FIPS_C1_KEY)
    held = AesCoreInputs(start=True, data_in=FIPS_C1_PLAINTEXT, round_keys=schedule)
    done_cycles = []
    for cycle in range(1, 49):
        core.step(held)
        if core.done:
            done_cycles.append(cycle)
    assert len(done_cycles) >= 2
    # 12-cycle cadence: IDLE restart + the 11-cycle sequence
    assert all(b - a == 12 for a, b in zip(done_cycles, done_cycles[1:]))
    assert core.data_out == FIPS_C1_CIPHERTEXT


def test_inputs_validate_shapes():
    with pytest.raises(ValueError):
        AesCoreInputs(start=False, data_in=bytes(15))
    with pytest.raises(ValueError):
        AesCoreInputs(start=False, data_in=ZERO_BLOCK, round_keys=[ZERO_BLOCK] * 10)


def test_raw_key_port_is_ignored():
    schedule = expand_key(FIPS_C1_KEY)
    outputs = set()
    for key_port in (ZERO_BLOCK, bytes([0xFF]) * 16):
        core = AesCoreSim()
        core.step(
            AesCoreInputs(
                start=True, data_in=FIPS_C1_PLAINTEXT, round_keys=schedule, key=key_port
            )
        )
        hold = AesCoreInputs(
            start=False, data_in=FIPS_C1_PLAINTEXT, round_keys=schedule, key=key_port
        )
        while not core.done:
            core.step(hold)
        outputs.add(core.data_out)
    assert outputs == {FIPS_C1_CIPHERTEXT}


def test_trace_records_cycle_state_round_done():
    core = AesCoreSim(trace_enabled=True)
    drive_one_encryption(core, FIPS_B_KEY, FIPS_B_PLAINTEXT)
    states = [row[1] for row in core.trace]
    assert states == ["IDLE"] + ["INIT"] + ["ROUND"] * 9 + ["FINAL"]
    assert core.trace[-1][3] == 1  # done flagged on the FINAL row
    assert [row[0] for row in core.trace] == list(range(1, 13))


def test_two_lane_buses_encrypt_both_lanes():
    keys, plaintexts = [FIPS_C1_KEY, FIPS_B_KEY], [FIPS_C1_PLAINTEXT, FIPS_B_PLAINTEXT]
    round_keys = expand_keys(b"".join(keys))
    data_in = b"".join(plaintexts)
    core = AesCoreSim()
    core.step(AesCoreInputs(start=True, data_in=data_in, round_keys=round_keys))
    hold = AesCoreInputs(start=False, data_in=data_in, round_keys=round_keys)
    for _ in range(CORE_CYCLES_PER_BLOCK):
        core.step(hold)
    assert core.done
    assert core.data_out == b"".join(aes128_ecb(k, p) for k, p in zip(keys, plaintexts))


@pytest.mark.parametrize("lanes_in, lanes_keys", [(2, 1), (1, 2)], ids=["narrow-keys", "wide-keys"])
def test_inputs_refuse_round_keys_of_another_width(lanes_in, lanes_keys):
    with pytest.raises(ValueError):
        AesCoreInputs(data_in=bytes(16 * lanes_in), round_keys=expand_keys(bytes(16 * lanes_keys)))
