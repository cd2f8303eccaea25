"""Handshake-protocol tests for the PIM controller and the unit co-sim."""

import random

from spime.controller import (
    UNIT_CYCLES_PER_BLOCK,
    PimControllerSim,
    PimUnit,
    run_block,
)
from spime.primitives import ZERO_BLOCK, expand_key, reference_encrypt

from oracles import (
    FIPS_C1_CIPHERTEXT,
    FIPS_C1_KEY,
    FIPS_C1_PLAINTEXT,
    aes128_ecb,
)


def run_blocks_with_pulse_log(unit, key, plaintexts):
    """Drive blocks back-to-back, logging per-cycle pulses and states."""
    schedule = expand_key(key)
    log = []  # (aes_start_seen_by_core, core_state_at_sample, ctrl_done_after)
    outputs = []
    budget = (len(plaintexts) + 1) * UNIT_CYCLES_PER_BLOCK + 16
    for _ in range(budget):
        remaining = len(plaintexts) > len(outputs)
        data_in = plaintexts[len(outputs)] if remaining else ZERO_BLOCK
        sampled_start = unit.ctrl.aes_start
        core_state = unit.core.current_state
        unit.tick(start=remaining, data_in=data_in, round_keys=schedule)
        log.append((sampled_start, core_state, unit.ctrl.done))
        if unit.ctrl.done:
            outputs.append(unit.ctrl.data_out)
        if len(outputs) == len(plaintexts) and unit.ctrl.state == "IDLE":
            break
    return outputs, log


def test_reset_state_and_idempotence():
    ctrl = PimControllerSim()
    assert (ctrl.state, ctrl.aes_start, ctrl.done) == ("IDLE", False, False)
    ctrl.step(start=True, aes_done=False, aes_data_out=ZERO_BLOCK)
    ctrl.reset()
    ctrl.reset()
    assert (ctrl.state, ctrl.aes_start, ctrl.done) == ("IDLE", False, False)


def test_idle_without_start_never_leaves():
    ctrl = PimControllerSim()
    for _ in range(40):
        ctrl.step(start=False, aes_done=False, aes_data_out=ZERO_BLOCK)
        assert ctrl.state == "IDLE"
        assert not ctrl.aes_start and not ctrl.done


def test_start_pulse_raises_aes_start_for_one_cycle():
    ctrl = PimControllerSim()
    ctrl.step(start=True, aes_done=False, aes_data_out=ZERO_BLOCK)
    assert ctrl.aes_start and ctrl.state == "START_AES"
    ctrl.step(start=False, aes_done=False, aes_data_out=ZERO_BLOCK)
    assert not ctrl.aes_start and ctrl.state == "WAIT_AES"


def test_done_pulse_lasts_one_cycle_then_ready():
    unit = PimUnit()
    run_block(unit, FIPS_C1_KEY, FIPS_C1_PLAINTEXT)
    # run_block retires the pulse; the controller must be idle and quiet
    assert unit.ctrl.state == "IDLE"
    assert not unit.ctrl.done
    ciphertext, cycles = run_block(unit, FIPS_C1_KEY, FIPS_C1_PLAINTEXT)
    assert ciphertext == FIPS_C1_CIPHERTEXT
    assert cycles == UNIT_CYCLES_PER_BLOCK


def test_run_block_matches_oracle_through_controller_path():
    unit = PimUnit()
    ciphertext, _ = run_block(unit, FIPS_C1_KEY, FIPS_C1_PLAINTEXT)
    assert ciphertext == FIPS_C1_CIPHERTEXT


def test_end_to_end_cycles_are_input_independent():
    rng = random.Random(0xE2E)
    unit = PimUnit()
    for _ in range(100):
        key, plaintext = rng.randbytes(16), rng.randbytes(16)
        ciphertext, cycles = run_block(unit, key, plaintext)
        assert cycles == UNIT_CYCLES_PER_BLOCK
        assert ciphertext == aes128_ecb(key, plaintext)


def test_back_to_back_blocks_without_reset():
    rng = random.Random(0xB2B)
    unit = PimUnit()
    key = rng.randbytes(16)
    plaintexts = [rng.randbytes(16) for _ in range(5)]
    outputs, _ = run_blocks_with_pulse_log(unit, key, plaintexts)
    assert outputs == [reference_encrypt(key, p) for p in plaintexts]


def test_exactly_one_start_and_done_pulse_per_block():
    rng = random.Random(0x1015)
    unit = PimUnit()
    key = rng.randbytes(16)
    plaintexts = [rng.randbytes(16) for _ in range(7)]
    outputs, log = run_blocks_with_pulse_log(unit, key, plaintexts)
    assert len(outputs) == 7
    assert sum(1 for start, _, _ in log if start) == 7
    assert sum(1 for _, _, done in log if done) == 7


def test_aes_start_only_fires_while_core_is_idle():
    rng = random.Random(0x5AFE)
    unit = PimUnit()
    key = rng.randbytes(16)
    plaintexts = [rng.randbytes(16) for _ in range(6)]
    _, log = run_blocks_with_pulse_log(unit, key, plaintexts)
    for sampled_start, core_state, _ in log:
        if sampled_start:
            assert core_state == "IDLE"


def test_data_out_stable_between_done_pulses():
    rng = random.Random(0xDA7A)
    unit = PimUnit()
    key = rng.randbytes(16)
    first, second = rng.randbytes(16), rng.randbytes(16)
    schedule = expand_key(key)

    ct1, _ = run_block(unit, key, first)
    # idle gap: data_out must hold the first ciphertext
    for _ in range(10):
        unit.tick(start=False, data_in=second, round_keys=schedule)
        assert unit.ctrl.data_out == ct1
    # through the second encryption it still holds until the new done pulse
    while True:
        unit.tick(start=True, data_in=second, round_keys=schedule)
        if unit.ctrl.done:
            break
        assert unit.ctrl.data_out == ct1
    assert unit.ctrl.data_out == reference_encrypt(key, second)


def test_reset_during_wait_abandons_block():
    unit = PimUnit()
    schedule = expand_key(FIPS_C1_KEY)
    for _ in range(6):  # partway into WAIT_AES
        unit.tick(start=True, data_in=FIPS_C1_PLAINTEXT, round_keys=schedule)
    assert unit.ctrl.state == "WAIT_AES"
    unit.reset()
    for _ in range(3 * UNIT_CYCLES_PER_BLOCK):
        unit.tick(start=False, data_in=FIPS_C1_PLAINTEXT, round_keys=schedule)
        assert not unit.ctrl.done  # the abandoned block never completes
    ciphertext, cycles = run_block(unit, FIPS_C1_KEY, FIPS_C1_PLAINTEXT)
    assert ciphertext == FIPS_C1_CIPHERTEXT
    assert cycles == UNIT_CYCLES_PER_BLOCK


def test_controller_trace_schema():
    ctrl = PimControllerSim(trace_enabled=True)
    ctrl.step(start=True, aes_done=False, aes_data_out=ZERO_BLOCK)
    ctrl.step(start=False, aes_done=False, aes_data_out=ZERO_BLOCK)
    assert ctrl.trace[0] == (1, "IDLE", 1, 0, 0)
    assert ctrl.trace[1] == (2, "START_AES", 0, 0, 0)


def test_controller_latches_a_two_lane_data_out():
    register = bytes(range(32))
    ctrl = PimControllerSim()
    ctrl.step(start=True, aes_done=False, aes_data_out=ZERO_BLOCK)  # -> START_AES
    ctrl.step(start=False, aes_done=False, aes_data_out=ZERO_BLOCK)  # -> WAIT_AES
    ctrl.step(start=False, aes_done=True, aes_data_out=register)  # -> DONE
    assert ctrl.done
    assert ctrl.data_out == register
