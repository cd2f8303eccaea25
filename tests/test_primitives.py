"""Unit tests for the pure AES-128 building blocks."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spime.primitives import (
    SBOX,
    SubBytesPacket,
    ZERO_BLOCK,
    add_round_key,
    block_from_hex,
    block_to_hex,
    block_to_state,
    expand_key,
    flat_to_schedule,
    mix_columns,
    mul_by_2,
    mul_by_3,
    reference_encrypt,
    schedule_to_flat,
    shift_rows,
    state_to_block,
    sub_byte,
    sub_bytes,
)

from oracles import (
    FIPS_B_KEY,
    FIPS_B_PLAINTEXT,
    FIPS_B_ROUND0,
    FIPS_B_ROUND_KEY_10,
    FIPS_C1_KEY,
    FIPS_C1_ROUND_KEY_10,
    aes128_ecb,
    mix_columns_oracle,
)

# Inverse S-box, FIPS-197 Table 4.2 (decryption is out of scope for the
# package; the table is used here only to invert sub_bytes).
INV_SBOX = [
    0x52, 0x09, 0x6A, 0xD5, 0x30, 0x36, 0xA5, 0x38, 0xBF, 0x40, 0xA3, 0x9E, 0x81, 0xF3, 0xD7, 0xFB,
    0x7C, 0xE3, 0x39, 0x82, 0x9B, 0x2F, 0xFF, 0x87, 0x34, 0x8E, 0x43, 0x44, 0xC4, 0xDE, 0xE9, 0xCB,
    0x54, 0x7B, 0x94, 0x32, 0xA6, 0xC2, 0x23, 0x3D, 0xEE, 0x4C, 0x95, 0x0B, 0x42, 0xFA, 0xC3, 0x4E,
    0x08, 0x2E, 0xA1, 0x66, 0x28, 0xD9, 0x24, 0xB2, 0x76, 0x5B, 0xA2, 0x49, 0x6D, 0x8B, 0xD1, 0x25,
    0x72, 0xF8, 0xF6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xD4, 0xA4, 0x5C, 0xCC, 0x5D, 0x65, 0xB6, 0x92,
    0x6C, 0x70, 0x48, 0x50, 0xFD, 0xED, 0xB9, 0xDA, 0x5E, 0x15, 0x46, 0x57, 0xA7, 0x8D, 0x9D, 0x84,
    0x90, 0xD8, 0xAB, 0x00, 0x8C, 0xBC, 0xD3, 0x0A, 0xF7, 0xE4, 0x58, 0x05, 0xB8, 0xB3, 0x45, 0x06,
    0xD0, 0x2C, 0x1E, 0x8F, 0xCA, 0x3F, 0x0F, 0x02, 0xC1, 0xAF, 0xBD, 0x03, 0x01, 0x13, 0x8A, 0x6B,
    0x3A, 0x91, 0x11, 0x41, 0x4F, 0x67, 0xDC, 0xEA, 0x97, 0xF2, 0xCF, 0xCE, 0xF0, 0xB4, 0xE6, 0x73,
    0x96, 0xAC, 0x74, 0x22, 0xE7, 0xAD, 0x35, 0x85, 0xE2, 0xF9, 0x37, 0xE8, 0x1C, 0x75, 0xDF, 0x6E,
    0x47, 0xF1, 0x1A, 0x71, 0x1D, 0x29, 0xC5, 0x89, 0x6F, 0xB7, 0x62, 0x0E, 0xAA, 0x18, 0xBE, 0x1B,
    0xFC, 0x56, 0x3E, 0x4B, 0xC6, 0xD2, 0x79, 0x20, 0x9A, 0xDB, 0xC0, 0xFE, 0x78, 0xCD, 0x5A, 0xF4,
    0x1F, 0xDD, 0xA8, 0x33, 0x88, 0x07, 0xC7, 0x31, 0xB1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xEC, 0x5F,
    0x60, 0x51, 0x7F, 0xA9, 0x19, 0xB5, 0x4A, 0x0D, 0x2D, 0xE5, 0x7A, 0x9F, 0x93, 0xC9, 0x9C, 0xEF,
    0xA0, 0xE0, 0x3B, 0x4D, 0xAE, 0x2A, 0xF5, 0xB0, 0xC8, 0xEB, 0xBB, 0x3C, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2B, 0x04, 0x7E, 0xBA, 0x77, 0xD6, 0x26, 0xE1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0C, 0x7D,
]


def random_state(rng):
    return [[rng.randrange(256) for _ in range(4)] for _ in range(4)]


# ---------------------------------------------------------------------------
# blocks, states, schedules
# ---------------------------------------------------------------------------

@given(st.binary(min_size=16, max_size=16))
def test_block_hex_round_trip(block):
    assert block_from_hex(block_to_hex(block)) == block


@pytest.mark.parametrize("text", ["", "00", "0" * 31, "0" * 33, "zz" * 16])
def test_block_from_hex_rejects_malformed(text):
    with pytest.raises(ValueError):
        block_from_hex(text)


@given(st.binary(min_size=16, max_size=16))
def test_block_state_bijection(block):
    assert state_to_block(block_to_state(block)) == block


def test_block_state_mapping_is_column_major():
    block = bytes(range(16))
    state = block_to_state(block)
    for r in range(4):
        for c in range(4):
            assert state[r][c] == block[4 * c + r]


def test_schedule_flat_layout():
    keys = [bytes([i]) * 16 for i in range(11)]
    flat = schedule_to_flat(keys)
    assert len(flat) == 176
    for i in range(11):
        assert flat[16 * i:16 * i + 16] == keys[i]
    assert flat_to_schedule(flat) == keys
    assert len(flat.hex()) == 352


def test_schedule_flat_rejects_bad_sizes():
    with pytest.raises(ValueError):
        schedule_to_flat([ZERO_BLOCK] * 10)
    with pytest.raises(ValueError):
        flat_to_schedule(bytes(175))


# ---------------------------------------------------------------------------
# sub_byte / sub_bytes
# ---------------------------------------------------------------------------

def test_sub_byte_known_values():
    assert sub_byte(0x00) == 0x63
    assert sub_byte(0x53) == 0xED


def test_sub_byte_is_a_permutation():
    assert sorted(sub_byte(b) for b in range(256)) == list(range(256))


def test_sub_bytes_zero_state():
    state = block_to_state(ZERO_BLOCK)
    assert sub_bytes(state) == [[0x63] * 4 for _ in range(4)]


def test_sub_bytes_matches_elementwise_oracle():
    rng = random.Random(0x5B)
    for _ in range(1000):
        state = random_state(rng)
        assert sub_bytes(state) == [[SBOX[b] for b in row] for row in state]


def test_sub_bytes_inverted_by_fips_table():
    rng = random.Random(0x1B5)
    for _ in range(200):
        state = random_state(rng)
        forward = sub_bytes(state)
        assert [[INV_SBOX[b] for b in row] for row in forward] == state


# ---------------------------------------------------------------------------
# shift_rows
# ---------------------------------------------------------------------------

def test_shift_rows_example_rows():
    state = [
        [0x00, 0x01, 0x02, 0x03],
        [0x10, 0x11, 0x12, 0x13],
        [0x20, 0x21, 0x22, 0x23],
        [0x30, 0x31, 0x32, 0x33],
    ]
    assert shift_rows(state) == [
        [0x00, 0x01, 0x02, 0x03],
        [0x11, 0x12, 0x13, 0x10],
        [0x22, 0x23, 0x20, 0x21],
        [0x33, 0x30, 0x31, 0x32],
    ]


def test_shift_rows_fixes_row_zero_and_preserves_multiset():
    rng = random.Random(0x5317)
    for _ in range(1000):
        state = random_state(rng)
        shifted = shift_rows(state)
        assert shifted[0] == state[0]
        assert sorted(b for row in shifted for b in row) == sorted(
            b for row in state for b in row
        )


def test_shift_rows_fourth_power_is_identity():
    rng = random.Random(0x5318)
    for _ in range(1000):
        state = random_state(rng)
        out = state
        for _ in range(4):
            out = shift_rows(out)
        assert out == state


# ---------------------------------------------------------------------------
# mul_by_2 / mul_by_3 / mix_columns
# ---------------------------------------------------------------------------

def test_mul_by_2_known_values():
    assert mul_by_2(0x01) == 0x02
    assert mul_by_2(0x80) == 0x1B
    assert mul_by_2(0xFF) == 0xE5


def test_mul_by_3_known_values():
    assert mul_by_3(0x01) == 0x03
    assert mul_by_3(0x00) == 0x00


def test_mul_by_3_identity_exhaustive():
    for b in range(256):
        assert mul_by_3(b) == mul_by_2(b) ^ b


def test_mix_columns_fips_column_vector():
    state = [[0xDB] * 4, [0x13] * 4, [0x53] * 4, [0x45] * 4]
    mixed = mix_columns(state)
    assert mixed == [[0x8E] * 4, [0x4D] * 4, [0xA1] * 4, [0xBC] * 4]


def test_mix_columns_zero_column():
    zero = [[0] * 4 for _ in range(4)]
    assert mix_columns(zero) == zero


def test_mix_columns_matches_gf_matrix_oracle():
    rng = random.Random(0x3C)
    for _ in range(300):
        state = random_state(rng)
        assert mix_columns(state) == mix_columns_oracle(state)


def test_mix_columns_is_gf2_linear():
    rng = random.Random(0x2F)
    for _ in range(1000):
        a = random_state(rng)
        b = random_state(rng)
        both = [[a[r][c] ^ b[r][c] for c in range(4)] for r in range(4)]
        ma, mb = mix_columns(a), mix_columns(b)
        assert mix_columns(both) == [
            [ma[r][c] ^ mb[r][c] for c in range(4)] for r in range(4)
        ]


# ---------------------------------------------------------------------------
# add_round_key
# ---------------------------------------------------------------------------

def test_add_round_key_zero_key_is_identity():
    rng = random.Random(0xA0)
    state = random_state(rng)
    assert add_round_key(state, ZERO_BLOCK) == state


def test_add_round_key_with_self_gives_zero():
    block = bytes(range(16))
    state = block_to_state(block)
    assert add_round_key(state, block) == [[0] * 4 for _ in range(4)]


def test_add_round_key_fips_round_zero():
    state = add_round_key(block_to_state(FIPS_B_PLAINTEXT), FIPS_B_KEY)
    assert state_to_block(state) == FIPS_B_ROUND0


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_add_round_key_is_an_involution(block, key):
    state = block_to_state(block)
    assert add_round_key(add_round_key(state, key), key) == state


# ---------------------------------------------------------------------------
# expand_key
# ---------------------------------------------------------------------------

@given(st.binary(min_size=16, max_size=16))
def test_expand_key_round_zero_is_the_key(key):
    keys = expand_key(key)
    assert len(keys) == 11
    assert keys[0] == key


def test_expand_key_zero_key_first_round():
    keys = expand_key(ZERO_BLOCK)
    assert keys[1][:4].hex() == "62636363"
    assert keys[1] == bytes.fromhex("62636363" * 4)


def test_expand_key_fips_vectors():
    keys = expand_key(FIPS_B_KEY)
    assert keys[1][:4].hex() == "a0fafe17"  # word w4 of the FIPS A.1 walkthrough
    assert keys[10] == FIPS_B_ROUND_KEY_10
    assert expand_key(FIPS_C1_KEY)[10] == FIPS_C1_ROUND_KEY_10


# ---------------------------------------------------------------------------
# composed encryption vs the external oracle
# ---------------------------------------------------------------------------

def test_reference_encrypt_matches_external_aes():
    rng = random.Random(0xAE5)
    for _ in range(1000):
        key = rng.randbytes(16)
        plaintext = rng.randbytes(16)
        assert reference_encrypt(key, plaintext) == aes128_ecb(key, plaintext)


# ---------------------------------------------------------------------------
# packet-gated SubBytes front end
# ---------------------------------------------------------------------------

class TestSubBytesPacket:
    def test_valid_type2_packet_latches(self):
        mod = SubBytesPacket()
        data = bytes(range(16))
        assert mod.step(True, 2, data) == (True, data)

    def test_wrong_type_holds_previous_latch(self):
        mod = SubBytesPacket()
        data = bytes(range(16))
        mod.step(True, 2, data)
        valid, out = mod.step(True, 3, bytes([0xFF]) * 16)
        assert (valid, out) == (False, data)

    def test_invalid_input_after_reset_outputs_zero(self):
        mod = SubBytesPacket()
        valid, out = mod.step(False, 2, bytes(range(16)))
        assert (valid, out) == (False, ZERO_BLOCK)

    def test_reset_clears_latch(self):
        mod = SubBytesPacket()
        mod.step(True, 2, bytes([0xAB]) * 16)
        mod.reset()
        assert mod.temp_data == ZERO_BLOCK
        assert not mod.output_valid


@pytest.mark.parametrize(
    "text",
    [
        "00 11 2233445566778899aabbccddee",  # 32 chars, 30 digits: 15 bytes
        "00112233445566778899aabbccdd\t\tee",
        "0011223344556677\r\n8899aabbccddee",
    ],
)
def test_block_from_hex_rejects_inner_whitespace(text):
    assert len(text) == 32
    with pytest.raises(ValueError):
        block_from_hex(text)
