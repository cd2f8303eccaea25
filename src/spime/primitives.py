"""Pure AES-128 building blocks shared by the FSM simulator and test oracles.

Everything here is combinational: total functions on bytes, 4x4 state
matrices, and 128-bit blocks. A :class:`RoundKey` carries its own int,
set by :func:`expand_keys`, so the module keeps no per-job state (only
masks, memoised per register width, and the compiled module's T-tables,
kept for the S-box they were built from). The only stateful object is
:class:`SubBytesPacket`, which models the packet-gated substitution
module's single data latch.

The cipher is coded three times. :func:`block_round` is the simulator's
datapath: one AES round on a register of one or more block-form states,
one per 16-byte lane, so N units' states advance in one call.
:func:`expand_keys` expands N keys in one batch in the same layout.

1. The compiled module ``spime._datapath``, built from ``_datapath.c`` on
   first import (see :func:`_load_datapath`), runs both with T-tables
   (Daemen & Rijmen, *The Design of Rijndael*, 2002, section 4.2). They
   call it whenever it loaded, passing :data:`SBOX` and the bytes of
   :data:`RCON` on every call.
2. The pure-Python code below them is the reference the compiled module is
   tested against and the fallback where it cannot be built; it gives the
   same bytes. :func:`block_round` holds the register as one big-endian int
   (Kasper & Schwabe, CHES 2009, lay AES out the same way across the words
   of a machine register): its ShiftRows is two masked rotations of whole
   column words, and its MixColumns takes the column XOR from
   ``pair = x ^ rot8(x)`` as ``pair ^ rot16(pair)``. :func:`expand_keys`
   takes each round's SubWord from four strided byte slices of the last
   round key.
3. The list-of-lists transforms (:func:`sub_bytes`, :func:`shift_rows`,
   :func:`mix_columns`, :func:`add_round_key`) are the test oracles: they
   compose into :func:`reference_encrypt`, which the block round is checked
   against. It shares :data:`SBOX` and :func:`expand_key` with the datapath.

Conventions:
  * A 128-bit block is ``bytes`` of length 16 (hex form: 32 lowercase chars,
    byte 0 first).
  * The state in block form is the block itself, column-major: byte
    ``4*col + row`` holds state entry (row, col). As a big-endian 128-bit
    int, column ``c`` is the 32-bit word ``c`` counted from the top, with
    row 0 in its most significant byte.
  * A register is the concatenation of N block-form states (or round
    keys), lane u at bytes ``16u .. 16u+15``; a block is a one-lane
    register.
  * The state in list form is a 4x4 list of byte rows, indexed
    ``state[row][col]``, so ``block[4*col + row] == state[row][col]``.
  * A round-key schedule is a list of 11 blocks, ``keys[0]`` being the
    cipher key; its flat form is the 176-byte concatenation ``keys[0] ..
    keys[10]`` (352 hex chars).
"""

import importlib.machinery
import importlib.util
import os
import sys
import zlib
from collections import namedtuple
from functools import cached_property, lru_cache

BLOCK_BYTES = 16
BLOCK_BITS = 8 * BLOCK_BYTES
NUM_ROUND_KEYS = 11
SCHEDULE_BYTES = BLOCK_BYTES * NUM_ROUND_KEYS

ZERO_BLOCK = bytes(BLOCK_BYTES)
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# Rijndael S-box (forward only; decryption is out of scope).
SBOX = bytes([
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
])

# Round constants for the key-expansion word recurrence (first word of each).
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


# ---------------------------------------------------------------------------
# Block / state / schedule plumbing
# ---------------------------------------------------------------------------

def block_from_hex(text: str) -> bytes:
    """Parse exactly 32 hex digits (surrounding whitespace aside) into a 16-byte block."""
    text = text.strip()
    if len(text) != 2 * BLOCK_BYTES:
        raise ValueError(f"block hex must be {2 * BLOCK_BYTES} chars, got {len(text)}")
    # bytes.fromhex alone would skip inner whitespace and return a short block.
    if not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"invalid block hex: {text!r}")
    return bytes.fromhex(text)


def block_to_hex(block: bytes) -> str:
    """Encode a 16-byte block as 32 lowercase hex chars, byte 0 first."""
    check_block(block)
    return block.hex()


def check_block(block: bytes) -> bytes:
    if not isinstance(block, (bytes, bytearray)) or len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be {BLOCK_BYTES} bytes")
    return bytes(block)


def check_register(register: bytes) -> bytes:
    if not isinstance(register, (bytes, bytearray)) or not register or len(register) % BLOCK_BYTES:
        raise ValueError(f"register must be a positive multiple of {BLOCK_BYTES} bytes")
    return bytes(register)


def block_to_state(block: bytes) -> list:
    """Map a block to the 4x4 state: byte 4c+r lands at state[r][c]."""
    check_block(block)
    return [[block[4 * c + r] for c in range(4)] for r in range(4)]


def state_to_block(state: list) -> bytes:
    """Inverse of :func:`block_to_state`."""
    return bytes(state[r][c] for c in range(4) for r in range(4))


def schedule_to_flat(keys: list) -> bytes:
    """Join the 11 round keys into 176 flat bytes; kept for the tests, unused by ``simulate``."""
    if len(keys) != NUM_ROUND_KEYS:
        raise ValueError(f"schedule must hold {NUM_ROUND_KEYS} round keys")
    return b"".join(check_block(k) for k in keys)


def flat_to_schedule(flat: bytes) -> list:
    """Split 176 flat bytes into the 11 round keys; kept for the tests, unused by ``simulate``."""
    if len(flat) != SCHEDULE_BYTES:
        raise ValueError(f"flat schedule must be {SCHEDULE_BYTES} bytes, got {len(flat)}")
    return [bytes(flat[16 * i:16 * i + 16]) for i in range(NUM_ROUND_KEYS)]


# ---------------------------------------------------------------------------
# Round transformations
# ---------------------------------------------------------------------------

def sub_byte(b: int) -> int:
    """S-box substitution of a single byte."""
    return SBOX[b]


def sub_bytes(state: list) -> list:
    """Apply the S-box to all 16 state bytes."""
    return [[SBOX[b] for b in row] for row in state]


def shift_rows(state: list) -> list:
    """Rotate row r left by r positions: out[r][c] = in[r][(c + r) % 4]."""
    return [[state[r][(c + r) % 4] for c in range(4)] for r in range(4)]


def mul_by_2(b: int) -> int:
    """GF(2^8) multiply by 2: shift left, XOR 0x1b if the old MSB was set."""
    shifted = (b << 1) & 0xFF
    return shifted ^ 0x1B if b & 0x80 else shifted


def mul_by_3(b: int) -> int:
    """GF(2^8) multiply by 3: mul_by_2(b) XOR b."""
    return mul_by_2(b) ^ b


def mix_columns(state: list) -> list:
    """Mix each column with the (2, 3, 1, 1) circulant over GF(2^8)."""
    out = [[0] * 4 for _ in range(4)]
    for c in range(4):
        s0, s1, s2, s3 = state[0][c], state[1][c], state[2][c], state[3][c]
        out[0][c] = mul_by_2(s0) ^ mul_by_3(s1) ^ s2 ^ s3
        out[1][c] = s0 ^ mul_by_2(s1) ^ mul_by_3(s2) ^ s3
        out[2][c] = s0 ^ s1 ^ mul_by_2(s2) ^ mul_by_3(s3)
        out[3][c] = mul_by_3(s0) ^ s1 ^ s2 ^ mul_by_2(s3)
    return out


# The datapath's masks as one lane in hex, column words 0..3 from the left;
# _masks repeats them over a register. A ShiftRows rotation by j columns
# moves the bytes in columns >= j up j words (32j bits) and the rest down
# 4 - j words; masking before the shift keeps every byte in its lane.
_LANE_MASKS = dict(
    # MixColumns: byte fields of every column word
    hi24="ffffff00" * 4, lo8="000000ff" * 4, hi16="ffff0000" * 4, lo16="0000ffff" * 4,
    low7="7f7f7f7f" * 4, lsb="01010101" * 4,
    # ShiftRows: first rows 2-3 rotate by two columns, then rows 1 and 3 by one
    rows01="ffff0000" * 4,
    up2="00000000" * 2 + "0000ffff" * 2, down2="0000ffff" * 2 + "00000000" * 2,
    rows02="ff00ff00" * 4,
    up1="00000000" + "00ff00ff" * 3, down1="00ff00ff" + "00000000" * 3,
    # Key expansion: columns 1-3, columns 2-3, the lane's first byte
    cols123="00000000" + "ffffffff" * 3, cols23="00000000" * 2 + "ffffffff" * 2,
    lane_msb="01" + "00" * 15,
)
_Masks = namedtuple("_Masks", _LANE_MASKS)


@lru_cache(maxsize=8)
def _masks(nbytes: int) -> _Masks:
    """The lane masks repeated over an ``nbytes``-byte register, as big-endian ints."""
    lanes = nbytes // BLOCK_BYTES
    return _Masks._make(int.from_bytes(bytes.fromhex(lane) * lanes, "big")
                        for lane in _LANE_MASKS.values())


class RoundKey(bytes):
    """A round-key register from :func:`expand_keys`, equal to its plain ``bytes``.

    A job's round-key registers serve every block, so each carries its
    big-endian int as ``value``: the pure-Python :func:`expand_keys` sets the
    int it computed, and a ``RoundKey`` made from bytes alone, as the compiled
    one makes them, converts on first use.
    """

    @cached_property
    def value(self) -> int:
        return int.from_bytes(self, "big")


def _round_key(register: bytes, value: int) -> RoundKey:
    key = RoundKey(register)
    key.value = value
    return key


def _check_lanes(register: bytes, round_key: bytes) -> None:
    """Refuse a register of partial lanes or a round key of another width, as the compiled
    round does."""
    if len(register) % BLOCK_BYTES or len(round_key) != len(register):
        raise ValueError("register must be whole 16-byte lanes and round_key as long")


def block_round(register: bytes, round_key: bytes, final: bool = False) -> bytes:
    """One AES round on every lane of a register; the final round skips MixColumns.

    ``register`` and ``round_key`` hold one block-form state or round key
    per 16-byte lane, so a register of N lanes runs N blocks at once; other
    widths raise ValueError on either datapath.
    SubBytes is one ``translate``. ShiftRows is two masked rotations by
    whole words: rows 2-3 by two columns, then rows 1 and 3 by one.
    MixColumns mixes every column at once on the big-endian int: with
    ``rot8``/``rot16`` rotating every column word left by one/two bytes,
    ``pair = x ^ rot8(x)`` and the column XOR ``s_0 ^ s_1 ^ s_2 ^ s_3`` is
    ``pair ^ rot16(pair)``, so row r of a column becomes
    ``2(s_r ^ s_r+1) ^ s_r ^ (s_0 ^ s_1 ^ s_2 ^ s_3)`` (Daemen & Rijmen,
    *The Design of Rijndael*, 2002, section 4.1). A :class:`RoundKey` brings
    its int; any other bytes-like round key is converted on each call.
    The compiled datapath, when it loaded, runs the round instead.
    """
    if _datapath is not None:
        return _datapath.block_round(register, round_key, SBOX, final)
    _check_lanes(register, round_key)
    hi24, lo8, hi16, lo16, low7, lsb, rows01, up2, down2, rows02, up1, down1, _, _, _ = \
        _masks(len(register))
    x = int.from_bytes(register.translate(SBOX), "big")
    x = (x & rows01) | ((x & up2) << 64) | ((x & down2) >> 64)
    x = (x & rows02) | ((x & up1) << 32) | ((x & down1) >> 96)
    if not final:
        pair = x ^ ((x << 8) & hi24) ^ ((x >> 24) & lo8)  # x ^ rot8(x)
        column = pair ^ ((pair << 16) & hi16) ^ ((pair >> 16) & lo16)  # XOR of the column
        x ^= ((pair & low7) << 1) ^ ((pair >> 7) & lsb) * 0x1B ^ column  # xtime(pair)
    key = round_key.value if type(round_key) is RoundKey else int.from_bytes(round_key, "big")
    return (x ^ key).to_bytes(len(register), "big")


def xor_blocks(a: bytes, b: bytes) -> bytes:
    """AddRoundKey in block form: the bytewise XOR of two equally long registers of whole
    16-byte lanes; other widths raise ValueError.

    A :class:`RoundKey` as ``b`` brings its int, as in :func:`block_round`.
    """
    _check_lanes(a, b)
    key = b.value if type(b) is RoundKey else int.from_bytes(b, "big")
    return (int.from_bytes(a, "big") ^ key).to_bytes(len(a), "big")


def add_round_key(state: list, round_key: bytes) -> list:
    """XOR the state with a round key (key mapped column-major like blocks)."""
    check_block(round_key)
    return [[state[r][c] ^ round_key[4 * c + r] for c in range(4)] for r in range(4)]


def expand_keys(keys: bytes) -> list:
    """Expand cipher keys side by side into 11 :class:`RoundKey` registers.

    ``keys`` is one 16-byte key per lane; lane u of round-key register i is
    round key i of key u. The word recurrence runs on all lanes at once:
    each round XORs SubWord and RotWord of the lane's last word and the
    round constant into its first word, then every column word with all
    the words before it in its lane, which carries that term into all four.
    Each round's RotWord(SubWord(w3)) term comes from the previous round
    key, which the schedule holds: four strided slices of it, bytes 13, 14,
    15 and 12 of every lane, each go through the S-box by one ``translate``
    into bytes 0-3 of their lane in a ``bytearray`` that is zero elsewhere.
    The compiled datapath, when it loaded, expands the keys instead.
    """
    keys = check_register(keys)
    if _datapath is not None:
        # Each plain register is freed as its RoundKey copy is made, so the
        # next copy reuses its memory rather than fresh pages.
        registers = _datapath.expand_keys(keys, bytes(RCON), SBOX)[::-1]
        return [RoundKey(registers.pop()) for _ in range(len(registers))]
    n = len(keys)
    m = _masks(n)
    k = int.from_bytes(keys, "big")
    schedule = [_round_key(keys, k)]
    term = bytearray(n)  # RotWord(SubWord(w3)) in column 0 of every lane
    for rcon in RCON:
        last = schedule[-1]
        term[0::16] = last[13::16].translate(SBOX)
        term[1::16] = last[14::16].translate(SBOX)
        term[2::16] = last[15::16].translate(SBOX)
        term[3::16] = last[12::16].translate(SBOX)
        k ^= int.from_bytes(term, "big") ^ m.lane_msb * rcon
        k ^= (k >> 32) & m.cols123
        k ^= (k >> 64) & m.cols23
        schedule.append(_round_key(k.to_bytes(n, "big"), k))
    return schedule


def expand_key(key: bytes) -> list:
    """Expand one 128-bit cipher key into the 11 round keys."""
    return expand_keys(check_block(key))


def reference_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Straight-line AES-128 encryption composed from the primitives above.

    This is the combinational composition oracle: initial key addition,
    nine full rounds, one final round without mix_columns. The FSM core
    must agree with it bit-for-bit.
    """
    keys = expand_key(key)
    state = add_round_key(block_to_state(plaintext), keys[0])
    for rnd in range(1, 10):
        state = add_round_key(mix_columns(shift_rows(sub_bytes(state))), keys[rnd])
    state = add_round_key(shift_rows(sub_bytes(state)), keys[10])
    return state_to_block(state)


# ---------------------------------------------------------------------------
# The compiled datapath
# ---------------------------------------------------------------------------

def _build_datapath(source: str, path: str) -> None:
    """Compile ``source`` into the extension module ``path`` with the interpreter's own linker.

    The compiler writes a name of this process's own, which then replaces
    ``path``, so interpreters building at once each load a whole module. It
    is started by ``posix_spawnp``, as ``subprocess`` would load ``locale``,
    with its output sent to ``/dev/null``. Raises ``OSError`` if it fails.
    """
    import sysconfig

    ldshared, include = sysconfig.get_config_vars("LDSHARED", "INCLUDEPY")
    if not (ldshared and include and hasattr(os, "posix_spawnp")):
        raise OSError("no C compiler is configured")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    partial = f"{path}.{os.getpid()}.tmp"
    argv = [*ldshared.split(), "-O2", "-fPIC", "-I", include, source, "-o", partial]
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    try:
        pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=quiet)
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
            raise OSError(f"{argv[0]} could not build {source}")
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _load_datapath():
    """The compiled datapath ``spime._datapath``, or None where it cannot be built or loaded.

    It is built once into ``__pycache__`` beside this file, named by the
    CRC-32 of ``_datapath.c`` and the interpreter's extension suffix, so an
    edited source or another interpreter gets a build of its own. Without
    the source, a compiler or a writable directory, the pure-Python
    datapath runs, with the same bytes.
    """
    here = os.path.dirname(__file__)
    source = os.path.join(here, "_datapath.c")
    try:
        with open(source, "rb") as fh:
            crc = zlib.crc32(fh.read())
        path = os.path.join(here, "__pycache__",
                            f"_datapath.{crc:08x}{importlib.machinery.EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(path):
            _build_datapath(source, path)
        spec = importlib.util.spec_from_file_location("spime._datapath", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError):
        return None
    sys.modules[spec.name] = module
    return module


_datapath = _load_datapath()


# ---------------------------------------------------------------------------
# Packet-gated SubBytes front end
# ---------------------------------------------------------------------------

SUB_BYTES_PACKET_TYPE = 2


class SubBytesPacket:
    """Synchronous packet filter in front of the substitution stage.

    Holds one 128-bit latch. A valid packet of type 2 is captured and
    flagged valid for that cycle; any other input leaves the latch at its
    previous value with the valid flag low. Reset clears the latch to zero.
    Kept for the tests; ``simulate`` does not use it.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.temp_data = ZERO_BLOCK
        self.output_valid = False

    def step(self, input_valid: bool, packet_type: int, input_data: bytes):
        """Advance one clock cycle; returns (output_valid, output_data)."""
        check_block(input_data)
        if input_valid and packet_type == SUB_BYTES_PACKET_TYPE:
            self.temp_data = bytes(input_data)
            self.output_valid = True
        else:
            self.output_valid = False
        return self.output_valid, self.temp_data
