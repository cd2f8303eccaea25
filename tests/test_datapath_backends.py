"""The compiled datapath against the pure-Python one, in this process.

``primitives.block_round`` and ``primitives.expand_keys`` run the compiled
module ``spime._datapath`` when it loaded, and their pure-Python code when
``primitives._datapath`` is None; patching it to None reaches that code
here. Both must give the same bytes on any register, under any S-box or
round constants the module holds at the call, and whole jobs through either
must equal the ``cryptography`` package. Registers are compared as lists
of 16-byte lanes, so a failure names its first lane at once.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spime import primitives
from spime.array_sim import SpimeConfig, build_array
from spime.primitives import RCON, SBOX, RoundKey, block_round, expand_keys

from oracles import aes128_ecb
from helpers import random_job

_PROPERTY = settings(max_examples=60, deadline=None)
LANES = st.integers(1, 4096)
SEEDS = st.integers(0, 2**64)

# Sixteen lanes holding the bytes 0..255: SubBytes reads every S-box entry.
EVERY_BYTE = bytes(range(256))
# Sixty-four keys whose last words hold the bytes 0..255: SubWord reads every entry.
EVERY_LAST_WORD = b"".join(bytes(12) + bytes(range(4 * u, 4 * u + 4)) for u in range(64))


def _lanes(register):
    return [register[i:i + 16] for i in range(0, len(register), 16)]


def _pure(function, *args):
    """``function(*args)`` on the pure-Python datapath."""
    with mock.patch.object(primitives, "_datapath", None):
        return function(*args)


def _both(function, *args):
    """``function(*args)`` on the loaded datapath and on the pure-Python one."""
    return function(*args), _pure(function, *args)


def _schedule_lanes(schedule):
    return [_lanes(key) for key in schedule]


@_PROPERTY
@given(lanes=LANES, seed=SEEDS, final=st.booleans(),
       register_form=st.sampled_from([bytes, bytearray]),
       key_form=st.sampled_from([bytes, bytearray, RoundKey]))
@example(lanes=4096, seed=0, final=False, register_form=bytes, key_form=RoundKey)
def test_both_backends_give_one_round(lanes, seed, final, register_form, key_form):
    rng = random.Random(seed)
    register = register_form(rng.randbytes(16 * lanes))
    round_key = key_form(rng.randbytes(16 * lanes))
    compiled, pure = _both(block_round, register, round_key, final)
    assert type(compiled) is type(pure) is bytes
    assert _lanes(compiled) == _lanes(pure)


@_PROPERTY
@given(lanes=LANES, seed=SEEDS, form=st.sampled_from([bytes, bytearray]))
@example(lanes=4096, seed=0, form=bytes)
def test_both_backends_give_one_key_schedule(lanes, seed, form):
    keys = form(random.Random(seed).randbytes(16 * lanes))
    compiled, pure = _both(expand_keys, keys)
    assert _schedule_lanes(compiled) == _schedule_lanes(pure)
    for key in compiled:
        assert type(key) is RoundKey and key.value == int.from_bytes(key, "big")


@pytest.mark.parametrize("backend", ["loaded", "pure"])
@pytest.mark.parametrize("num_pims, blocks", [(1, 1), (7, 3), (256, 2)])
def test_a_seeded_job_on_each_backend_matches_cryptography(backend, num_pims, blocks):
    job = random_job(random.Random(num_pims * 100 + blocks), num_pims, blocks)
    run = build_array(SpimeConfig(num_pims, 128 * blocks)).run_job
    result = run(job) if backend == "loaded" else _pure(run, job)
    assert result.total_cycles == 15 * blocks
    assert result.outputs == [[aes128_ecb(key, block) for block in row]
                              for key, row in zip(job.keys, job.inputs)]


def test_every_one_entry_sbox_mutant_reaches_both_backends(monkeypatch):
    """One S-box, changed in place entry by entry: a table cache keyed on the object
    rather than its bytes would keep the tables of an earlier entry."""
    rng = random.Random(0x5B0)
    round_key = rng.randbytes(len(EVERY_BYTE))
    want = [block_round(EVERY_BYTE, round_key, final) for final in (False, True)]
    want_keys = expand_keys(EVERY_LAST_WORD)
    sbox = bytearray(SBOX)
    monkeypatch.setattr(primitives, "SBOX", sbox)
    for entry in range(256):
        sbox[entry] ^= 0x01
        for final in (False, True):
            compiled, pure = _both(block_round, EVERY_BYTE, round_key, final)
            assert _lanes(compiled) == _lanes(pure), (entry, final)
            assert compiled != want[final], (entry, final)
        compiled, pure = _both(expand_keys, EVERY_LAST_WORD)
        assert _schedule_lanes(compiled) == _schedule_lanes(pure), entry
        assert compiled != want_keys, entry
        sbox[entry] ^= 0x01
    assert [block_round(EVERY_BYTE, round_key, final) for final in (False, True)] == want


def test_a_round_constant_mutant_reaches_both_backends(monkeypatch):
    keys = random.Random(0x5C0).randbytes(16 * 5)
    want = expand_keys(keys)
    monkeypatch.setattr(primitives, "RCON", [*RCON[:4], RCON[4] ^ 0x01, *RCON[5:]])
    compiled, pure = _both(expand_keys, keys)
    assert _schedule_lanes(compiled) == _schedule_lanes(pure)
    assert compiled[:5] == want[:5] and all(a != b for a, b in zip(compiled[5:], want[5:]))


@pytest.mark.parametrize("register_bytes, key_bytes", [(20, 20), (32, 16), (32, 48)])
@pytest.mark.parametrize("key_form", [bytes, RoundKey])
def test_both_backends_refuse_part_lanes_and_a_key_of_another_width(
        register_bytes, key_bytes, key_form):
    # Non-zero bytes: a wider key of zeros would fit the register's int.
    rng = random.Random(f"widths:{register_bytes}:{key_bytes}")
    register = bytes(rng.randrange(1, 256) for _ in range(register_bytes))
    round_key = key_form(rng.randrange(1, 256) for _ in range(key_bytes))
    refusal = "^register must be whole 16-byte lanes and round_key as long$"
    for final in (False, True):
        with pytest.raises(ValueError, match=refusal):
            block_round(register, round_key, final)
        with pytest.raises(ValueError, match=refusal):
            _pure(block_round, register, round_key, final)
    with pytest.raises(ValueError, match=refusal):
        primitives.xor_blocks(register, round_key)


class _Falsehood:
    """A ``final`` that cannot be read as a truth value."""

    def __bool__(self):
        raise ZeroDivisionError("no truth value")


def _good_arguments(function):
    """Arguments the compiled ``function`` accepts, every buffer a ``bytearray``."""
    if function == "block_round":
        return [bytearray(32), bytearray(32), bytearray(SBOX), False]
    return [bytearray(32), bytearray(RCON), bytearray(SBOX)]


def _assert_released(arguments):
    """Each ``bytearray`` resizes, which raises BufferError while a view of it is held."""
    for argument in arguments:
        if type(argument) is bytearray:
            argument.append(0)
            argument.pop()


_COMPILED = pytest.mark.skipif(primitives._datapath is None,
                               reason="the compiled datapath did not load")
_LANES = "^register must be whole 16-byte lanes and round_key as long$"


@_COMPILED
@pytest.mark.parametrize("function, position, bad, error, refusal", [
    ("block_round", 0, None, TypeError, "^register must be bytes-like, not NoneType$"),
    ("block_round", 1, None, TypeError, "^round_key must be bytes-like, not NoneType$"),
    ("block_round", 2, None, TypeError, "^sbox must be bytes-like, not NoneType$"),
    ("block_round", 3, _Falsehood(), ZeroDivisionError, "^no truth value$"),
    ("block_round", 0, bytearray(40), ValueError, _LANES),
    ("block_round", 1, bytearray(48), ValueError, _LANES),
    ("block_round", 2, bytearray(255), ValueError, "^sbox must be 256 bytes$"),
    ("expand_keys", 0, None, TypeError, "^keys must be bytes-like, not NoneType$"),
    ("expand_keys", 1, None, TypeError, "^rcon must be bytes-like, not NoneType$"),
    ("expand_keys", 2, None, TypeError, "^sbox must be bytes-like, not NoneType$"),
    ("expand_keys", 0, bytearray(40), ValueError, "^keys must be whole 16-byte lanes$"),
    ("expand_keys", 1, bytearray(65), ValueError, "^rcon holds too many round constants$"),
    ("expand_keys", 2, bytearray(255), ValueError, "^sbox must be 256 bytes$"),
])
def test_a_refused_call_releases_every_argument(function, position, bad, error, refusal):
    arguments = _good_arguments(function)
    arguments[position] = bad
    with pytest.raises(error, match=refusal):
        getattr(primitives._datapath, function)(*arguments)
    _assert_released(arguments)


@_COMPILED
@pytest.mark.parametrize("function", ["block_round", "expand_keys"])
def test_an_accepted_call_releases_every_argument(function):
    arguments = _good_arguments(function)
    getattr(primitives._datapath, function)(*arguments)
    _assert_released(arguments)
