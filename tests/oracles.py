"""Independent reference implementations the tests check against.

Nothing here touches spime's own arithmetic: AES comes from the
`cryptography` package and the GF(2^8) products from a bit-serial
shift-and-reduce multiplier, so a shared bug with the package under
test is not possible.
"""

import functools

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

# FIPS-197 single-block test vectors (Appendix B and Appendix C.1).
FIPS_B_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_B_PLAINTEXT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
FIPS_B_CIPHERTEXT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
FIPS_B_ROUND0 = bytes.fromhex("193de3bea0f4e22b9ac68d2ae9f84808")
FIPS_B_ROUND_KEY_10 = bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")

FIPS_C1_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_C1_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_C1_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
FIPS_C1_ROUND_KEY_10 = bytes.fromhex("13111d7fe3944a17f307a78b4d2b30c5")


def aes128_ecb(key: bytes, plaintext: bytes) -> bytes:
    """Single-block AES-128 via the cryptography package."""
    encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return encryptor.update(plaintext) + encryptor.finalize()


def gf_mul(a: int, b: int) -> int:
    """Brute-force GF(2^8) product modulo the AES polynomial."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return result


_MIX_MATRIX = [
    [2, 3, 1, 1],
    [1, 2, 3, 1],
    [1, 1, 2, 3],
    [3, 1, 1, 2],
]


def mix_columns_oracle(state):
    """Column mixing as an explicit GF(2^8) matrix product."""
    out = [[0] * 4 for _ in range(4)]
    for c in range(4):
        for r in range(4):
            acc = 0
            for k in range(4):
                acc ^= gf_mul(_MIX_MATRIX[r][k], state[k][c])
            out[r][c] = acc
    return out


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8) by exhaustive search (0 maps to 0)."""
    return next((b for b in range(1, 256) if gf_mul(a, b) == 1), 0)


def _sbox_entry(a: int) -> int:
    b = _gf_inverse(a)
    out = 0x63
    for shift in range(5):
        out ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
    return out


@functools.lru_cache(maxsize=None)
def sbox_oracle() -> tuple:
    """The AES S-box from its definition: GF(2^8) inverse, then the affine map."""
    return tuple(_sbox_entry(a) for a in range(256))


def expand_key_oracle(key: bytes) -> list:
    """AES-128 key expansion as the FIPS-197 word recurrence on lists of bytes.

    The S-box and the round constants are computed here from their
    definitions, so nothing is shared with spime's tables.
    """
    sbox = sbox_oracle()
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        prev = words[i - 1]
        if i % 4 == 0:
            prev = [sbox[b] for b in prev[1:] + prev[:1]]
            prev[0] ^= rcon
            rcon = gf_mul(rcon, 2)
        words.append([a ^ b for a, b in zip(words[i - 4], prev)])
    return [bytes(b for w in words[4 * k:4 * k + 4] for b in w) for k in range(11)]
