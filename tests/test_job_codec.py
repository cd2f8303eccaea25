"""A job is read as plain UTF-8, so a plain run loads no ``utf-8-sig`` codec.

One leading byte-order mark is still dropped, as that codec would drop it.
Each run is a fresh interpreter, because this process may have loaded the
codec already.
"""

from oracles import FIPS_C1_CIPHERTEXT, FIPS_C1_KEY, FIPS_C1_PLAINTEXT
from helpers import newly_loaded

CODEC = "encodings.utf_8_sig"


def test_a_plain_simulate_skips_the_byte_order_mark_codec(tmp_path):
    text = f"{FIPS_C1_KEY.hex()} {FIPS_C1_PLAINTEXT.hex()}\n".encode()
    (tmp_path / "plain.job").write_bytes(text)
    (tmp_path / "marked.job").write_bytes(b"\xef\xbb\xbf" + text)
    results = []
    for name in ("plain", "marked"):
        argv = ["simulate", "--job", f"{name}.job", "--output", f"{name}.out"]
        loaded = newly_loaded(f"import spime.cli; assert spime.cli.main({argv!r}) == 0", tmp_path)
        assert "spime.array_sim" in loaded
        assert CODEC not in loaded
        results.append((tmp_path / f"{name}.out").read_text())
    assert results[0] == results[1] == f"{FIPS_C1_KEY.hex()} {FIPS_C1_CIPHERTEXT.hex()}\n"
