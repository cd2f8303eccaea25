"""The device catalog is read as plain UTF-8, so ``sweep`` and ``devices`` load no
``utf-8-sig`` codec.

One leading byte-order mark is still dropped, as that codec would drop it, and
a lone partial mark is refused as it is in a job file. Each run is a fresh
interpreter, because this process may have loaded the codec already.
"""

import pytest

from spime.cli import main
from spime.perf import BUILTIN_CATALOG

from helpers import child_env, run_python

CODEC = "encodings.utf_8_sig"
BOM = b"\xef\xbb\xbf"
# Runs the command line after -c and prints, last, every module it loaded.
RUN_MAIN = ("import sys; before = set(sys.modules); import spime.cli; "
            "assert spime.cli.main(sys.argv[1:]) == 0; print(*sorted(set(sys.modules) - before))")


@pytest.mark.parametrize("argv", [["devices"], ["sweep", "--figure", "3", "--output", "out.csv"]],
                         ids=["devices", "sweep"])
def test_a_catalog_run_skips_the_byte_order_mark_codec(tmp_path, argv):
    with open(BUILTIN_CATALOG, "rb") as fh:
        text = fh.read()
    outputs = []
    for name, data in (("plain", text), ("marked", BOM + text)):
        (tmp_path / f"{name}.csv").write_bytes(data)
        proc = run_python("-c", RUN_MAIN, *argv, cwd=tmp_path,
                          env=child_env(SPIME_DEVICE_CATALOG=f"{name}.csv"))
        assert proc.returncode == 0, proc.stderr
        *lines, last = proc.stdout.splitlines(keepends=True)
        loaded = set(last.split())
        assert "spime.perf" in loaded
        assert CODEC not in loaded
        written = tmp_path / "out.csv"
        outputs.append("".join(lines).encode() + (written.read_bytes() if written.exists() else b""))
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"Device " if argv == ["devices"] else b"device,")


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["one-byte", "two-bytes"])
def test_a_lone_partial_mark_is_refused_as_in_a_job(tmp_path, monkeypatch, capsys, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    what = "byte 0xef at offset 0 is not UTF-8 (unexpected end of data)"
    assert main(["simulate", "--job", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: line 1: {what}\n")
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    assert main(["devices"]) == 2
    assert capsys.readouterr() == ("", f"error: device catalog: {path} line 1: {what}\n")
