"""`spime encrypt` runs its operands as one job on the lockstep array.

The command builds one :class:`SpimeJob` (the ``--input`` file, or a 1x1
job from ``KEY PLAINTEXT``) and runs it through the same array as
``simulate``; ``--verify`` then checks every ciphertext in input order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spime.cli
from spime import aes_core, array_sim
from spime.cli import EXIT_OK, EXIT_VERIFY, main
from spime.perf import load_device_catalog, utilization_pct
from spime.primitives import reference_encrypt

from oracles import aes128_ecb

BLOCK = st.binary(min_size=16, max_size=16)


def write_operands(path, keys, plaintexts):
    path.write_text("".join(f"{k.hex()} {p.hex()}\n" for k, p in zip(keys, plaintexts)))


def test_encrypt_runs_one_datapath_on_all_operands(tmp_path, monkeypatch, capsys):
    widths, runs = [], []

    def recording(fn):
        def wrapper(register, *args, **kwargs):
            widths.append(len(register))
            return fn(register, *args, **kwargs)
        return wrapper

    def counting(self, job):
        runs.append(len(job.keys))
        return run_job(self, job)

    run_job = array_sim.SpimeArraySim.run_job
    monkeypatch.setattr(array_sim.SpimeArraySim, "run_job", counting)
    monkeypatch.setattr(aes_core, "block_round", recording(aes_core.block_round))
    monkeypatch.setattr(aes_core, "xor_blocks", recording(aes_core.xor_blocks))
    keys = [bytes([u]) * 16 for u in range(3)]
    plaintexts = [bytes([u, 7]) * 8 for u in range(3)]
    src = tmp_path / "ops.txt"
    write_operands(src, keys, plaintexts)

    assert main(["encrypt", "--input", str(src)]) == EXIT_OK
    assert widths == [48] * 11  # 11 datapath operations, all 3 lanes at once
    assert runs == [3]  # one job holds every operand
    want = [aes128_ecb(k, p).hex() for k, p in zip(keys, plaintexts)]
    assert capsys.readouterr().out.splitlines() == want


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), count=st.integers(1, 40))
def test_encrypt_matches_simulate_and_aes(tmp_path, capsys, data, count):
    pool = data.draw(st.lists(BLOCK, min_size=1, max_size=count))
    keys = data.draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    plaintexts = data.draw(st.lists(BLOCK, min_size=count, max_size=count))
    src = tmp_path / "ops.txt"
    write_operands(src, keys, plaintexts)
    capsys.readouterr()

    assert main(["encrypt", "--input", str(src)]) == EXIT_OK
    encrypted = capsys.readouterr().out
    assert main(["simulate", "--job", str(src)]) == EXIT_OK
    simulated = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert encrypted.splitlines() == simulated
    assert simulated == [aes128_ecb(k, p).hex() for k, p in zip(keys, plaintexts)]
    assert main(["encrypt", "--input", str(src), "--verify"]) == EXIT_OK
    assert capsys.readouterr().out == encrypted


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_encrypt_verify_stops_at_the_disagreeing_operand(tmp_path, monkeypatch, capsys, bad):
    keys = [bytes([u]) * 16 for u in range(3)]
    plaintexts = [bytes([0x10 + u]) * 16 for u in range(3)]
    checked = []

    def oracle(key, plaintext):
        checked.append(plaintext)
        return bytes(16) if plaintext == plaintexts[bad] else reference_encrypt(key, plaintext)

    monkeypatch.setattr(spime.cli, "reference_encrypt", oracle)
    src, out = tmp_path / "ops.txt", tmp_path / "ct.txt"
    write_operands(src, keys, plaintexts)

    assert main(["encrypt", "--input", str(src), "--verify", "--output", str(out)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.err == (f"error: {plaintexts[bad].hex()}: FSM ciphertext disagrees with "
                            "the composition oracle\n")
    assert captured.out == ""
    assert not out.exists()
    assert checked == plaintexts[:bad + 1]  # input order, stopping at the first mismatch


@pytest.mark.parametrize(("num_pims", "resource"), [(0, "LUT"), (-1, "FF")])
def test_utilization_refuses_a_non_positive_unit_count(num_pims, resource):
    device = load_device_catalog()["U55C"]
    with pytest.raises(ValueError, match="num_pims"):
        utilization_pct(device, num_pims, resource)
