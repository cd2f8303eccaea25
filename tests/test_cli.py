"""End-to-end tests of the spime command-line interface."""

import csv
import hashlib
import io
import pathlib
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spime.perf
from spime.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from spime.controller import UNIT_CYCLES_PER_BLOCK
from spime.primitives import reference_encrypt

from oracles import FIPS_C1_CIPHERTEXT, aes128_ecb
from helpers import C1_KEY_HEX, C1_PT_HEX, write_job


# ---------------------------------------------------------------------------
# encrypt
# ---------------------------------------------------------------------------

def test_encrypt_prints_fips_vector(capsys):
    assert main(["encrypt", C1_KEY_HEX, C1_PT_HEX]) == EXIT_OK
    assert capsys.readouterr().out.strip() == FIPS_C1_CIPHERTEXT.hex()


def test_encrypt_is_deterministic(capsys):
    main(["encrypt", C1_KEY_HEX, C1_PT_HEX])
    first = capsys.readouterr().out
    main(["encrypt", C1_KEY_HEX, C1_PT_HEX])
    assert capsys.readouterr().out == first


def test_encrypt_rejects_short_hex(capsys):
    assert main(["encrypt", C1_KEY_HEX[:31], C1_PT_HEX]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_encrypt_rejects_missing_operands(capsys):
    assert main(["encrypt", C1_KEY_HEX]) == EXIT_USAGE
    capsys.readouterr()


def test_encrypt_rejects_operands_and_input_together(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text(f"{C1_KEY_HEX} {C1_PT_HEX}\n")
    assert main(["encrypt", C1_KEY_HEX, C1_PT_HEX, "--input", str(src)]) == EXIT_USAGE
    capsys.readouterr()


def test_encrypt_verify_passes(capsys):
    assert main(["encrypt", C1_KEY_HEX, C1_PT_HEX, "--verify"]) == EXIT_OK
    capsys.readouterr()


def test_encrypt_verify_detects_mismatch(monkeypatch, capsys):
    monkeypatch.setattr("spime.cli.reference_encrypt", lambda k, p: bytes(16))
    assert main(["encrypt", C1_KEY_HEX, C1_PT_HEX, "--verify"]) == EXIT_VERIFY
    assert "disagrees" in capsys.readouterr().err


def test_encrypt_from_input_file(tmp_path, capsys):
    rng = random.Random(0xC11)
    pairs = [(rng.randbytes(16), rng.randbytes(16)) for _ in range(3)]
    src = tmp_path / "blocks.txt"
    src.write_text("\n".join(f"{k.hex()} {p.hex()}" for k, p in pairs) + "\n")
    out = tmp_path / "ct.txt"
    assert main(["encrypt", "--input", str(src), "--output", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines == [aes128_ecb(k, p).hex() for k, p in pairs]


def test_encrypt_missing_input_file(capsys):
    assert main(["encrypt", "--input", "/nonexistent/blocks.txt"]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize(
    "bad_line",
    [
        "zz" * 16 + " " + C1_PT_HEX,  # bad key hex
        C1_KEY_HEX,  # missing plaintext column
        f"{C1_KEY_HEX} {C1_PT_HEX},{C1_PT_HEX}",  # two blocks on one line
    ],
)
def test_encrypt_input_bad_line_names_line_number(tmp_path, capsys, bad_line):
    src = tmp_path / "blocks.txt"
    src.write_text(f"# demo\n{C1_KEY_HEX} {C1_PT_HEX}\n{bad_line}\n")
    assert main(["encrypt", "--input", str(src)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3" in captured.err


def test_encrypt_empty_input_file(tmp_path, capsys):
    src = tmp_path / "blocks.txt"
    src.write_text("# nothing here\n\n")
    assert main(["encrypt", "--input", str(src)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_verified_results_and_report(tmp_path, capsys):
    rng = random.Random(0x51)
    job_path = tmp_path / "job.txt"
    keys, inputs = write_job(job_path, rng, num_pims=3, blocks_per_unit=2)
    out_path = tmp_path / "result.txt"
    assert (
        main(
            [
                "simulate",
                "--job", str(job_path),
                "--num-pims", "3",
                "--output", str(out_path),
            ]
        )
        == EXIT_OK
    )
    report = capsys.readouterr().out
    assert f"total_cycles={2 * UNIT_CYCLES_PER_BLOCK}" in report
    assert f"per_block_cycles={UNIT_CYCLES_PER_BLOCK}" in report

    for line, key, blocks in zip(out_path.read_text().splitlines(), keys, inputs):
        key_hex, ct_field = line.split()
        assert key_hex == key.hex()
        assert ct_field.split(",") == [aes128_ecb(key, b).hex() for b in blocks]


def test_simulate_num_pims_mismatch(tmp_path, capsys):
    rng = random.Random(0x52)
    job_path = tmp_path / "job.txt"
    write_job(job_path, rng, num_pims=2, blocks_per_unit=1)
    assert main(["simulate", "--job", str(job_path), "--num-pims", "8"]) == EXIT_USAGE
    capsys.readouterr()


def test_simulate_num_pims_beyond_the_address_space_is_refused_before_the_array_is_built(
        tmp_path, capsys):
    # 10**15 units would need 16 PB of registers: the count is compared with
    # the job before any register is allocated.
    job_path = tmp_path / "job.txt"
    write_job(job_path, random.Random(0x5A), num_pims=1, blocks_per_unit=1)
    num_pims = str(10**15)
    assert main(["simulate", "--job", str(job_path), "--num-pims", num_pims]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--num-pims {num_pims} but the job holds 1 units" in captured.err


def test_simulate_reports_bad_line_number(tmp_path, capsys):
    job_path = tmp_path / "job.txt"
    job_path.write_text("00" * 16 + " " + "11" * 16 + "\n" + "not a job line\n")
    assert main(["simulate", "--job", str(job_path)]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


def test_simulate_missing_job_file(capsys):
    assert main(["simulate", "--job", "/nonexistent/job.txt"]) == EXIT_IO
    capsys.readouterr()


def test_simulate_equal_cycles_across_array_sizes(tmp_path, capsys):
    rng = random.Random(0x53)
    reports = []
    for num_pims in (8, 64):
        job_path = tmp_path / f"job{num_pims}.txt"
        write_job(job_path, rng, num_pims=num_pims, blocks_per_unit=2)
        out_path = tmp_path / f"out{num_pims}.txt"
        assert (
            main(["simulate", "--job", str(job_path), "--output", str(out_path)])
            == EXIT_OK
        )
        out = capsys.readouterr().out
        reports.append([f for f in out.split() if f.startswith("total_cycles=")][0])
    assert reports[0] == reports[1]


def test_simulate_trace_csv(tmp_path, capsys):
    rng = random.Random(0x54)
    job_path = tmp_path / "job.txt"
    write_job(job_path, rng, num_pims=2, blocks_per_unit=1)
    trace_path = tmp_path / "trace.csv"
    out_path = tmp_path / "out.txt"
    assert (
        main(
            [
                "simulate",
                "--job", str(job_path),
                "--output", str(out_path),
                "--trace", str(trace_path),
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(trace_path.read_text())))
    assert rows[0] == ["unit", "cycle", "ctrl_state", "aes_start", "core_state", "round", "aes_done", "done"]
    assert len(rows) == 1 + 2 * UNIT_CYCLES_PER_BLOCK


def _peak_traced_bytes(argv):
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_trace_memory_does_not_grow_with_units(tmp_path, capsys):
    # 512 units x 2 blocks = 15,360 trace rows; storing them costs megabytes.
    job_path = tmp_path / "job.txt"
    write_job(job_path, random.Random(0x55), num_pims=512, blocks_per_unit=2)
    argv = ["simulate", "--job", str(job_path), "--output", str(tmp_path / "out.txt")]
    trace_argv = argv + ["--trace", str(tmp_path / "trace.csv")]
    assert main(trace_argv) == EXIT_OK  # warm-up: lazy imports and caches
    plain = _peak_traced_bytes(argv)
    traced = _peak_traced_bytes(trace_argv)
    capsys.readouterr()
    assert traced - plain <= 256 * 1024


def test_simulate_trace_memory_holds_one_cycle_at_4096_units(tmp_path, capsys):
    # 4096 units x 1 block: a 1.7 MiB trace, about 120 KiB per cycle.
    job_path = tmp_path / "job.txt"
    write_job(job_path, random.Random(0x57), num_pims=4096, blocks_per_unit=1)
    argv = ["simulate", "--job", str(job_path), "--output", str(tmp_path / "out.txt")]
    trace_argv = argv + ["--trace", str(tmp_path / "trace.csv")]
    assert main(trace_argv) == EXIT_OK  # warm-up: lazy imports and caches
    plain = _peak_traced_bytes(argv)
    traced = _peak_traced_bytes(trace_argv)
    capsys.readouterr()
    assert traced - plain <= 512 * 1024


def test_simulate_reports_success_only_after_the_trace_is_written(tmp_path, capsys):
    job_path = tmp_path / "job.txt"
    write_job(job_path, random.Random(0x56), num_pims=1, blocks_per_unit=1)
    argv = ["simulate", "--job", str(job_path), "--output", str(tmp_path / "r.out"),
            "--trace", str(tmp_path)]  # a directory: the trace cannot be opened
    assert main(argv) == EXIT_IO
    assert "num_pims=" not in capsys.readouterr().out


# The trace holds only control signals, so its bytes depend only on the
# array shape (units, blocks per unit); CI and the benchmark pin the same digests.
_GOLDEN_TRACE_SHA256 = {
    (4, 2): "a70bcfadd007603e2a45018ab19e09cc5ceef0e8078e2bfc9ff28a5d7f71d458",
    (1024, 4): "ca360e04c59dade347e6b8dfc3f89bdced7b2d0b84290f3be1c82ecf3cbdf5df",
}


@pytest.mark.parametrize("shape", list(_GOLDEN_TRACE_SHA256), ids=["4x2", "1024x4"])
def test_simulate_trace_matches_its_golden_digest(tmp_path, capsys, shape):
    num_pims, blocks_per_unit = shape
    job_path = tmp_path / "c1.job"
    job_path.write_text(f"{C1_KEY_HEX} {','.join([C1_PT_HEX] * blocks_per_unit)}\n" * num_pims)
    trace_path = tmp_path / "trace.csv"
    argv = ["simulate", "--job", str(job_path), "--output", str(tmp_path / "out.txt"),
            "--trace", str(trace_path)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == _GOLDEN_TRACE_SHA256[shape]


@pytest.mark.parametrize("spelling", ["identical", "dot-alias"])
def test_simulate_refuses_output_and_trace_on_one_file(tmp_path, capsys, spelling):
    job_path = tmp_path / "job.txt"
    write_job(job_path, random.Random(0x57), num_pims=2, blocks_per_unit=1)
    target = tmp_path / "same"
    trace = str(target) if spelling == "identical" else f"{tmp_path}/./same"
    argv = ["simulate", "--job", str(job_path), "--output", str(target), "--trace", trace]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--output and --trace name the same file" in captured.err
    assert captured.out == ""
    assert not target.exists()


_CLASHES = {
    "job-output": (["simulate", "--job", "{job}", "--output", "{job}"], "job",
                   "--job and --output name the same file"),
    "job-trace": (["simulate", "--job", "{job}", "--trace", "{job}"], "job",
                  "--job and --trace name the same file"),
    "job-dot-alias": (["simulate", "--job", "{job}", "--output", "{dir}/./job.txt"], "job",
                      "--job and --output name the same file"),
    "encrypt-input-output": (["encrypt", "--input", "{job}", "--output", "{job}"], "job",
                             "--input and --output name the same file"),
    "catalog-output": (["sweep", "--output", "{catalog}"], "catalog",
                       "SPIME_DEVICE_CATALOG and --output name the same file"),
}


@pytest.mark.parametrize("case", list(_CLASHES))
def test_no_command_writes_over_one_of_its_own_files(tmp_path, monkeypatch, capsys, case):
    paths = {"dir": tmp_path, "job": tmp_path / "job.txt", "catalog": tmp_path / "catalog.csv"}
    write_job(paths["job"], random.Random(0x58), num_pims=2, blocks_per_unit=1)
    paths["catalog"].write_text(_CATALOG_HEADER + _CATALOG_ROW)
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(paths["catalog"]))
    template, victim, needle = _CLASHES[case]
    before = paths[victim].read_bytes()
    assert main([arg.format(**paths) for arg in template]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""
    assert paths[victim].read_bytes() == before


def test_sweep_does_not_write_over_the_built_in_catalog(tmp_path, monkeypatch, capsys):
    # A copy stands in for the packaged table, which is never written here.
    packaged = pathlib.Path(spime.perf.__file__).parent / "data" / "devices.csv"
    copy = tmp_path / "devices.csv"
    copy.write_bytes(packaged.read_bytes())
    monkeypatch.setattr(spime.perf, "BUILTIN_CATALOG", str(copy), raising=False)
    monkeypatch.delenv("SPIME_DEVICE_CATALOG", raising=False)
    assert main(["sweep", "--figure", "3", "--output", str(copy)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "the built-in device catalog and --output name the same file" in captured.err
    assert captured.out == ""
    assert copy.read_bytes() == packaged.read_bytes()


@pytest.mark.parametrize("args", [["--figure", "3"], ["--device", "U55C"]], ids=["figure", "grid"])
def test_sweep_reads_the_catalog_path_it_checked_once(monkeypatch, capsys, args):
    monkeypatch.delenv("SPIME_DEVICE_CATALOG", raising=False)
    with mock.patch.object(spime.perf, "catalog_path", wraps=spime.perf.catalog_path) as looked_up:
        assert main(["sweep", *args]) == EXIT_OK
    assert looked_up.call_count == 1
    assert capsys.readouterr().out.startswith("device,num_pims,")


def test_a_corrupt_built_in_catalog_names_its_path(tmp_path, monkeypatch, capsys):
    copy = tmp_path / "devices.csv"
    copy.write_text(_CATALOG_HEADER + _CATALOG_ROW + _CATALOG_ROW)
    monkeypatch.setattr(spime.perf, "BUILTIN_CATALOG", str(copy), raising=False)
    monkeypatch.delenv("SPIME_DEVICE_CATALOG", raising=False)
    assert main(["devices"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{copy} line 3: duplicate device name 'BIG'" in captured.err
    assert captured.out == ""


_HARD_LINK_CLASHES = {
    "job-output": (["simulate", "--job", "{job}", "--output", "{link}"],
                   "--job and --output name the same file"),
    "job-trace": (["simulate", "--job", "{job}", "--trace", "{link}"],
                  "--job and --trace name the same file"),
    "encrypt-input-output": (["encrypt", "--input", "{job}", "--output", "{link}"],
                             "--input and --output name the same file"),
}


@pytest.mark.parametrize("case", list(_HARD_LINK_CLASHES))
def test_a_hard_link_to_an_input_is_not_written_over(tmp_path, capsys, case):
    paths = {"job": tmp_path / "job.txt", "link": tmp_path / "link.txt"}
    write_job(paths["job"], random.Random(0x59), num_pims=2, blocks_per_unit=1)
    paths["link"].hardlink_to(paths["job"])
    before = paths["job"].read_bytes()
    template, needle = _HARD_LINK_CLASHES[case]
    assert main([arg.format(**paths) for arg in template]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""
    assert paths["job"].read_bytes() == before


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_rows(capsys, args):
    assert main(args) == EXIT_OK
    return list(csv.reader(io.StringIO(capsys.readouterr().out)))


def test_sweep_figure3_has_anchor_rows(capsys):
    rows = _sweep_rows(capsys, ["sweep", "--figure", "3"])
    assert rows[0][0] == "device"
    assert ["U55C", "4096"] == rows_by(rows, "U55C", "4096")[0][:2]
    assert rows_by(rows, "U55C", "4096")[0][6] == "3.65"
    assert rows_by(rows, "ZCU104", "4096")[0][6] == "18.44"


def rows_by(rows, device, num_pims):
    return [r for r in rows[1:] if r[0] == device and r[1] == num_pims]


def test_sweep_figure5_shows_published_latencies(capsys):
    rows = _sweep_rows(capsys, ["sweep", "--figure", "5"])
    latencies = {row[2]: row[4] for row in rows[1:]}
    assert latencies["100.0"] == "0.11"
    assert latencies["300.0"] == "0.0367"
    assert latencies["500.0"] == "0.022"


def test_sweep_figure6_peak_row(capsys):
    rows = _sweep_rows(capsys, ["sweep", "--figure", "6"])
    peak = [r for r in rows[1:] if r[1] == "4096" and r[2] == "500.0"]
    assert peak and float(peak[0][5]) == pytest.approx(23.83, rel=0.01)


def test_sweep_custom_grid_order_and_schema(capsys):
    rows = _sweep_rows(
        capsys,
        [
            "sweep",
            "--device", "U55C", "ZCU104",
            "--num-pims", "256", "512",
            "--fmax-mhz", "100", "500",
            "--block-bits", "1024",
        ],
    )
    assert rows[0] == [
        "device", "num_pims", "fmax_mhz", "block_bits",
        "latency_us", "throughput_gbps", "lut_util_pct", "ff_util_pct",
    ]
    assert [r[0] for r in rows[1:]] == ["U55C"] * 4 + ["ZCU104"] * 4
    assert [r[1] for r in rows[1:]] == ["256", "256", "512", "512"] * 2


def test_sweep_unknown_device(capsys):
    assert main(["sweep", "--device", "NOPE"]) == EXIT_USAGE
    capsys.readouterr()


def test_sweep_per_unit_flag_changes_interpretation(capsys):
    agg = _sweep_rows(capsys, ["sweep", "--device", "U55C", "--num-pims", "4096",
                               "--fmax-mhz", "500", "--block-bits", "1024"])
    per = _sweep_rows(capsys, ["sweep", "--device", "U55C", "--num-pims", "4096",
                               "--fmax-mhz", "500", "--block-bits", "1024", "--per-unit"])
    assert float(agg[1][5]) == pytest.approx(23.83, rel=0.01)
    assert float(per[1][5]) == pytest.approx(1024 / 0.022 / 1e6, rel=1e-3)


def test_sweep_output_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--figure", "6", "--output", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "device"


@pytest.mark.parametrize("figure", [3, 4, 5, 6, 7])
def test_figure_presets_match_golden_csvs(figure, capsys):
    golden = pathlib.Path(__file__).parent / "data" / f"figure{figure}.csv"
    assert main(["sweep", "--figure", str(figure)]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--fmax-mhz", "nan", "fmax_mhz"),
        ("--fmax-mhz", "inf", "fmax_mhz"),
        ("--block-bits", "100", "block_bits"),
    ],
    ids=["nan", "inf", "block-bits-100"],
)
def test_sweep_rejects_values_the_model_cannot_mean(tmp_path, capsys, flag, value, field):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--device", "U55C", flag, value, "--output", str(out)]) == EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--num-pims", "1" + "0" * 400),
        ("--block-bits", "1" + "0" * 330),
        ("--cycles-per-task", "1" + "0" * 400),
        ("--fmax-mhz", "1e-320"),
        ("--fmax-mhz", "1e308"),
    ],
    ids=["num-pims-401-digits", "block-bits-331-digits", "cycles-401-digits",
         "fmax-subnormal", "fmax-1e308"],
)
def test_sweep_rejects_values_the_model_cannot_evaluate(tmp_path, capsys, flag, value):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--device", "U55C", flag, value, "--output", str(out)]) == EXIT_USAGE
    assert "query 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "value, named", [("1e-320", "query 1"), ("nan", "fmax_mhz")], ids=["fmax-subnormal", "nan"]
)
def test_sweep_refusal_after_a_good_point_writes_nothing(tmp_path, capsys, value, named):
    argv = ["sweep", "--device", "U55C", "--fmax-mhz", "100", value]
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--output", str(out)]) == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag, field", [("--num-pims", "num_pims"), ("--cycles-per-task", "cycles_per_task")]
)
def test_sweep_rejects_a_zero_count(tmp_path, capsys, flag, field):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--device", "U55C", flag, "0", "--output", str(out)]) == EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_sweep_memory_holds_only_the_rows(tmp_path, capsys):
    # 2 devices x 100 unit counts x 100 clocks = 20,000 rows.
    argv = ["sweep", "--device", "U55C", "ZCU104",
            "--num-pims", *map(str, range(1, 101)),
            "--fmax-mhz", *map(str, range(100, 200)),
            "--output", str(tmp_path / "sweep.csv")]
    assert main(argv) == EXIT_OK  # warm-up: lazy imports and caches
    assert _peak_traced_bytes(argv) < 8 * 1024 * 1024


def _sweep_bytes(capsys, argv):
    assert main(["sweep", *argv]) == EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "figure, grid",
    [
        (3, ["--fmax-mhz", "100"]),
        (4, ["--fmax-mhz", "100"]),
        (7, ["--device", "U55C", "--num-pims", "4096",
             "--block-bits", "1024", "4096", "16384", "65536", "--per-unit"]),
    ],
)
def test_figure_preset_is_an_explicit_sweep(capsys, figure, grid):
    assert _sweep_bytes(capsys, ["--figure", str(figure)]) == _sweep_bytes(capsys, grid)


@pytest.mark.parametrize(
    "figure, grid",
    [
        (5, ["--device", "U55C", "--fmax-mhz", "100", "200", "300", "400", "500"]),
        (6, ["--device", "U55C", "--num-pims", "1024", "2048", "3072", "4096"]),
    ],
)
def test_figure_preset_is_an_explicit_sweep_clock_major(capsys, figure, grid):
    preset = _sweep_bytes(capsys, ["--figure", str(figure)]).splitlines()
    explicit = _sweep_bytes(capsys, grid).splitlines()
    clock = lambda line: float(line.split(",")[2])
    assert preset[0] == explicit[0]
    assert preset[1:] == sorted(explicit[1:], key=clock)


def test_sweep_rejects_bad_figure():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--figure", "9"])
    assert excinfo.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------

def test_devices_lists_full_catalog(capsys):
    assert main(["devices"]) == EXIT_OK
    out = capsys.readouterr().out
    data_rows = [l for l in out.splitlines() if l and not l.startswith(("Device", "-"))]
    assert len(data_rows) == 5
    assert "xcu55c-fsvh2892-2L-e" in out
    assert "230K" in out
    for name in ("U55C", "U280", "VCU118", "ZCU104", "ZCU106"):
        assert name in out


def test_devices_prints_each_part_family(capsys):
    assert main(["devices"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert {row.split()[0]: row.split()[-1] for row in rows} == {
        "U55C": "datacenter", "U280": "datacenter", "VCU118": "datacenter",
        "ZCU104": "embedded", "ZCU106": "embedded",
    }


_CATALOG_HEADER = "name,part,luts,ffs,bram,uram,dsps\n"
_CATALOG_ROW = "BIG,custom-part,2000000,4000000,100,10,50\n"


@pytest.mark.parametrize("argv", [["devices"], ["sweep", "--figure", "6"]])
@pytest.mark.parametrize(
    "text, needle",
    [
        (_CATALOG_HEADER + _CATALOG_ROW + _CATALOG_ROW, "line 3: duplicate device name 'BIG'"),
        ("name,part,luts,bram,uram,dsps\nBIG,custom-part,2000000,100,10,50\n",
         "line 2: missing column(s) ffs"),
        (_CATALOG_HEADER + _CATALOG_ROW + "SMALL,p,1.5e5,4000,10,10,10\n",
         "line 3: luts must be an integer"),
    ],
    ids=["duplicate-name", "missing-column", "non-integer-count"],
)
def test_bad_catalog_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, text, needle):
    path = tmp_path / "catalog.csv"
    path.write_text(text)
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["devices"], ["sweep", "--figure", "6"]])
def test_unreadable_catalog_is_an_io_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(tmp_path / "missing.csv"))
    assert main(argv) == EXIT_IO
    assert "device catalog" in capsys.readouterr().err


def test_catalog_count_too_large_for_a_float_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "catalog.csv"
    path.write_text(_CATALOG_HEADER + f"BIG,custom-part,{'9' * 400},4000000,100,10,50\n")
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    assert main(["devices"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "line 2: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["devices"], ["sweep", "--device", "BIG"]])
def test_catalog_count_with_a_non_finite_unit_cost_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "catalog.csv"
    path.write_text(_CATALOG_HEADER + f"BIG,custom-part,9{'0' * 307},4000000,100,10,50\n")
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "line 2: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["devices"], ["sweep", "--device", "ZERO"]])
def test_catalog_count_that_is_not_positive_names_its_line(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "catalog.csv"
    path.write_text(_CATALOG_HEADER + "ZERO,custom-part,0,4000000,100,10,50\n")
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "line 2: ZERO: luts must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("figure", [None, 3, 4, 5, 6, 7])
def test_empty_catalog_refuses_every_sweep(tmp_path, monkeypatch, capsys, figure):
    path = tmp_path / "catalog.csv"
    path.write_text(_CATALOG_HEADER)
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    out = tmp_path / "sweep.csv"
    preset = [] if figure is None else ["--figure", str(figure)]
    assert main(["sweep", *preset, "--output", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "device catalog is empty" in captured.err
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# global CLI behavior
# ---------------------------------------------------------------------------

def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["devices", "--bogus"])
    assert excinfo.value.code == EXIT_USAGE


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# error paths: undecodable files, spaced hex, --figure with grid flags
# ---------------------------------------------------------------------------

_NOT_UTF8 = b"\xff\xfe caf\xe9 " + C1_KEY_HEX.encode() + b"\n"


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--job"], ["encrypt", "--input"]],
    ids=["simulate-job", "encrypt-input"],
)
def test_undecodable_input_file_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(_NOT_UTF8)
    assert main(argv + [str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--job"], ["encrypt", "--input"]],
    ids=["simulate-job", "encrypt-input"],
)
def test_input_file_with_a_byte_order_mark_gives_the_same_result(tmp_path, capsys, argv):
    plain = tmp_path / "plain.txt"
    write_job(plain, random.Random(0x58), num_pims=3, blocks_per_unit=1)
    marked = tmp_path / "marked.txt"
    marked.write_bytes(_BOM + plain.read_bytes())
    results = []
    for path in (plain, marked):
        out_path = tmp_path / f"{path.stem}.out"
        assert main(argv + [str(path), "--output", str(out_path)]) == EXIT_OK
        results.append(out_path.read_bytes())
    capsys.readouterr()
    assert results[0] == results[1]


@pytest.mark.parametrize("argv", [["devices"], ["sweep", "--device", "BIG"]])
def test_catalog_with_a_byte_order_mark_loads(tmp_path, monkeypatch, capsys, argv):
    plain = tmp_path / "plain.csv"
    plain.write_text(_CATALOG_HEADER + _CATALOG_ROW)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(_BOM + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
        assert main(argv) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert "BIG" in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--job"], ["encrypt", "--input"], ["devices"]],
    ids=["simulate-job", "encrypt-input", "catalog"],
)
def test_byte_order_mark_before_undecodable_bytes_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(_BOM + _NOT_UTF8)
    if argv == ["devices"]:
        monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    else:
        argv = argv + [str(path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--job"], ["encrypt", "--input"]],
    ids=["simulate-job", "encrypt-input"],
)
def test_a_form_feed_in_a_comment_does_not_shift_line_numbers(tmp_path, capsys, argv):
    path = tmp_path / "job.txt"
    path.write_text(f"# note\x0c# more\n{C1_KEY_HEX} {C1_PT_HEX}\n{C1_KEY_HEX} zz\n")
    assert main(argv + [str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: line 3: " in captured.err


def test_encrypt_rejects_spaced_hex_operand(capsys):
    spaced = "00 11 2233445566778899aabbccddee"  # 32 chars, only 15 bytes
    assert main(["encrypt", spaced, C1_PT_HEX]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid block hex" in captured.err


@pytest.mark.parametrize(
    "flag, values",
    [
        ("--num-pims", ["7"]),
        ("--fmax-mhz", ["250"]),
        ("--block-bits", ["2048"]),
        ("--device", ["U55C"]),
        ("--cycles-per-task", ["15"]),
    ],
)
def test_sweep_figure_rejects_grid_flags(tmp_path, capsys, flag, values):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--figure", "6", flag, *values, "--output", str(out)]) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_sweep_figure_accepts_per_unit(capsys):
    rows = _sweep_rows(capsys, ["sweep", "--figure", "6", "--per-unit"])
    assert float(rows[-1][5]) == pytest.approx(1024 / 0.022 / 1e6, rel=1e-3)


# ---------------------------------------------------------------------------
# property: any bytes in an input file give exit 0 or 2, never a traceback
# ---------------------------------------------------------------------------

def _file_bytes(lines, pieces):
    """Arbitrary bytes, whole valid lines, or text spliced from lines and pieces."""
    def text(parts):
        return st.lists(st.sampled_from(parts), max_size=24).map(lambda p: "".join(p).encode())
    return st.one_of(st.binary(max_size=300), text(lines), text(lines + pieces))


_JOB_LINES = [f"{C1_KEY_HEX} {C1_PT_HEX}\n", f"{C1_KEY_HEX} {C1_PT_HEX},{C1_PT_HEX}\n", "# c\n"]
_JOB_PIECES = [C1_KEY_HEX, C1_PT_HEX, C1_PT_HEX[:30], " ", "\t", ",", "\n", "\r\n", "#",
               "zz", "0", " 00 11", "\x00", "\x85", "\u3000", "é"]
_CATALOG_LINES = [_CATALOG_HEADER, _CATALOG_ROW, "ZCU1,p,1000,2000,1,1,1\n"]
_CATALOG_PIECES = [",", "\n", '"', "name", "-1", "0", "1e3", "BIG", "\x00", "é", "\r"]
_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_exit_0_or_2(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_USAGE), captured.err
    if code == EXIT_USAGE:
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@_PROPERTY
@given(data=_file_bytes(_JOB_LINES, _JOB_PIECES))
def test_any_job_file_exits_0_or_2(tmp_path, capsys, data):
    path = tmp_path / "job.txt"
    path.write_bytes(data)
    _assert_exit_0_or_2(capsys, ["simulate", "--job", str(path)])


@_PROPERTY
@given(data=_file_bytes(_JOB_LINES, _JOB_PIECES))
def test_any_encrypt_input_file_exits_0_or_2(tmp_path, capsys, data):
    path = tmp_path / "blocks.txt"
    path.write_bytes(data)
    _assert_exit_0_or_2(capsys, ["encrypt", "--input", str(path)])


@_PROPERTY
@given(data=_file_bytes(_CATALOG_LINES, _CATALOG_PIECES))
def test_any_device_catalog_exits_0_or_2(tmp_path, monkeypatch, capsys, data):
    path = tmp_path / "catalog.csv"
    path.write_bytes(data)
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    _assert_exit_0_or_2(capsys, ["devices"])


# ---------------------------------------------------------------------------
# property: a line separator other than \n, \r\n or \r inside a comment
# changes nothing
# ---------------------------------------------------------------------------

# Characters that str.splitlines() treats as line ends; job files and catalogs
# end lines only at \n, \r\n and \r.
_UNICODE_SEPARATORS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@_PROPERTY
@given(
    argv=st.sampled_from([["simulate", "--job"], ["encrypt", "--input"]]),
    comments=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(st.sampled_from(_UNICODE_SEPARATORS + ["note", " ", "#", "more"]),
                     min_size=1, max_size=6).map("".join),
        ),
        max_size=4,
    ),
)
@example(argv=["simulate", "--job"], comments=[(1, " note \u2028 more")])
@example(argv=["encrypt", "--input"], comments=[(1, " note \u2028 more")])
def test_separators_in_comment_lines_do_not_change_the_result(tmp_path, capsys, argv, comments):
    plain = tmp_path / "plain.txt"
    write_job(plain, random.Random(0x5B), num_pims=3, blocks_per_unit=1)
    lines = plain.read_text().splitlines(keepends=True)
    for position, text in reversed(comments):
        lines.insert(position, f"#{text}\n")
    commented = tmp_path / "commented.txt"
    commented.write_text("".join(lines), encoding="utf-8")
    results = []
    for path in (plain, commented):
        out_path = tmp_path / f"{path.stem}.out"
        assert main(argv + [str(path), "--output", str(out_path)]) == EXIT_OK, capsys.readouterr()
        results.append(out_path.read_bytes())
    capsys.readouterr()
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# a file that is not UTF-8 names the line of its first bad byte
# ---------------------------------------------------------------------------

_ENDINGS = pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])


@_ENDINGS
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--job"], ["encrypt", "--input"]],
    ids=["simulate-job", "encrypt-input"],
)
def test_undecodable_byte_deep_in_a_job_names_its_line(tmp_path, capsys, argv, ending):
    # 200 good lines (~13 KB) put the bad byte past the decoder's first chunk.
    good = f"{C1_KEY_HEX} {C1_PT_HEX}{ending}" * 200
    path = tmp_path / "job.txt"
    path.write_bytes(_BOM + good.encode() + b"# caf\xe9" + ending.encode() + good.encode())
    assert main(argv + [str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    offset = len(_BOM) + len(good) + len("# caf")
    assert captured.err == (f"error: {path}: line 201: byte 0xe9 at offset {offset} "
                            "is not UTF-8 (invalid continuation byte)\n")


@_ENDINGS
@pytest.mark.parametrize("argv", [["devices"], ["sweep", "--device", "BIG"]])
def test_undecodable_catalog_names_its_path_and_line(tmp_path, monkeypatch, capsys, argv,
                                                      ending):
    text = (_CATALOG_HEADER + _CATALOG_ROW).replace("\n", ending)
    path = tmp_path / "catalog.csv"
    path.write_bytes(text.encode() + b"caf\xff,p,1,1,1,1,1" + ending.encode())
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    offset = len(text) + len("caf")
    assert captured.err == (f"error: device catalog: {path} line 3: byte 0xff at offset {offset} "
                            "is not UTF-8 (invalid start byte)\n")
