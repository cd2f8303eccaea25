"""Analytical-model tests: equations, calibration anchors, sweeps, catalog."""

import csv
import io
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spime.aes_core import encrypt_block
from spime.cli import GRID_FLAGS
from spime.perf import (
    AGGREGATE,
    BUILTIN_CATALOG,
    DEFAULT_CYCLES_PER_TASK,
    PER_UNIT,
    CSV_HEADER,
    DeviceSpec,
    PerfQuery,
    SweepError,
    catalog_path,
    evaluate,
    figure_grid,
    latency_us,
    load_device_catalog,
    sweep,
    sweep_csv_rows,
    sweep_grid,
    throughput_gbps,
    utilization_pct,
)


# ---------------------------------------------------------------------------
# single-task latency
# ---------------------------------------------------------------------------

def test_latency_published_operating_points():
    assert latency_us(11, 100) == 0.11
    assert latency_us(11, 500) == 0.022
    assert abs(latency_us(11, 300) - 0.036) < 1e-3


def test_latency_inverse_in_fmax():
    assert latency_us(11, 200) == pytest.approx(latency_us(11, 100) / 2)


def test_latency_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        latency_us(11, 0)
    with pytest.raises(ValueError):
        latency_us(11, -100)
    with pytest.raises(ValueError):
        latency_us(0, 100)


@pytest.mark.parametrize("fmax", [float("nan"), float("inf")])
def test_latency_rejects_nonfinite_fmax(fmax):
    with pytest.raises(ValueError, match="fmax_mhz"):
        latency_us(11, fmax)


def test_latency_independent_of_unit_count(catalog):
    device = catalog["U55C"]
    latencies = {
        evaluate(PerfQuery(num_pims=n, fmax_mhz=250.0), device).latency_us
        for n in (256, 1024, 4096)
    }
    assert len(latencies) == 1


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------

def test_throughput_single_block_point():
    assert throughput_gbps(128, 0.11) == pytest.approx(0.0011636363, rel=1e-6)


def test_throughput_is_linear_in_bits():
    rng = random.Random(0x7B)
    base = throughput_gbps(1024, 0.5)
    for _ in range(50):
        k = rng.randrange(1, 1000)
        assert throughput_gbps(k * 1024, 0.5) == pytest.approx(k * base)


def test_throughput_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        throughput_gbps(128, 0)
    with pytest.raises(ValueError):
        throughput_gbps(0, 0.1)


def test_aggregate_throughput_reproduces_peak_point(catalog):
    res = evaluate(
        PerfQuery(num_pims=4096, fmax_mhz=500.0, block_bits=1024), catalog["U55C"]
    )
    assert res.throughput_gbps > 23
    assert res.throughput_gbps == pytest.approx(23.83, rel=0.01)


def test_per_unit_throughput_grows_with_block_size(catalog):
    device = catalog["U55C"]
    values = [
        evaluate(
            PerfQuery(num_pims=4096, fmax_mhz=500.0, block_bits=bits),
            device,
            interpretation=PER_UNIT,
        ).throughput_gbps
        for bits in (1024, 4096, 16384, 65536)
    ]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_aggregate_throughput_independent_of_block_size(catalog):
    # serial per-unit blocks: batch bits and batch latency scale together
    device = catalog["U55C"]
    values = {
        evaluate(PerfQuery(num_pims=4096, fmax_mhz=500.0, block_bits=bits), device).throughput_gbps
        for bits in (1024, 65536)
    }
    assert len(values) == 1


# ---------------------------------------------------------------------------
# utilization calibration
# ---------------------------------------------------------------------------

def test_lut_anchor_points_exact(catalog):
    assert utilization_pct(catalog["U55C"], 4096, "LUT") == 3.65
    assert utilization_pct(catalog["ZCU104"], 4096, "LUT") == 18.44
    assert utilization_pct(catalog["U280"], 4096, "LUT") == 3.65
    assert utilization_pct(catalog["VCU118"], 4096, "LUT") == 3.65
    assert utilization_pct(catalog["ZCU106"], 4096, "LUT") == 18.44


def test_utilization_scales_linearly(catalog):
    device = catalog["U55C"]
    assert utilization_pct(device, 2048, "LUT") == 1.825
    rng = random.Random(0x11)
    unit_cost = utilization_pct(device, 1, "LUT")
    for _ in range(100):
        n = rng.randrange(1, 10000)
        assert utilization_pct(device, n, "LUT") == pytest.approx(n * unit_cost)


def test_ff_utilization_stays_within_published_bounds(catalog):
    for name in ("U55C", "U280", "VCU118"):
        assert utilization_pct(catalog[name], 4096, "FF") <= 2.0
    for name in ("ZCU104", "ZCU106"):
        assert utilization_pct(catalog[name], 4096, "FF") <= 10.0


def test_unknown_resource_rejected(catalog):
    with pytest.raises(ValueError):
        utilization_pct(catalog["U55C"], 4096, "BRAM")


def test_calibrated_costs_positive(catalog):
    for spec in catalog.values():
        assert spec.per_pim_lut_cost > 0
        assert spec.per_pim_ff_cost > 0


def test_device_validation_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        DeviceSpec(name="X", part="p", luts=0, ffs=1, bram=1, uram=1, dsps=1)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_builtin_catalog_matches_published_table(catalog):
    assert list(catalog) == ["U55C", "U280", "VCU118", "ZCU104", "ZCU106"]
    assert catalog["U55C"].part == "xcu55c-fsvh2892-2L-e"
    assert catalog["U55C"].luts == 1_304_000
    assert catalog["U55C"].ffs == 2_607_000
    assert catalog["U55C"].bram == 2016
    assert catalog["U55C"].uram == 960
    assert catalog["U55C"].dsps == 9024
    assert catalog["ZCU104"].luts == 230_000
    assert catalog["VCU118"].part == "xcvu9p-flga2104-2L-e"


def test_env_var_overrides_catalog(tmp_path, monkeypatch):
    path = tmp_path / "custom.csv"
    path.write_text(
        "name,part,luts,ffs,bram,uram,dsps\n"
        "BIG,custom-part,2000000,4000000,100,10,50\n"
    )
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    catalog = load_device_catalog()
    assert list(catalog) == ["BIG"]
    # large part falls into the datacenter calibration family
    assert utilization_pct(catalog["BIG"], 4096, "LUT") == 3.65


def test_catalog_path_is_the_variable_when_set_else_the_packaged_table(tmp_path, monkeypatch):
    monkeypatch.delenv("SPIME_DEVICE_CATALOG", raising=False)
    assert catalog_path() == BUILTIN_CATALOG
    assert list(load_device_catalog()) == ["U55C", "U280", "VCU118", "ZCU104", "ZCU106"]
    assert load_device_catalog() == load_device_catalog(BUILTIN_CATALOG)
    for value in (str(tmp_path / "custom.csv"), ""):
        monkeypatch.setenv("SPIME_DEVICE_CATALOG", value)
        assert catalog_path() == value


@pytest.mark.parametrize(
    "part_field, part",
    [
        ("custom\x0cpart", "custom\x0cpart"),
        ("custom\x85part", "custom\x85part"),
        ("custom\x1cpart", "custom\x1cpart"),
        ('"custom\u2028part"', "custom\u2028part"),
        ('"custom\u2029part"', "custom\u2029part"),
    ],
    ids=["form-feed", "next-line", "file-separator", "quoted-line-separator",
         "quoted-paragraph-separator"],
)
def test_catalog_lines_end_only_at_newlines(tmp_path, part_field, part):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "name,part,luts,ffs,bram,uram,dsps\n"
        f"BIG,{part_field},2000000,4000000,100,10,50\n",
        encoding="utf-8",
    )
    catalog = load_device_catalog(str(path))
    assert list(catalog) == ["BIG"]
    assert catalog["BIG"].part == part


def test_family_follows_the_lut_count_not_the_name(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "name,part,luts,ffs,bram,uram,dsps\n"
        "ZCU104,custom-part,2000000,4000000,100,10,50\n"
    )
    device = load_device_catalog(str(path))["ZCU104"]
    assert device.family == "datacenter"
    assert utilization_pct(device, 4096, "LUT") == 3.65


@pytest.mark.parametrize(
    "luts, family, lut_pct",
    [(999_999, "embedded", 18.44), (1_000_000, "datacenter", 3.65)],
)
def test_family_boundary_is_one_million_luts(luts, family, lut_pct):
    spec = DeviceSpec(name="X", part="p", luts=luts, ffs=1, bram=1, uram=1, dsps=1)
    assert spec.family == family
    assert utilization_pct(spec, 4096, "LUT") == pytest.approx(lut_pct)
    with pytest.raises(TypeError):
        DeviceSpec(name="X", part="p", luts=luts, ffs=1, bram=1, uram=1, dsps=1, family=family)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_preserves_query_order(catalog):
    device = catalog["U55C"]
    pairs = [
        (PerfQuery(num_pims=n, fmax_mhz=f), device)
        for n in (256, 512)
        for f in (100.0, 500.0)
    ]
    results = sweep(pairs)
    assert [r.latency_us for r in results] == [0.11, 0.022, 0.11, 0.022]


def test_sweep_error_carries_query_index(catalog):
    device = catalog["U55C"]
    good = (PerfQuery(num_pims=256, fmax_mhz=100.0), device)
    broken = (SimpleNamespace(num_pims=256, fmax_mhz=0.0, block_bits=1024, cycles_per_task=11), device)
    with pytest.raises(SweepError) as excinfo:
        sweep([good, broken])
    assert excinfo.value.index == 1
    assert "query 1" in str(excinfo.value)


def test_sweep_rejects_unknown_interpretation(catalog):
    pairs = [(PerfQuery(num_pims=256, fmax_mhz=100.0), catalog["U55C"])]
    with pytest.raises(SweepError):
        sweep(pairs, interpretation="bogus")


def test_csv_rows_round_trip(catalog):
    pairs, interp = figure_grid(6, catalog)
    rows = sweep_csv_rows(pairs, interp)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[0] == CSV_HEADER
    assert len(parsed) == len(rows) + 1
    assert all(len(row) == len(CSV_HEADER) for row in parsed)


# Positive counts from small to far beyond what a float holds.
_EXTREME_INT = st.one_of(st.integers(1, 2**64), st.integers(10**300, 10**420))


@settings(max_examples=200, deadline=None)
@given(
    num_pims=_EXTREME_INT,
    fmax=st.floats(min_value=0.0, max_value=1.7e308, exclude_min=True),
    chunks=_EXTREME_INT,
    cycles=_EXTREME_INT,
    interpretation=st.sampled_from([AGGREGATE, PER_UNIT]),
    device=st.sampled_from(["U55C", "ZCU104"]),
)
def test_evaluate_is_finite_or_refuses(catalog, num_pims, fmax, chunks, cycles, interpretation,
                                       device):
    query = PerfQuery(num_pims=num_pims, fmax_mhz=fmax, block_bits=128 * chunks,
                      cycles_per_task=cycles)
    try:
        result = evaluate(query, catalog[device], interpretation)
    except ValueError:
        return
    assert all(math.isfinite(getattr(result, f)) for f in CSV_HEADER[4:])


def test_device_with_a_non_finite_unit_cost_is_refused(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(f"name,part,luts,ffs,bram,uram,dsps\nBIG,p,9{'0' * 307},1000,1,1,1\n")
    with pytest.raises(ValueError, match="line 2: resource counts too large for the model"):
        load_device_catalog(str(path))


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_figure3_contains_published_anchor_row(catalog):
    pairs, interp = figure_grid(3, catalog)
    rows = sweep_csv_rows(pairs, interp)
    anchors = [r for r in rows if r[0] == "U55C" and r[1] == 4096]
    assert anchors and anchors[0][6] == 3.65
    zcu = [r for r in rows if r[0] == "ZCU104" and r[1] == 4096]
    assert zcu and zcu[0][6] == 18.44


def test_figure5_latency_independent_of_unit_count(catalog):
    pairs, interp = figure_grid(5, catalog)
    rows = sweep_csv_rows(pairs, interp)
    by_fmax = {}
    for row in rows:
        by_fmax.setdefault(row[2], set()).add(row[4])
    assert set(by_fmax) == {100.0, 200.0, 300.0, 400.0, 500.0}
    for latencies in by_fmax.values():
        assert len(latencies) == 1
    assert by_fmax[100.0] == {0.11}
    assert by_fmax[300.0] == {0.0367}
    assert by_fmax[500.0] == {0.022}


def test_figure6_throughput_linear_in_unit_count(catalog):
    pairs, interp = figure_grid(6, catalog)
    assert interp == AGGREGATE
    rows = [r for r in sweep_csv_rows(pairs, interp) if r[2] == 500.0]
    by_n = {r[1]: r[5] for r in rows}
    assert by_n[2048] == pytest.approx(2 * by_n[1024], rel=1e-3)
    assert by_n[4096] == pytest.approx(4 * by_n[1024], rel=1e-3)
    assert by_n[4096] == pytest.approx(23.83, rel=0.01)


def test_figure7_throughput_nondecreasing_in_block_size(catalog):
    pairs, interp = figure_grid(7, catalog)
    assert interp == PER_UNIT
    rows = sweep_csv_rows(pairs, interp)
    by_fmax = {}
    for row in rows:
        by_fmax.setdefault(row[2], []).append((row[3], row[5]))
    for series in by_fmax.values():
        ordered = [thr for _, thr in sorted(series)]
        assert ordered == sorted(ordered)


def test_unknown_figure_rejected(catalog):
    with pytest.raises(ValueError):
        figure_grid(8, catalog)


def test_sweep_grid_takes_the_cli_grid_flags_by_name(catalog):
    unset = {name: None for name in GRID_FLAGS}
    assert list(sweep_grid(catalog, **unset)) == list(sweep_grid(catalog))


@pytest.mark.parametrize("figure", [None, 3, 4, 5, 6, 7])
def test_empty_catalog_is_refused_when_the_grid_is_built(figure):
    with pytest.raises(ValueError, match="device catalog is empty"):
        sweep_grid({}) if figure is None else figure_grid(figure, {})


# ---------------------------------------------------------------------------
# cross-validation against the cycle-accurate core
# ---------------------------------------------------------------------------

def test_analytical_cycle_count_matches_simulator():
    rng = random.Random(0xCC)
    for _ in range(25):
        _, cycles = encrypt_block(rng.randbytes(16), rng.randbytes(16))
        assert cycles == DEFAULT_CYCLES_PER_TASK


def test_per_pim_costs_are_derived_not_set():
    spec = DeviceSpec(name="X", part="p", luts=2_000_000, ffs=4_000_000, bram=1, uram=1, dsps=1)
    assert spec.per_pim_lut_cost == pytest.approx(2_000_000 * 3.65 / 100 / 4096)
    assert spec.per_pim_ff_cost == pytest.approx(4_000_000 * 2.0 / 100 / 4096)
    with pytest.raises(TypeError):
        DeviceSpec(name="X", part="p", luts=1, ffs=1, bram=1, uram=1, dsps=1, per_pim_lut_cost=1.0)


def test_malformed_catalog_csv_is_a_value_error(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("name,part,luts,ffs,bram,uram,dsps\n" + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        load_device_catalog(str(path))
