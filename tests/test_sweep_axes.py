"""Differential tests of the per-axis sweep against the one-point model.

``spime sweep`` renders its CSV from per-axis cells (``perf.sweep_csv_lines``).
The reference is the flat path: every (PerfQuery, DeviceSpec) pair of the grid
through ``evaluate`` (``sweep_csv_rows``), written by ``csv.writer``, or the
error ``iter_sweep`` raises.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spime import perf
from spime.cli import EXIT_OK, EXIT_USAGE, main
from spime.perf import (
    AGGREGATE,
    CSV_HEADER,
    PER_UNIT,
    PUBLISHED_FMAX_MHZ,
    PUBLISHED_NUM_PIMS,
    PerfQuery,
    SweepGrid,
    figure_grid,
    iter_sweep,
    load_device_catalog,
    sweep_csv_lines,
    sweep_csv_rows,
    sweep_grid,
)

from helpers import flat_csv

BUILT_IN_DEVICES = ["U55C", "U280", "VCU118", "ZCU104", "ZCU106"]


def _reference(catalog, axes, interpretation):
    """(exit code, stdout, stderr) of the flat path for one explicit grid.

    A refusal is the first error of one lazy walk, as the CLI has always met it.
    """
    try:
        grid = sweep_grid(catalog, **axes)
        for _ in iter_sweep(grid, interpretation):
            pass
    except ValueError as exc:
        return EXIT_USAGE, "", f"error: {exc}\n"
    return EXIT_OK, flat_csv(grid, interpretation), ""


def _argv(axes, per_unit):
    argv = ["sweep"]
    for name, values in axes.items():
        if values is not None:
            values = values if isinstance(values, list) else [values]
            argv += ["--" + name.replace("_", "-"), *map(str, values)]
    return argv + ["--per-unit"] if per_unit else argv


def _run(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# property: the CLI's sweep equals the flat path, rows or refusal
# ---------------------------------------------------------------------------

_COUNTS = st.one_of(
    st.integers(1, 8192),
    st.sampled_from([0, 10**399, 2**1023, 1 << 1030]),
    st.integers(10**300, 10**420),
)
_CLOCKS = st.one_of(
    st.floats(1.0, 1000.0),
    st.sampled_from([1e-320, 1e308, math.nan, 0.0, math.inf, 5e-324, 1.7e308, 100.0]),
    st.floats(min_value=0.0),
)
_BLOCKS = st.one_of(
    st.integers(1, 512).map(lambda k: 128 * k),
    st.integers(0, 70000),
    st.sampled_from([128 * 10**300, 128 * 10**310, 100]),
)
_CYCLES = st.one_of(st.none(), st.integers(1, 20), st.sampled_from([0, 10**399, 2**1000]))


def _axis(values):
    return st.one_of(st.none(), st.lists(values, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    device=st.one_of(st.none(), st.lists(st.sampled_from(BUILT_IN_DEVICES), min_size=1,
                                         max_size=3)),
    num_pims=_axis(_COUNTS),
    fmax_mhz=_axis(_CLOCKS),
    block_bits=_axis(_BLOCKS),
    cycles_per_task=_CYCLES,
    per_unit=st.booleans(),
)
@example(device=["U55C"], num_pims=None, fmax_mhz=[100.0, 1e-320], block_bits=None,
         cycles_per_task=None, per_unit=False)
@example(device=["U55C"], num_pims=[10**399], fmax_mhz=[1e308], block_bits=[100, 0],
         cycles_per_task=0, per_unit=True)
@example(device=["ZCU104", "U55C"], num_pims=[4096, 0], fmax_mhz=[math.nan], block_bits=None,
         cycles_per_task=15, per_unit=False)
def test_sweep_matches_the_flat_path(capsys, device, num_pims, fmax_mhz, block_bits,
                                     cycles_per_task, per_unit):
    axes = {"device": device, "num_pims": num_pims, "fmax_mhz": fmax_mhz,
            "block_bits": block_bits, "cycles_per_task": cycles_per_task}
    want = _reference(load_device_catalog(), axes, PER_UNIT if per_unit else AGGREGATE)
    assert _run(capsys, _argv(axes, per_unit)) == want


@pytest.mark.parametrize("figure", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("per_unit", [False, True])
def test_figure_lines_match_the_flat_path(figure, per_unit):
    grid, interpretation = figure_grid(figure, load_device_catalog())
    interpretation = PER_UNIT if per_unit else interpretation
    want = flat_csv(grid, interpretation)
    assert "".join(line + "\n" for line in sweep_csv_lines(grid, interpretation)) == want


# ---------------------------------------------------------------------------
# device names that csv.writer must quote
# ---------------------------------------------------------------------------

_QUOTED_CATALOG = (
    "name,part,luts,ffs,bram,uram,dsps\n"
    '"A,1",p,1303680,2607360,2016,960,9024\n'
    '"say ""hi""",p,504000,460800,312,96,1728\n'
    '"two\nlines",p,1182240,2364480,2160,960,6840\n'
    ",p,230400,460800,312,96,1728\n"
    "plain,p,230400,460800,312,96,1728\n"
)


@pytest.mark.parametrize("per_unit", [False, True])
def test_device_names_are_quoted_as_csv_writer_quotes_them(tmp_path, monkeypatch, capsys,
                                                           per_unit):
    path = tmp_path / "catalog.csv"
    path.write_text(_QUOTED_CATALOG, newline="")
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    catalog = load_device_catalog(str(path))
    assert list(catalog) == ["A,1", 'say "hi"', "two\nlines", "", "plain"]
    axes = {"num_pims": [256, 4096], "fmax_mhz": [100.0, 333.3], "block_bits": [128, 1024]}
    want = _reference(catalog, axes, PER_UNIT if per_unit else AGGREGATE)
    assert want[0] == EXIT_OK
    assert _run(capsys, _argv(axes, per_unit)) == want


# One part's unit cost is large only in LUTs, the other's only in FFs, so at
# 10**306 units exactly one of its two utilizations overflows to inf.
_LOPSIDED_CATALOG = (
    "name,part,luts,ffs,bram,uram,dsps\n"
    "LUTS,p,100000000,1000,1,1,1\n"
    "FFS,p,1000,100000000,1,1,1\n"
)


@pytest.mark.parametrize("device", ["LUTS", "FFS"])
@pytest.mark.parametrize("per_unit", [False, True])
def test_a_utilization_overflow_is_refused_as_the_flat_path_refuses(
        tmp_path, monkeypatch, capsys, device, per_unit):
    path = tmp_path / "catalog.csv"
    path.write_text(_LOPSIDED_CATALOG)
    monkeypatch.setenv("SPIME_DEVICE_CATALOG", str(path))
    axes = {"device": [device], "num_pims": [1, 10**306], "block_bits": [128]}
    want = _reference(load_device_catalog(str(path)), axes, PER_UNIT if per_unit else AGGREGATE)
    assert want[0] == EXIT_USAGE
    assert _run(capsys, _argv(axes, per_unit)) == want


# ---------------------------------------------------------------------------
# evaluate alone decides which points are refused
# ---------------------------------------------------------------------------

_REFUSED = {
    "one-clock": lambda query, device: query.fmax_mhz == 250.0,
    "one-device-and-unit-count":
        lambda query, device: (device.name, query.num_pims) == ("U55C", 4096),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_a_point_evaluate_refuses_is_refused_by_the_sweep(tmp_path, monkeypatch, capsys, case):
    refused, evaluate = _REFUSED[case], perf.evaluate

    def refusing_evaluate(query, device, interpretation=AGGREGATE):
        if refused(query, device):
            raise ValueError("refused by this model")
        return evaluate(query, device, interpretation)

    axes = {"device": ["ZCU104", "U55C"], "num_pims": [256, 4096], "fmax_mhz": [100.0, 250.0],
            "block_bits": [128, 1024]}
    grid = sweep_grid(load_device_catalog(), **axes)
    first = next(index for index, pair in enumerate(grid) if refused(*pair))
    assert first > 0
    monkeypatch.setattr(perf, "evaluate", refusing_evaluate)
    output = tmp_path / "sweep.csv"
    got = _run(capsys, _argv(axes, False) + ["--output", str(output)])
    assert got == (EXIT_USAGE, "", f"error: query {first}: refused by this model\n")
    assert not output.exists()


# ---------------------------------------------------------------------------
# the grid still iterates as flat (PerfQuery, DeviceSpec) pairs
# ---------------------------------------------------------------------------

def test_sweep_grid_iterates_as_flat_pairs():
    catalog = load_device_catalog()
    grid = sweep_grid(catalog, ["ZCU104", "U55C"], [1, 4096], [100.0, 250.0], [128, 1024], 15)
    assert isinstance(grid, SweepGrid)
    want = [
        (PerfQuery(num_pims=n, fmax_mhz=f, block_bits=b, cycles_per_task=15), catalog[name])
        for name in ("ZCU104", "U55C")
        for n in (1, 4096)
        for f in (100.0, 250.0)
        for b in (128, 1024)
    ]
    assert list(grid) == want
    assert list(grid) == want  # a grid is not used up by one walk


@pytest.mark.parametrize(
    "figure, clocks, units",
    [
        (5, [100.0, 200.0, 300.0, 400.0, 500.0], PUBLISHED_NUM_PIMS),
        (6, PUBLISHED_FMAX_MHZ, [1024, 2048, 3072, 4096]),
    ],
)
def test_clock_major_figures_are_their_single_clock_parts(figure, clocks, units):
    catalog = load_device_catalog()
    grid, interpretation = figure_grid(figure, catalog)
    assert interpretation == AGGREGATE
    assert len(grid.parts) == len(clocks)
    assert list(grid) == [
        (PerfQuery(num_pims=n, fmax_mhz=f, block_bits=1024), catalog["U55C"])
        for f in clocks
        for n in units
    ]


def test_a_part_with_an_empty_axis_has_no_rows():
    catalog = load_device_catalog()
    grid = SweepGrid(((tuple(catalog.values()), (4096,), (), (1024,)),
                      ((catalog["U55C"],), (256,), (100.0,), (1024,))))
    pairs = list(grid)
    assert len(pairs) == 1
    row = ",".join(map(str, sweep_csv_rows(pairs)[0]))
    assert sweep_csv_lines(grid) == [",".join(CSV_HEADER), row]
