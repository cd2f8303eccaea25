"""``spime sweep`` checks the whole grid first, then renders its CSV a string at a time.

``perf.iter_sweep_csv_lines``, which ``cmd_sweep`` returns, makes every
``evaluate``, ``_throughput`` and ``_decimal4`` call and raises any refusal
before it returns; reading it only joins each (device, unit count)'s cells.
So a refused grid raises before any output is opened, and the memory a
sweep holds grows with its device-free cells, not with its rows.
"""

import random
import tracemalloc
from unittest import mock

import pytest

from spime import perf
from spime.cli import EXIT_OK, build_parser, main
from spime.perf import AGGREGATE, PER_UNIT, iter_sweep, iter_sweep_csv_lines, sweep_grid

from helpers import flat_csv

DEVICES = ["U55C", "U280", "VCU118", "ZCU104", "ZCU106"]


def _grid_argv(devices, num_pims, fmax_mhz, block_bits, output):
    return ["sweep", "--device", *devices, "--num-pims", *map(str, num_pims),
            "--fmax-mhz", *map(repr, fmax_mhz), "--block-bits", *map(str, block_bits),
            "--output", str(output)]


@pytest.mark.parametrize("interpretation", [AGGREGATE, PER_UNIT])
def test_every_model_call_is_made_before_the_first_string(catalog, interpretation):
    grid = sweep_grid(catalog, num_pims=[1, 256, 4095], fmax_mhz=[100.0, 333.3],
                      block_bits=[128, 1024])
    with mock.patch.object(perf, "evaluate", wraps=perf.evaluate) as evaluate, \
            mock.patch.object(perf, "_throughput", wraps=perf._throughput) as throughput, \
            mock.patch.object(perf, "_decimal4", wraps=perf._decimal4) as decimal4:
        lines = iter_sweep_csv_lines(grid, interpretation)
        made = (evaluate.call_count, throughput.call_count, decimal4.call_count)
        first = next(lines)
        assert (evaluate.call_count, throughput.call_count, decimal4.call_count) == made
        rest = list(lines)
        assert (evaluate.call_count, throughput.call_count, decimal4.call_count) == made
    # Two block sizes and two clocks at the first point, then each (device, unit count).
    assert made[0] == 2 + 2 + 5 * 3
    rows = "\n".join([first, *rest]).split("\n")
    assert rows == flat_csv(grid, interpretation).split("\n")[:-1]


def test_cmd_sweep_returns_the_rows_unread(tmp_path):
    args = build_parser().parse_args(
        _grid_argv(DEVICES[:2], [1, 4096], [100.0, 500.0], [128], tmp_path / "sweep.csv"))
    with mock.patch.object(perf, "evaluate", wraps=perf.evaluate) as evaluate:
        [(where, lines)] = args.func(args)
        made = evaluate.call_count
        assert iter(lines) is lines
        assert len(list(lines)) == 1 + 2 * 2
    assert (where, made, evaluate.call_count) == (str(tmp_path / "sweep.csv"), 7, 7)
    assert not (tmp_path / "sweep.csv").exists()


def test_a_refused_cell_raises_before_the_iterator_is_returned(catalog, tmp_path):
    # The grid of test_grid_refusals: only its last cell's throughput is infinite.
    axes = ["U55C"], [1, 10**305], [1e-10, 1e10], [128]
    with pytest.raises(ValueError) as flat:
        for _ in iter_sweep(sweep_grid(catalog, *axes)):
            pass
    with pytest.raises(ValueError) as refused:
        iter_sweep_csv_lines(sweep_grid(catalog, *axes))
    assert str(refused.value) == str(flat.value)

    args = build_parser().parse_args(_grid_argv(*axes, tmp_path / "sweep.csv"))
    with pytest.raises(ValueError) as refused:
        args.func(args)
    assert str(refused.value) == str(flat.value)


def test_the_peak_grows_with_the_device_free_cells_not_the_rows(tmp_path):
    # The benchmark's shape: 40 unit counts x 25 clocks x 20 block sizes, 100,000 rows.
    rng = random.Random(39)
    axes = ([rng.randint(1, 4096) for _ in range(40)],
            [rng.randint(5000, 80000) / 100 for _ in range(25)],
            [128 * rng.randint(1, 512) for _ in range(20)])
    output = tmp_path / "sweep.csv"
    assert main(_grid_argv(DEVICES[:1], [1], [100.0], [128], output)) == EXIT_OK  # warm-up
    peaks = {}
    for count in (1, 5):
        tracemalloc.start()
        try:
            assert main(_grid_argv(DEVICES[:count], *axes, output)) == EXIT_OK
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = output.stat().st_size
    assert size > 4_500_000
    assert peaks[5] < 1.1 * peaks[1]
    assert peaks[5] < size
