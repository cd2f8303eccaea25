"""Sweep cells on both sides of the one-conversion bound keep the flat path's bytes.

``perf.sweep_csv_lines`` prints each rounded cell with ``"%.4f"`` below 1e11 and
with ``repr(round(x, 4))`` from there on. This grid puts cells far on both sides:
clocks from 1e-10 to 1e6 MHz and up to 10**15 units give latencies, throughputs
and utilizations that round to zero, that need 15 digits and that print in
exponent form. ``spime sweep`` must write the bytes that ``csv.writer`` writes
for ``sweep_csv_rows`` on the same grid.
"""

import pytest

from spime.cli import EXIT_OK, main
from spime.perf import (
    AGGREGATE,
    DEFAULT_CYCLES_PER_TASK,
    PER_UNIT,
    load_device_catalog,
    sweep_csv_rows,
    sweep_grid,
)

from helpers import flat_csv

NUM_PIMS = [1, 4096, 10**9, 10**15]
FMAX_MHZ = [1e-10, 0.01, 100.0, 1e6]
BLOCK_BITS = [128, 65536]


@pytest.mark.parametrize("flags, interpretation, cycles", [
    ([], AGGREGATE, DEFAULT_CYCLES_PER_TASK),
    (["--per-unit"], PER_UNIT, DEFAULT_CYCLES_PER_TASK),
    (["--cycles-per-task", "15"], AGGREGATE, 15),
], ids=["aggregate", "per-unit", "15-cycles"])
def test_boundary_grid_matches_the_flat_path(tmp_path, flags, interpretation, cycles):
    output = tmp_path / "sweep.csv"
    argv = ["sweep", "--num-pims", *map(str, NUM_PIMS), "--fmax-mhz", *map(repr, FMAX_MHZ),
            "--block-bits", *map(str, BLOCK_BITS), *flags, "--output", str(output)]
    assert main(argv) == EXIT_OK

    grid = sweep_grid(load_device_catalog(), None, NUM_PIMS, FMAX_MHZ, BLOCK_BITS, cycles)
    assert output.read_bytes() == flat_csv(grid, interpretation).encode()

    # Both branches of the cell conversion are taken.
    rows = sweep_csv_rows(list(grid), interpretation)
    cells = [cell for row in rows for cell in row[4:]]
    assert any(abs(cell) >= 1e11 for cell in cells)
    assert any(cell == 0.0 for cell in cells)
    assert any(1e-4 <= abs(cell) < 1e11 for cell in cells)
