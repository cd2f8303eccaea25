"""Large sweep grids through the ``spime`` command keep the flat path's bytes.

``spime sweep`` renders throughput once per (unit count, clock, block size) and
shares it by every device's rows, and prints each distinct throughput once and
reuses its text. The flat path evaluates every point with ``sweep_csv_rows`` and
writes it with ``csv.writer``. These grids are run in both readings: every
device on a fixed grid, and a seeded grid shaped like the benchmark's
(5 devices x 40 x 25 x 20, 100,000 rows).
"""

import random

import pytest

from spime.perf import (
    AGGREGATE,
    PER_UNIT,
    load_device_catalog,
    sweep_grid,
)

from helpers import flat_csv, spime

DEVICES = ["U55C", "U280", "VCU118", "ZCU104", "ZCU106"]


def _seeded_axes():
    rng = random.Random(33)
    return ([rng.randint(1, 4096) for _ in range(40)],
            [rng.randint(5000, 80000) / 100 for _ in range(25)],
            [128 * rng.randint(1, 512) for _ in range(20)])


@pytest.mark.parametrize("per_unit", [False, True], ids=["aggregate", "per-unit"])
@pytest.mark.parametrize("axes, rows", [
    (([1, 256, 4095], [100.0, 333.3], [128, 1024, 65536]), 5 * 3 * 2 * 3),
    (_seeded_axes(), 100_000),
], ids=["shared-cells", "per-value"])
def test_the_command_writes_the_flat_paths_bytes(tmp_path, axes, rows, per_unit):
    num_pims, fmax_mhz, block_bits = axes
    proc = spime("sweep", "--device", *DEVICES, "--num-pims", *map(str, num_pims),
                 "--fmax-mhz", *map(repr, fmax_mhz), "--block-bits", *map(str, block_bits),
                 *(["--per-unit"] if per_unit else []), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")

    grid = sweep_grid(load_device_catalog(), DEVICES, num_pims, fmax_mhz, block_bits)
    want = flat_csv(grid, PER_UNIT if per_unit else AGGREGATE)
    # Lists of lines, so that a failure names the first row that differs at once.
    lines = proc.stdout.splitlines(keepends=True)
    assert len(lines) == 1 + rows
    assert lines == want.splitlines(keepends=True)
