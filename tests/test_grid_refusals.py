"""A grid cell whose throughput alone leaves the model's range is refused.

``perf._grid_lines`` checks each axis value through ``evaluate`` at the part's
first point, so a cell built from two accepted axis values is checked on its
own: here every axis point passes ``evaluate`` and only the cell of the largest
unit count and the fastest clock has infinite aggregate throughput. ``spime
sweep`` must refuse it as the flat path does, with the error ``iter_sweep``
raises, and write no file.
"""

import pytest

from spime.cli import EXIT_USAGE, main
from spime.perf import evaluate, iter_sweep, load_device_catalog, sweep_grid

NUM_PIMS = [1, 10**305]
FMAX_MHZ = [1e-10, 1e10]


def test_an_infinite_throughput_cell_is_refused_and_writes_no_file(tmp_path, capsys):
    grid = sweep_grid(load_device_catalog(), ["U55C"], NUM_PIMS, FMAX_MHZ, [128])
    points = list(grid)
    # Every point but the last, (10**305 units, 1e10 MHz), is in the model's range.
    for query, device in points[:-1]:
        evaluate(query, device)
    assert (points[3][0].num_pims, points[3][0].fmax_mhz) == (10**305, 1e10)
    with pytest.raises(ValueError) as refused:
        for _ in iter_sweep(grid):
            pass
    assert str(refused.value).startswith("query 3: operating point outside the model's range: ")

    output = tmp_path / "sweep.csv"
    argv = ["sweep", "--device", "U55C", "--num-pims", *map(str, NUM_PIMS),
            "--fmax-mhz", *map(repr, FMAX_MHZ), "--block-bits", "128", "--output", str(output)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refused.value}\n")
    assert not output.exists()
