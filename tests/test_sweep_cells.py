"""The sweep renders each cell once for the axes it depends on.

Throughput reads no device, so ``perf.sweep_csv_lines`` renders it once per
(unit count, clock, block size) and shares it by every device's rows. These
tests pin that count, the bytes against the flat path (``sweep_csv_rows``
through ``csv.writer``) and the refusal of a point whose throughput and
utilization both overflow, now that throughput is rendered before any
device's rows.
"""

from unittest import mock

import pytest

from spime import perf
from spime.cli import EXIT_USAGE, main
from spime.perf import (
    AGGREGATE,
    PER_UNIT,
    SweepError,
    iter_sweep,
    load_device_catalog,
    sweep_csv_lines,
    sweep_grid,
)

from helpers import flat_csv


@pytest.mark.parametrize("interpretation", [AGGREGATE, PER_UNIT])
def test_throughput_is_rendered_once_per_unit_count_clock_and_block_size(interpretation):
    catalog = load_device_catalog()
    assert len(catalog) == 5
    grid = sweep_grid(catalog, num_pims=[1, 256, 4095], fmax_mhz=[100.0, 333.3],
                      block_bits=[128, 1024])
    with mock.patch.object(perf, "_throughput", wraps=perf._throughput) as throughput, \
            mock.patch.object(perf, "evaluate", wraps=perf.evaluate) as evaluate:
        lines = sweep_csv_lines(grid, interpretation)
    # evaluate calls _throughput itself; the rest are the renderer's own calls.
    assert throughput.call_count - evaluate.call_count == 3 * 2 * 2
    # One string per (device, unit count) after the header.
    assert len(lines) == 1 + 5 * 3
    assert "".join(s + "\n" for s in lines) == flat_csv(grid, interpretation)


@pytest.mark.parametrize("per_unit", [False, True])
def test_a_late_refusal_across_devices_names_the_flat_paths_query(tmp_path, capsys, per_unit):
    output = tmp_path / "sweep.csv"
    axes = {"device": ["U55C", "ZCU104"], "num_pims": [4096, 10**399],
            "fmax_mhz": [100.0, 500.0]}
    interpretation = PER_UNIT if per_unit else AGGREGATE
    with pytest.raises(SweepError) as refused:
        for _ in iter_sweep(sweep_grid(load_device_catalog(), **axes), interpretation):
            pass
    want = f"error: {refused.value}\n"
    assert want.startswith("error: query 2: operating point too large for the model: ")

    argv = ["sweep", "--device", "U55C", "ZCU104", "--num-pims", "4096", str(10**399),
            "--fmax-mhz", "100", "500", "--output", str(output)]
    capsys.readouterr()
    code = main(argv + ["--per-unit"] if per_unit else argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_USAGE, "", want)
    assert not output.exists()
