"""The sweep computes each throughput once per cell and prints each distinct value once.

``perf._throughput`` does the float operations of ``throughput_gbps`` in the same
order, without its checks, so it must give the same bits (and the same
``OverflowError`` for a bit count too large for a float). ``perf._grid_lines``
keys each throughput's text by its float, which is exact only because equal
throughputs print the same text: ``_throughput`` never returns ``-0.0``. These
tests pin that equality, that sign, the number of ``_decimal4`` calls a grid
with repeated throughputs makes, and the bytes against the flat path.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spime import perf
from spime.perf import (
    AGGREGATE,
    PER_UNIT,
    _throughput,
    latency_us,
    load_device_catalog,
    sweep,
    sweep_csv_lines,
    sweep_grid,
    throughput_gbps,
)
from spime.primitives import BLOCK_BITS

from helpers import flat_csv

_PROPERTY = settings(max_examples=1000, deadline=None)


def _outcome(fn, *args):
    """The result's bit pattern, or the type of the exception raised."""
    try:
        return fn(*args).hex()
    except OverflowError:
        return OverflowError


@_PROPERTY
@given(
    n=st.one_of(st.integers(1, 10**6), st.integers(2**1024, 2**1100)),
    k=st.integers(1, 10**6),
    cycles=st.integers(1, 1000),
    fmax=st.floats(1e-300, 1e308),
)
def test_throughput_is_throughput_gbps_bit_for_bit(n, k, cycles, fmax):
    b = BLOCK_BITS * k
    lat = latency_us(cycles, fmax)
    aggregate = _outcome(_throughput, AGGREGATE, n, b, lat)
    assert aggregate == _outcome(throughput_gbps, n * b, (b / BLOCK_BITS) * lat)
    per_unit = _outcome(_throughput, PER_UNIT, n, b, lat)
    assert per_unit == _outcome(throughput_gbps, b, lat)
    # n * b above the largest float cannot be divided; every other point gives a value.
    assert (aggregate is OverflowError) == (n >= 2**1024)
    assert per_unit is not OverflowError
    for thr in (aggregate, per_unit):
        if thr is not OverflowError:
            assert math.copysign(1, float.fromhex(thr)) == 1


def _seeded_axes():
    """Axes drawn as the benchmark's sweep draws them, on a smaller grid."""
    rng = random.Random(33)
    return ([rng.randint(1, 4096) for _ in range(12)],
            [rng.randint(5000, 80000) / 100 for _ in range(10)],
            [128 * rng.randint(1, 512) for _ in range(8)])


@pytest.mark.parametrize("axes", [
    ([1, 2, 4, 256, 4096], [100.0, 200.0, 400.0], [128, 256, 1024, 65536]),
    _seeded_axes(),
], ids=["fixed", "seeded"])
@pytest.mark.parametrize("interpretation", [AGGREGATE, PER_UNIT])
def test_each_distinct_throughput_is_printed_once(interpretation, axes):
    catalog = load_device_catalog()
    units, clocks, bits = axes
    grid = sweep_grid(catalog, num_pims=units, fmax_mhz=clocks, block_bits=bits)
    distinct = {res.throughput_gbps for res in sweep(grid, interpretation)}
    # Both readings repeat values: aggregate across block sizes, per-unit across unit counts.
    assert len(distinct) < len(units) * len(clocks) * len(bits)
    with mock.patch.object(perf, "_decimal4", wraps=perf._decimal4) as decimal4:
        lines = sweep_csv_lines(grid, interpretation)
    # One latency per clock, one text per distinct throughput, LUT and FF per
    # (device, unit count).
    assert decimal4.call_count == len(clocks) + len(distinct) + 2 * len(catalog) * len(units)
    # Split into lines, the texts compare exactly as they would whole, and a failure names
    # its first differing line at once (a diff of two long strings takes minutes).
    text = "".join(s + "\n" for s in lines)
    assert text.split("\n") == flat_csv(grid, interpretation).split("\n")
