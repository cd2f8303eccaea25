"""The abstract's four claims, each number computed through the public API.

README's "Paper claims" table quotes every value asserted here, so a change
to the model or the array cannot drift from it unseen. Throughput uses the
aggregate reading at 4,096 units and 1024-bit blocks.
"""

import random

import pytest

from spime import perf
from spime.array_sim import SpimeConfig, build_array

from helpers import random_job

DATACENTER = ["U55C", "U280", "VCU118"]
EMBEDDED = ["ZCU104", "ZCU106"]


def run(seed, num_pims, blocks):
    """A random job of ``num_pims`` units x ``blocks`` blocks, run on a new array."""
    job = random_job(random.Random(seed), num_pims, blocks)
    return build_array(SpimeConfig(num_pims, blocks * 128)).run_job(job)


def point(catalog, cycles=11, fmax_mhz=500.0, device="U55C"):
    return perf.evaluate(perf.PerfQuery(4096, fmax_mhz, 1024, cycles), catalog[device])


@pytest.mark.parametrize("num_pims, blocks", [(1, 3), (256, 2), (4096, 1), (4096, 2)])
def test_beyond_4000_units_a_block_takes_15_cycles_for_every_n(num_pims, blocks):
    result = run(num_pims * blocks, num_pims, blocks)
    assert result.total_cycles == 15 * blocks
    assert all(result.done_flags)


@pytest.mark.parametrize("device", DATACENTER)
def test_datacenter_parts_use_under_5_percent_at_4096_units(catalog, device):
    result = point(catalog, fmax_mhz=100.0, device=device)
    assert catalog[device].family == "datacenter"
    assert round(result.lut_util_pct, 2) == 3.65
    assert round(result.ff_util_pct, 2) == 2.0
    # Model inputs, not derived: the datacenter calibration anchors at 4,096 units.
    assert perf.FAMILY_ANCHORS["datacenter"] == (3.65, 2.0)
    assert perf.ANCHOR_NUM_PIMS == 4096


@pytest.mark.parametrize("device", EMBEDDED)
def test_embedded_parts_use_more_than_5_percent_at_4096_units(catalog, device):
    result = point(catalog, fmax_mhz=100.0, device=device)
    assert catalog[device].family == "embedded"
    assert (round(result.lut_util_pct, 2), round(result.ff_util_pct, 2)) == (18.44, 10.0)


def test_25_gbps_is_not_reproduced_at_the_papers_points(catalog):
    at_11, at_15 = point(catalog, 11), point(catalog, 15)
    assert round(at_11.throughput_gbps, 2) == 23.83
    assert round(at_15.throughput_gbps, 2) == 17.48
    assert at_11.throughput_gbps < 25
    # Aggregate throughput grows with the clock and shrinks with the cycles per block.
    fmax_needed = 500.0 * 25 / at_11.throughput_gbps
    cycles_needed = 11 * at_11.throughput_gbps / 25
    assert round(fmax_needed, 2) == 524.52
    assert round(cycles_needed, 2) == 10.49
    assert point(catalog, 11, fmax_needed * (1 - 1e-6)).throughput_gbps < 25
    assert point(catalog, 11, fmax_needed * (1 + 1e-6)).throughput_gbps > 25
    assert point(catalog, cycles_needed * (1 + 1e-6)).throughput_gbps < 25
    assert point(catalog, cycles_needed * (1 - 1e-6)).throughput_gbps > 25


@pytest.mark.parametrize("num_pims", [1, 256, 4096])
def test_latency_at_500_mhz(catalog, num_pims):
    for cycles, want in ((11, 0.022), (15, 0.03)):
        query = perf.PerfQuery(num_pims, 500.0, 1024, cycles)
        assert round(perf.evaluate(query, catalog["U55C"]).latency_us, 3) == want


def test_the_cadence_does_not_depend_on_the_data():
    assert {run(seed, 8, 3).total_cycles for seed in range(3)} == {15 * 3}
