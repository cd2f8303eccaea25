"""Every rounded sweep cell is printed by one fixed-point conversion.

``perf._decimal4(x)`` must give exactly ``repr(round(x, 4))``, the text the flat
path's ``csv.writer`` writes for a rounded float: ``"%.4f"`` with its trailing
zeros stripped for ``-1e11 < x < 1e11``, ``repr(round(x, 4))`` itself beyond that
and for nan and the infinities. These tests compare the two on every kind of
float, on the 4-decimal ties and on the edges of the fixed-point branch.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spime.perf import _decimal4

_PROPERTY = settings(max_examples=2000, deadline=None)


@_PROPERTY
@given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_any_float_prints_as_repr_of_round(x):
    assert _decimal4(x) == repr(round(x, 4))


@_PROPERTY
@given(x=st.floats(-1e12, 1e12))
def test_floats_around_the_fixed_point_bound_print_as_repr_of_round(x):
    assert _decimal4(x) == repr(round(x, 4))


def _seeded_values(count):
    """Random 64-bit patterns, log-uniform magnitudes and 4-decimal ties, both signs."""
    rng = random.Random(20261019)
    for _ in range(count):
        yield struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        yield rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-6, 17)
        tie = rng.choice((1.0, -1.0)) * (int(10 ** rng.uniform(0, 15)) + 0.5) / 1e4
        yield tie
        yield math.nextafter(tie, math.inf)


def test_seeded_values_print_as_repr_of_round():
    misses = [x for x in _seeded_values(50_000) if _decimal4(x) != repr(round(x, 4))]
    assert misses == []


@pytest.mark.parametrize("x", [
    0.0, -0.0, 5e-05, -5e-05, 5e-324, -5e-324, 1.0, -1.0, 0.1, 23.8313,
    math.nextafter(1e11, 0), 99999999999.99995, 1e11, -1e11, 1e16, 1e22,
    math.nan, math.inf, -math.inf,
])
def test_edges_print_as_repr_of_round(x):
    assert _decimal4(x) == repr(round(x, 4))
