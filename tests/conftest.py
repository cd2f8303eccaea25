"""Fixtures shared by the tier-1 suite."""

import pytest

from spime import perf


@pytest.fixture(scope="session", autouse=True)
def hermetic_environment():
    """Run every test, and every interpreter it starts, on the packaged device catalog
    with buffered streams, whatever the caller exported."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("SPIME_DEVICE_CATALOG", raising=False)
        patch.delenv("PYTHONUNBUFFERED", raising=False)
        yield


@pytest.fixture(scope="module")
def catalog():
    return perf.load_device_catalog()
