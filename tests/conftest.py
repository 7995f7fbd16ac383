import pytest

from conglab.quotients import _quotient


@pytest.fixture(autouse=True)
def cold_rings():
    """Start each test with no interned rings, so it sees cold rings and
    the ring caches it warms or corrupts stay its own."""
    _quotient.cache_clear()
