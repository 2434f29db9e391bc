import pytest

from chargepair import bethe


@pytest.fixture(autouse=True)
def empty_root_store():
    """Every test starts with no stored Bethe roots: a size that
    ``bethe.state_energy`` looks up is seeded from the roots an earlier test
    left behind, so a pinned seed path or a stored energy compared with a
    cold solve would depend on the order the tests run in."""
    bethe.state_energy.cache_clear()
