import pytest
from hypothesis import settings

from domdimlab import nakayama as nak
from domdimlab import suites
from domdimlab.suites import cyclic_series

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def small_cycles():
    """Every valid cyclic Kupisch series with n <= 3 and entries <= 5."""
    return [nak.validate(nak.CYCLE, c) for c in cyclic_series(1, 3, 5)]


@pytest.fixture(scope="session")
def rigidity_sweep():
    """One run of the rigidity-sweep suite as (items, names of the failed
    items), shared by its pinned digest and acceptance criteria 03 and 04."""
    items = suites.suite_rigidity_sweep()
    return items, [it["name"] for it in items if not it["pass"]]


@pytest.fixture(scope="session")
def oracle_cross():
    """One run of the oracle-cross suite as (items, names of the failed
    items), shared by its pinned digest and acceptance criterion 08."""
    items = suites.suite_oracle_cross()
    return items, [it["name"] for it in items if not it["pass"]]
