import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from test_caches import _lru_cached
from triality.checks import run_suite


@pytest.fixture(scope="session")
def full_report():
    return run_suite("all")


@pytest.fixture(scope="session")
def results_by_id(full_report):
    return {r.check_id: r for r in full_report.results}


@pytest.fixture
def cold_caches():
    """Every ``lru_cache`` in ``triality`` cleared before and after the test.

    Clearing one cache is not enough: ``vector_basis`` and ``spinor_bases``
    intern whatever the gamma ladders gave them, so a broken ladder
    outlives its own patch in the interned bases (the FOUND on interned
    bases in ``CHANGES.md``).  The caches are looked up before the test
    patches anything, so a patched builder cannot hide its real cache.
    """
    caches = list(_lru_cached().values())
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
