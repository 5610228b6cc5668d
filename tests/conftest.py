"""Every test starts with no finiteness report cached, so a test that
counts or stubs ranks sees its own calls whatever ran before it."""

import pytest

from pushsplit import endomorphism


@pytest.fixture(autouse=True)
def _no_cached_finiteness():
    endomorphism._finiteness_report.cache_clear()
