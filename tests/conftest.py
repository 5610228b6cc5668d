"""Every test starts with every functools cache in pushsplit's modules
empty, found as bench/worker.py:reset_caches finds them, so a test that
counts or stubs ranks or parses sees its own calls whatever ran before it."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _cold_caches():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "pushsplit"
                                   or name.startswith("pushsplit.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
