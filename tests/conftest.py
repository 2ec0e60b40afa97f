"""Fixtures shared by several test modules."""

import pytest

from emorefinery import classifier


@pytest.fixture
def openblas():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and restored after; skips where numpy has no OpenBLAS that can run two."""
    lib = classifier._openblas()
    if lib is None:
        pytest.skip("numpy does not use OpenBLAS here")
    get, set_ = lib
    before = get()
    set_(2)
    if get() != 2:
        set_(before)
        pytest.skip("this OpenBLAS cannot run two threads")
    yield get
    set_(before)
