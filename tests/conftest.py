"""Suite-wide checks."""

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def numpy_settings_do_not_leak():
    """Fail a test after which numpy's ufunc buffer size or error state
    differs from before it: the program sets both only around its own
    entry points, and a leak would change every later test."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    if after != before:
        pytest.fail(f"numpy settings leaked: (bufsize, errstate) {before} became {after}")
