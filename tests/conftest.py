"""Test-wide settings.

pytest.approx(x, rel=...) with no abs= also accepts anything within pytest's
default absolute tolerance of 1e-12, so a relative bound below 1e-12 / |x|
would not be the bound it states.  Here a relative tolerance given alone is
the whole tolerance: abs defaults to 0 wherever rel is given and abs is not.
"""

import functools

import pytest

_approx = pytest.approx


@functools.wraps(_approx)
def _approx_rel_alone(expected, rel=None, abs=None, nan_ok=False):
    if rel is not None and abs is None:
        abs = 0.0
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _approx_rel_alone
