"""Binomial coefficients with the out-of-range convention the bounds rely on.

Out-of-range arguments vanish: C(a, b) = 0 whenever a < 0, b < 0, or
b > a.  Every bound formula in this package relies on that convention to
drop terms instead of raising.
"""

from __future__ import annotations

from math import comb


def binomial(a: int, b: int) -> int:
    """C(a, b), with out-of-range arguments giving 0."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)
