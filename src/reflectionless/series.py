"""Truncated Cauchy product of dense coefficient arrays (the series layer)."""

from __future__ import annotations

import numpy as np

DEFAULT_ORDER = 64


def _conv(a, b, n):
    """Cauchy product of dense coefficient arrays, truncated to length n."""
    out = np.zeros(n)
    if n > 0 and len(a) and len(b):
        full = np.convolve(a[:n], b[:n])[:n]
        out[:len(full)] = full
    return out
