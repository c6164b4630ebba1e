"""Truncated power/Laurent series with honest order tracking.

A series here is a finite window of coefficients: exponents below ``lead``
are exactly zero, exponents from ``lead`` up to ``order - 1`` are stored,
and exponents at ``order`` and above are *unknown* (not zero).  Arithmetic
only ever reports coefficients it can actually prove, so the valid order
shrinks in the usual Cauchy-product way instead of silently pretending the
inputs were polynomials.

This is the coefficient engine behind the asymptotic expansions of the
Herglotz functions: compositional reversion turns the small-parameter
expansion of a conformal coordinate into the 1/z expansion of an m-function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ORDER = 64


def _conv(a, b, n):
    """Cauchy product of dense coefficient arrays, truncated to length n."""
    out = np.zeros(n)
    if n > 0 and len(a) and len(b):
        full = np.convolve(a[:n], b[:n])[:n]
        out[:len(full)] = full
    return out


def _compose_dense(f, g, n):
    """Horner evaluation of f(g) on dense arrays (g[0] must be 0)."""
    acc = np.zeros(n)
    for c in f[::-1]:
        acc = _conv(acc, g, n)
        acc[0] += c
    return acc


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of x^(lead+k) at index k; exponents >= order are unknown."""

    lead: int
    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < self.lead:
            raise ValueError("order must be >= lead")
        if len(self.coeffs) != self.order - self.lead:
            raise ValueError("coeffs must have exactly order - lead entries")

    def coeff(self, exponent):
        """Coefficient of x^exponent; zero below lead, error at/beyond order."""
        if exponent >= self.order:
            raise ValueError(f"coefficient of x^{exponent} is beyond the valid order {self.order}")
        if exponent < self.lead:
            return 0.0
        return self.coeffs[exponent - self.lead]

    def array(self):
        return np.asarray(self.coeffs, dtype=float)

    def __add__(self, other):
        return ts_add(self, other)

    def __sub__(self, other):
        return ts_add(self, ts_scale(other, -1.0))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return ts_mul(self, other)
        return ts_scale(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return ts_scale(self, -1.0)


def _make(lead, coeffs, order):
    """Build a series, trimming exact leading zeros into the lead offset."""
    arr = np.asarray(coeffs, dtype=float)
    k = 0
    while k < len(arr) and arr[k] == 0.0:
        k += 1
    return TruncatedSeries(lead + k, tuple(arr[k:]), order)


def ts_poly(coeffs, lead=0, order=DEFAULT_ORDER):
    """Series from explicit coefficients, padded with known zeros up to order."""
    arr = list(coeffs)
    if order < lead + len(arr):
        raise ValueError("order too small for the given coefficients")
    arr = arr + [0.0] * (order - lead - len(arr))
    return _make(lead, arr, order)


def monomial(c, exponent, order=DEFAULT_ORDER):
    return ts_poly([c], lead=exponent, order=order)


def ts_scale(a, c):
    return _make(a.lead, c * a.array(), a.order)


def ts_add(a, b):
    order = min(a.order, b.order)
    lead = min(a.lead, b.lead)
    if order <= lead:
        return TruncatedSeries(order, (), order)
    out = np.zeros(order - lead)
    for s in (a, b):
        lo = s.lead - lead
        arr = s.array()[: max(order - s.lead, 0)]
        out[lo:lo + len(arr)] += arr
    return _make(lead, out, order)


def ts_mul(a, b):
    """Cauchy product truncated to the provable order."""
    order = min(a.order + b.lead, b.order + a.lead)
    lead = a.lead + b.lead
    n = order - lead
    if n <= 0:
        return TruncatedSeries(order, (), order)
    out = _conv(a.array(), b.array(), n)
    return _make(lead, out, order)


def ts_recip(f):
    """Multiplicative inverse: g with f*g = 1 to the working order."""
    fa = f.array()
    if len(fa) == 0 or fa[0] == 0.0:
        raise ValueError("ts_recip needs a nonzero leading coefficient")
    n = len(fa)
    g = np.zeros(n)
    g[0] = 1.0 / fa[0]
    for k in range(1, n):
        g[k] = -np.dot(fa[1:k + 1], g[k - 1::-1][:k]) / fa[0]
    return _make(-f.lead, g, f.order - 2 * f.lead)


def ts_compose(f, g):
    """f(g) for g with no constant term; truncation tracked honestly."""
    if f.lead < 0:
        raise ValueError("ts_compose needs f with lead >= 0")
    if g.lead < 1:
        raise ValueError("ts_compose needs g with zero constant term")
    order = min(f.order * g.lead, g.order + max(f.lead - 1, 0) * g.lead)
    n = order
    if n <= 0:
        return TruncatedSeries(order, (), order)
    fd = np.zeros(f.order)
    fd[f.lead:] = f.array()
    gd = np.zeros(n)
    top = min(n - g.lead, len(g.coeffs))
    if top > 0:
        gd[g.lead:g.lead + top] = g.array()[:top]
    out = _compose_dense(fd, gd, n)
    return _make(0, out, order)


def ts_revert(f):
    """Compositional inverse: g with f(g(u)) = u to the working order.

    Newton iteration on coefficients; needs f(0) = 0 and f'(0) != 0.
    """
    if f.lead > 1 or (f.lead <= 0 and f.coeff(0) != 0.0):
        raise ValueError("ts_revert needs f(0) = 0")
    f1 = f.coeff(1) if f.order > 1 else 0.0
    if f1 == 0.0:
        raise ValueError("ts_revert needs f'(0) != 0")
    n = f.order
    fd = np.zeros(n)
    fd[f.lead:] = f.array()[:n - f.lead]
    fp = fd[1:] * np.arange(1, n)
    g = np.zeros(n)
    g[1] = 1.0 / f1
    steps = max(1, int(np.ceil(np.log2(max(n, 2)))) + 2)
    for _ in range(steps):
        err = _compose_dense(fd, g, n)
        err[1] -= 1.0
        if not np.any(err):
            break
        fpg = _compose_dense(fp, g, n)
        inv = np.zeros(n)
        inv[0] = 1.0 / fpg[0]
        for k in range(1, n):
            inv[k] = -np.dot(fpg[1:k + 1], inv[k - 1::-1][:k]) / fpg[0]
        g = g - _conv(err, inv, n)
        g[0] = 0.0
    return _make(1, g[1:], n)
