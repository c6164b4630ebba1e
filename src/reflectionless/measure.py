"""Finite positive measures: atoms plus Chebyshev-density pieces.

A measure is the basic datum of the whole library: representing measures of
the Herglotz functions live here, and so do the spectral measures produced
on the way to coefficient reconstruction.  Densities are stored as Chebyshev
coefficient lists on their interval, which keeps the data format language
neutral and makes polynomial integrands exactly integrable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (
    BadR,
    NegativeMomentAtZero,
    NegativeWeight,
    NonFiniteOutput,
    OnSupport,
    SupportViolation,
)

SUPPORT_MARGIN_REL = 1e-9  # strict-inside margin, relative to each edge of the region


@dataclass(frozen=True)
class Piece:
    """Density piece: nonnegative Chebyshev series on [a, b]."""

    a: float
    b: float
    cheb: tuple

    def density(self, t):
        x = (2.0 * np.asarray(t, dtype=float) - self.a - self.b) / (self.b - self.a)
        return _cheb.chebval(x, self.cheb)


@dataclass(frozen=True)
class Measure:
    atoms: tuple = ()
    pieces: tuple = ()

    @staticmethod
    def from_atoms(atoms):
        return Measure(atoms=tuple((float(t), float(w)) for t, w in atoms))

    @staticmethod
    def point(t, w=1.0):
        return Measure.from_atoms([(t, w)])

    @staticmethod
    def zero():
        return Measure()

    @staticmethod
    def with_pieces(atoms, pieces):
        return Measure(
            atoms=tuple((float(t), float(w)) for t, w in atoms),
            pieces=tuple(Piece(float(a), float(b), tuple(float(c) for c in cheb))
                         for a, b, cheb in pieces),
        )

    @cached_property
    def atom_arrays(self):
        """Atom positions and weights as read-only arrays, built once."""
        arr = np.asarray(self.atoms, dtype=float).reshape(-1, 2)
        arr.flags.writeable = False
        return arr[:, 0], arr[:, 1]

    @cached_property
    def inverse_moments(self):
        """(s_{-1}, s_{-2}), the moments F's linear part reads, computed once."""
        return moment(self, -1), moment(self, -2)


def solve_r(R):
    """Solve r + 1/r = R with 0 < r <= 1, without cancellation: the product
    of square roots stays finite up to the largest float R."""
    if not 2.0 <= R < math.inf:
        raise BadR(f"jacobi setting needs 2 <= R < inf, got {R}")
    return 1.0 / (R / 2.0 + math.sqrt(R - 2.0) * math.sqrt(R + 2.0) / 2.0)


def validate(mu, setting):
    """Check support, weights and densities against a Setting; returns mu.

    Each edge of the setting's region moves inward by SUPPORT_MARGIN_REL = d
    of itself.  jacobi: support in r (1 + d) < |t| < (1 - d) / r, where
    r + 1/r = R, each piece on one side of 0 and at least d min(|a|, |b|)
    wide.  schrodinger: support in |t| < R (1 - d), each piece at least d R
    wide.
    """
    d = SUPPORT_MARGIN_REL
    jacobi = setting.kind == "jacobi"
    # every element stays inside (-edge, edge) and, in the jacobi ring, off [-gap, gap]
    if jacobi:
        gap, edge = setting.r * (1.0 + d), (1.0 - d) / setting.r
    else:
        gap, edge = -math.inf, setting.R * (1.0 - d)

    def check_inside(a, b, offender):
        if not (-edge < a and b < edge and (a > gap or b < -gap)):
            raise SupportViolation(
                f"support element {offender} not strictly inside the allowed region", offender
            )

    occupied = []
    ts, ws = mu.atom_arrays
    for t, w in zip(ts, ws):
        if not 0.0 < w < math.inf:
            raise NegativeWeight(f"atom at t={t} has weight {w}, not a positive finite number")
        check_inside(t, t, t)
        occupied.append((t, t))
    for p in mu.pieces:
        least = d * (min(abs(p.a), abs(p.b)) if jacobi else setting.R)
        if not p.b - p.a >= least:  # a piece a few ulps wide makes the quadrature rule singular
            raise SupportViolation(
                f"piece [{p.a}, {p.b}] is narrower than the margin {least:.3g}", (p.a, p.b)
            )
        if not p.cheb:
            raise NegativeWeight(f"piece [{p.a}, {p.b}] has no density coefficients")
        check_inside(p.a, p.b, (p.a, p.b))
        xs = np.cos(np.pi * np.arange(4 * len(p.cheb) + 33) / (4 * len(p.cheb) + 32))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            vals = _cheb.chebval(xs, p.cheb)
        if not np.isfinite(vals).all() or np.min(vals) < -1e-12 * max(1.0, np.max(np.abs(vals))):
            raise NegativeWeight(f"density negative or not finite on [{p.a}, {p.b}]")
        occupied.append((p.a, p.b))
    occupied.sort()
    for (a1, b1), (a2, b2) in zip(occupied, occupied[1:]):
        if a2 <= b1:
            raise SupportViolation(
                f"support elements overlap near t={a2}", (a2, b2)
            )
    return mu


# The piece rule: composite Gauss-Legendre panels graded geometrically
# toward the ends of a piece, just deep enough that each kernel pole stays
# outside the panels' Bernstein ellipses of parameter 2.6 or more, where 20
# nodes reach rounding level (Trefethen, ATAP, Thm 19.3).
PANEL_NODES = 20
PANEL_RATIO = 0.2
MAX_LEVELS = 16
MIN_PANEL_ULPS = 2 ** 12  # rounding leaves 20 distinct, well-spread nodes


@lru_cache(maxsize=None)
def _panel_x():
    """Gauss-Legendre nodes of one panel, on [-1, 1]."""
    return np.polynomial.legendre.leggauss(PANEL_NODES)[0]


def _levels(width, end, poles, order):
    """Grading levels toward `end` of a part `width` long: the innermost
    panel is at most twice as wide as the distance to the nearest pole over
    `order` (t^n has a boundary layer of width |end|/|n|), and OnSupport if
    it would be narrower than MIN_PANEL_ULPS ulps.  Past MAX_LEVELS a
    boundary layer stays at that depth, but a kernel pole (order None) is
    refused with OnSupport: the rule could not resolve it."""
    dist = min((abs(z - end) for z in poles), default=math.inf) / (order or 1)
    if 4.0 * dist >= width:
        return 0
    if 4.0 * dist <= width * PANEL_RATIO ** MAX_LEVELS:
        if order is None:
            raise OnSupport(f"pole {dist:.3g} from the piece end {end!r}: past the grading depth")
        levels = MAX_LEVELS
    else:
        levels = math.ceil(math.log(0.25 * width / dist) / -math.log(PANEL_RATIO))
    if 0.5 * width * PANEL_RATIO ** levels < MIN_PANEL_ULPS * math.ulp(end):
        raise OnSupport(f"pole {dist:.3g} from the piece end {end!r}: below the rule's resolution")
    return levels


@lru_cache(maxsize=256)
def _piece_rule(piece, cuts, levels):
    """Nodes and weights x density of a piece cut at `cuts`, the two halves
    of each part graded toward its ends by its (lo, hi) `levels`.  The
    weights are the interpolatory ones of the nodes as rounded, so rounding
    t next to a pole does not perturb the rule."""
    ends = (piece.a, *cuts, piece.b)
    q = PANEL_RATIO
    breaks = np.concatenate([
        lo + (hi - lo) * np.concatenate(
            [[0.0], 0.5 * q ** np.arange(l_lo, -1, -1), 1.0 - 0.5 * q ** np.arange(1, l_hi + 1)]
        )
        for lo, hi, (l_lo, l_hi) in zip(ends, ends[1:], levels)
    ] + [[piece.b]])
    left, h = breaks[:-1, None], np.diff(breaks)[:, None]
    t = left + 0.5 * h * (_panel_x() + 1.0)
    V = np.polynomial.legendre.legvander(2.0 * (t - left) / h - 1.0, PANEL_NODES - 1)
    t = t.ravel()
    return t, (h * np.linalg.inv(V)[:, 0, :]).ravel() * piece.density(t)


def quadrature_atoms(mu, poles, order=None, split=None):
    """mu as weighted atoms (t_j, w_j) for kernels analytic off `poles`: its
    own atoms, then each piece by the graded rule.  A piece is also cut at
    `split` when that lies inside it with a pole within half its length.
    An integer `order` says the kernel is t^n with |n| <= order and the pole
    at 0 only sets the scale of its boundary layer."""
    ts, ws = mu.atom_arrays
    if not mu.pieces:
        return ts, ws
    parts = [(ts, ws)]
    for p in mu.pieces:
        ends = (p.a, p.b)
        if split is not None and p.a < split < p.b:
            if 2.0 * min(abs(z - split) for z in poles) < p.b - p.a:
                ends = (p.a, split, p.b)
        levels = tuple(
            (_levels(hi - lo, lo, poles, order), _levels(hi - lo, hi, poles, order))
            for lo, hi in zip(ends, ends[1:])
        )
        parts.append(_piece_rule(p, ends[1:-1], levels))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def moment(mu, n):
    """Generalized moment: sum of w t^n plus density integrals.

    Negative n requires the support to stay away from zero.  The atom
    convention 0^0 = 1 makes moment(mu, 0) the total mass even for an atom
    pinned at the origin.
    """
    return float(moments(mu, [n])[0])


def moments(mu, ns):
    """moment(mu, n) for every n in ns, in one pass over the quadrature atoms."""
    ns = np.asarray(ns, dtype=int)
    if np.any(ns < 0) and (0.0 in mu.atom_arrays[0] or any(p.a <= 0.0 <= p.b for p in mu.pieces)):
        raise NegativeMomentAtZero(f"moment {ns.min()} undefined: support touches t = 0")
    ts, ws = quadrature_atoms(mu, (0.0,), int(np.max(np.abs(ns), initial=0)))
    return np.sum(ws[:, None] * np.float_power(ts[:, None], ns), axis=0)


def cauchy(mu, lam):
    """Cauchy transform: integral of d mu(t) / (t - lam), lam off the support."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise NonFiniteOutput(f"Cauchy transform at a non-finite point {lam}")
    if lam.imag == 0.0:  # only a real lam can meet the support
        if any(t == lam for t, _ in mu.atoms):
            raise OnSupport(f"Cauchy transform evaluated on an atom at {lam}")
        for p in mu.pieces:
            if p.a <= lam.real <= p.b:
                raise OnSupport(f"Cauchy transform evaluated inside a piece at {lam}")
    ts, ws = quadrature_atoms(mu, (lam,), split=lam.real)
    return complex(np.add.reduce(ws / (ts - lam)))
