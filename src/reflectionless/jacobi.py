"""Whole-line Jacobi coefficients from an admissible representing measure.

The route: the measure determines F, and the half-line m functions are
m_+(z) = F(lam) and m_-(z) = -F(1/lam), with lam the unit-disk root of
lam^2 + z lam + 1 = 0.  Their expansions carry the site-0 coefficients and
probability measures rho+- whose three-term recurrence coefficients are the
half-line Jacobi parameters.  Because 1/(x - z) = lam sum_k U_k(-x/2) lam^k,
the moments of rho+- against the monic free-basis polynomials U_k(x/2) are
plain moments of sigma (of sigma mirrored to 1/t for rho-): no series
algebra and no dependence on R.  Mass of sigma inside the unit disk becomes
eigenvalues of rho+- off [-2, 2], whose moment terms grow with k; they are
taken out analytically, the modified Chebyshev algorithm runs on the
decaying rest in the free basis, and the eigenvalues are added back to its
recurrence rows by the RKPW update.  Power moments are never formed (going
through them is exponentially unstable).

An independent continued-fraction oracle evaluates the m functions of a
finite coefficient window continued by the free operator, which pins the
index conventions and cross-validates every reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, measure
from .errors import (
    AdmissibilityRequired,
    BadParameter,
    BadR,
    HankelBreakdown,
    InadmissibleSigma,
    MomentMismatch,
)
from .herglotz import admissible_discrete, outer_root
from .measure import moment, quadrature_atoms

BREAKDOWN_TOL = 1e-12
MIN_EXCESS = 1e-6


@dataclass(frozen=True)
class JacobiWindow:
    """Coefficient window a_n > 0, b_n for n_min <= n <= n_max (a_n couples
    sites n and n+1)."""

    n_min: int
    n_max: int
    a: tuple
    b: tuple
    R: float

    def __post_init__(self):
        if not (self.n_min <= 0 <= self.n_max):
            raise BadParameter("window must contain site 0")
        if len(self.a) != self.n_max - self.n_min + 1 or len(self.b) != len(self.a):
            raise BadParameter("coefficient arrays must match the window")

    def a_at(self, n):
        return self.a[n - self.n_min] if self.n_min <= n <= self.n_max else 1.0

    def b_at(self, n):
        return self.b[n - self.n_min] if self.n_min <= n <= self.n_max else 0.0


@dataclass(frozen=True)
class AsymptoticMoments:
    """Moment data of one half-line spectral measure rho.

    nu are the moments nu_k = int U_k(x/2) d rho_0 of its deflated part
    rho_0 against the monic free-basis polynomials U_k(x/2), and nodes the
    (E, mass) pairs that rho adds to rho_0 off [-2, 2]: its eigenvalues, or
    quadrature nodes of the image of a density piece inside the unit disk.
    """

    nu: tuple
    nodes: tuple


# ---------------------------------------------------------------------------
# moment extraction


def _deflated_moments(ts, ws, K):
    """Free-basis moments nu_0..nu_K and nodes of the half-line measure whose
    m function is F(lam) = lam + sum_{k>=2} s_{-1-k} lam^k, s the moments of
    the weighted nodes (ts, ws).

    Since 1/(x - z) = lam sum_k U_k(-x/2) lam^k with z = -(lam + 1/lam), the
    full moments are (-1)^k s_{-(k+2)}.  A node with |t| < 1 puts the mass
    w (1 - t^2)/t^2 at E = -(t + 1/t) and contributes (-1)^k w (t^{-(k+2)}
    - t^k), which grows with k; taking that mass out leaves moments that all
    decay.
    """
    inner = np.abs(ts) < 1.0
    t_in, w_in = ts[inner], ws[inner]
    k = np.arange(1, K + 1)
    nu = np.empty(K + 1)
    nu[1:] = (ws[~inner] @ np.float_power(ts[~inner, None], -(k + 2))
              + w_in @ np.float_power(t_in[:, None], k))
    nu[1::2] = 0.0 - nu[1::2]  # not -nu: a zero moment stays +0.0, so free rows get b = +0
    mass = w_in * (1.0 - t_in) * (1.0 + t_in) / (t_in * t_in)
    nu[0] = 1.0 - mass.sum()
    return tuple(nu.tolist()), tuple(zip((-(t_in + 1.0 / t_in)).tolist(), mass.tolist()))


def rho_plus_moments(sigma, K):
    """Deflated free-basis moments nu_0..nu_K and nodes of rho+, read off the
    lambda -> 0 expansion of F: m_plus(z) = F(lam(z)) with lam the unit-disk
    root of lam^2 + z lam + 1 = 0."""
    nu, nodes = _deflated_moments(*quadrature_atoms(sigma, (0.0,), K + 2), K)
    return AsymptoticMoments(nu=nu, nodes=nodes)


def rho_minus_moments(sigma, K):
    """Deflated free-basis moments and nodes of rho-, and the site-0
    coefficients (a0, b0, a_{-1}).

    a0 = (1 - s_{-2})^{-1/2} and b0 = -s_{-1}/(1 - s_{-2}); the |lambda| ->
    infinity expansion of -F then carries rho- through a0^2 m_-(z) = z - b0
    - a_{-1}^2 sum mu_k z^{-k-1}, which is rho+ of the mirrored nodes
    (1/t, w/(t^2 q)) with q = 1 - s_{-2} + s_0.
    """
    s1, s2 = sigma.inverse_moments
    s0 = moment(sigma, 0)
    if not s2 < 1.0:
        raise InadmissibleSigma(f"needs s_{{-2}} < 1, got {s2}")
    a0 = (1.0 - s2) ** -0.5
    b0 = -s1 / (1.0 - s2)
    q = 1.0 - s2 + s0
    if not q > 0.0:
        raise InadmissibleSigma(f"needs 1 - s_{{-2}} + s_0 > 0, got {q}")
    a_minus1 = a0 * math.sqrt(q)
    ts, ws = quadrature_atoms(sigma, (0.0,), K + 2)
    nu, nodes = _deflated_moments(1.0 / ts, ws / (ts * ts * q), K)
    return AsymptoticMoments(nu=nu, nodes=nodes), (a0, b0, a_minus1)


# ---------------------------------------------------------------------------
# recurrence extraction (modified Chebyshev, then RKPW)


def _wheeler(nu_monic, N):
    """Modified Chebyshev algorithm on moments against the monic free-basis
    polynomials U_k(x/2) (alpha-hat = 0, beta-hat = 1) -> (alpha, beta).
    Row k of the mixed moments, sigma_k[l] for k <= l < 2N - k, is an array
    from l = k written in place over row k - 2.  Raises HankelBreakdown at the
    first row whose pivot beta_k is not above BREAKDOWN_TOL."""
    K = 2 * N
    alpha = np.empty(N)
    beta = np.empty(N)
    prev = np.zeros(K + 2)  # sigma_{-1}, from l = -1
    sig = np.array(nu_monic[:K], dtype=float)  # sigma_0, from l = 0
    alpha[0] = sig[1] / sig[0]
    beta[0] = sig[0]
    p0, p1 = sig[:2].tolist()  # sigma_{k-1}[k-1], sigma_{k-1}[k]
    tmp = np.empty(K)
    for k in range(1, N):
        new, t = prev[2:-2], tmp[:K - 2 * k]  # new overwrites sigma_{k-2}[k:]
        new *= beta[k - 1]
        np.multiply(sig[1:-1], alpha[k - 1], t)
        np.subtract(sig[2:], t, t)
        np.subtract(t, new, new)
        new += sig[:-2]
        n0, n1 = new[:2].tolist()
        pivot = n0 / p0 if p0 != 0.0 else math.nan
        if not pivot > BREAKDOWN_TOL:
            raise HankelBreakdown(k + 1, "moment pivot failed within the rows the window needs")
        alpha[k] = n1 / n0 - p1 / p0
        beta[k] = pivot
        prev, sig, p0, p1 = sig, new, n0, n1
    return alpha, beta


def _add_nodes(alpha, beta, nodes):
    """Recurrence rows of the measure plus each (x, w) node, in place, by the
    RKPW update (Gragg & Harrod 1984; Gautschi's OPQ `lanczos`).  Row k of
    the result depends only on rows 0..k, so the rows kept are exact."""
    a, b = alpha.tolist(), beta.tolist()
    for x, pn in nodes:
        gam, sig, t = 1.0, 0.0, 0.0
        for k in range(len(a)):
            rho = b[k] + pn
            tmp, tsig = gam * rho, sig
            if rho <= 0.0:
                gam, sig = 1.0, 0.0
            else:
                gam, sig = b[k] / rho, pn / rho
            tk = sig * (a[k] - x) - gam * t
            a[k] -= tk - t
            t = tk
            pn = tsig * b[k] if sig <= 0.0 else t * t / sig
            b[k] = tmp
    alpha[:], beta[:] = a, b


def moments_to_recurrence(m, N):
    """Three-term recurrence coefficients of the orthonormal polynomials.

    Returns (alpha, beta) with beta[0] the total mass and sqrt(beta[k]) the
    off-diagonal entries.  Raises HankelBreakdown at the first pivot of the
    deflated part at or below BREAKDOWN_TOL.
    """
    if len(m.nu) < 2 * N:
        raise HankelBreakdown(N, f"need {2 * N} moments for {N} rows, have {len(m.nu)}")
    alpha, beta = _wheeler(m.nu, N)
    _add_nodes(alpha, beta, m.nodes)
    return alpha, beta


# ---------------------------------------------------------------------------
# window assembly


def reconstruct(sigma, setting, N):
    """Window of Jacobi coefficients for n in [-N, N] from an admissible measure.

    Site map fixed by oracle calibration: the rho+ recurrence fills sites
    1..N, (a0, b0, a_{-1}) come from the rho- asymptotics, and the rho-
    recurrence fills sites -1..-N (couplings a_{-2}..a_{-N}).
    """
    if N < 1:
        raise BadParameter("window half-width N must be at least 1")
    if setting.kind != "jacobi":
        raise BadR(f"reconstruct needs the jacobi setting, got {setting.kind!r}")
    measure.validate(sigma, setting)
    report = admissible_discrete(sigma, setting)
    if not report.passed:
        raise AdmissibilityRequired(
            f"measure fails the boundary inequality (min {report.min_value:.3e} "
            f"at E = {report.argmin:.6g})"
        )
    K = 2 * N + 2
    plus = rho_plus_moments(sigma, K)
    minus, (a0, b0, a_minus1) = rho_minus_moments(sigma, K)
    alp, bep = moments_to_recurrence(plus, N + 1)
    alm, bem = moments_to_recurrence(minus, N + 1)
    # side site k = 1..N: a_k = sqrt(beta_k) and b_k = alpha_{k-1}
    a = np.concatenate([np.sqrt(bem[N - 1:0:-1]), [a_minus1, a0], np.sqrt(bep[1:])])
    b = np.concatenate([alm[N - 1::-1], [b0], alp[:N]])

    if np.min(a) < 1.0 - 1e-9:
        raise MomentMismatch(
            f"window postcondition a_n >= 1 - 1e-9 violated (min a = {np.min(a)})"
        )
    window = JacobiWindow(-N, N, tuple(a.tolist()), tuple(b.tolist()), setting.R)
    ratios = prop311_check(window, setting.r)
    if not ratios.passed:
        raise MomentMismatch(
            f"window postcondition: adjacent ratio left (r^2, 1/r^2) by "
            f"{-ratios.worst_margin:.3e}"
        )
    return window


# ---------------------------------------------------------------------------
# continued-fraction oracle


def _settle(cf, z, m):
    """m taken through the free step of `cf` until it stops changing (at
    most 16 times): the floating-point value that a walk over many free
    sites settles on.  At every z of the CLI's oracle grid this takes at
    most two steps.  Elsewhere the rounded map can cycle within a few ulps
    instead, so the result may differ from a long walk's in the last bits."""
    for _ in range(16):
        step = cf(np.ones(1), np.zeros(1), z, m)
        if np.array_equal(step, m):
            break
        m = step
    return m


def m_oracle(J, z, side):
    """m functions of the window continued by the free operator, by
    continued fractions over the window's own sites.

    Past the window every step is the free map m -> -1/(z + m) (plus side)
    or m -> z - 1/m (minus side), and the free m values u and -1/u, with u
    the disk root of u^2 + z u + 1 = 0, are fixed points of these maps.  So
    free sites beyond the window change nothing, and the recursion starts at
    the window's edge from u (or -1/u) settled in floating point.  Returns
    an array of the shape of np.atleast_1d(z).
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z_arr.imag <= 0):
        raise BadParameter("oracle needs Im z > 0")
    u = np.array([1.0 / outer_root(zz) for zz in z_arr], dtype=complex)
    zero = -J.n_min  # array index of site 0
    if side == "plus":
        cf, sites, seed = _kernels.cf_plus, slice(zero + 1, None), u
    elif side == "minus":
        cf, sites, seed = _kernels.cf_minus, slice(0, zero + 1), -1.0 / u
    else:
        raise BadParameter(f"unknown side {side!r}")
    a, b = np.asarray(J.a[sites]), np.asarray(J.b[sites])
    return cf(a, b, z_arr, _settle(cf, z_arr, seed))


# ---------------------------------------------------------------------------
# coefficient-ratio check


@dataclass(frozen=True)
class RatioReport:
    passed: bool
    worst_margin: float


def prop311_check(J, r):
    """Adjacent-site ratio bounds r^2 < (a_{n+1}^2 - 1)/(a_n^2 - 1) < 1/r^2.

    Only pairs with both excesses a^2 - 1 above MIN_EXCESS participate: below
    that the excess is beyond the resolution of double-precision moment data.
    A window with no such pair passes, with margin inf.
    """
    a = np.asarray(J.a)
    excess = a * a - 1.0
    above = excess > MIN_EXCESS
    pairs = np.flatnonzero(above[:-1] & above[1:])
    if not pairs.size:
        return RatioReport(passed=True, worst_margin=math.inf)
    rho = excess[pairs + 1] / excess[pairs]
    # 1/r/r, not 1/(r*r): where r^2 underflows the upper bound is inf
    worst = min(np.min(rho - r * r), np.min(1.0 / r / r - rho))
    return RatioReport(passed=bool(worst > 0.0), worst_margin=float(worst))
