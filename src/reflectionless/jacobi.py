"""Whole-line Jacobi coefficients from an admissible representing measure.

The route: the measure determines F; the expansions of F at lambda -> 0 and
|lambda| -> infinity are the 1/z expansions of the two half-line m functions,
whose representing probability measures rho+- have three-term recurrence
coefficients equal to the half-line Jacobi parameters.  The recurrence rows
are produced by the modified Chebyshev algorithm with auxiliary Chebyshev
polynomials rescaled to [-R, R], whose modified moments are read directly
off the expansion of the m function in the inverse Joukowski variable of
[-R, R] (going through raw power moments is exponentially unstable).  Power
moments are derived from the Chebyshev moments on demand, for inspection
and cross-checks only.

An independent continued-fraction oracle evaluates the m functions of a
finite coefficient window continued by the free operator, which pins the
index conventions and cross-validates every reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import (
    AdmissibilityRequired,
    BadR,
    FreeOperator,
    HankelBreakdown,
    InadmissibleSigma,
    MomentMismatch,
)
from .herglotz import admissible_discrete, outer_root
from .measure import moments
from .series import DEFAULT_ORDER, _conv

CLAMP_TOL = 1e-6
BREAKDOWN_TOL = 1e-12


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
            raise ValueError("window must contain site 0")
        if len(self.a) != self.n_max - self.n_min + 1 or len(self.b) != len(self.a):
            raise ValueError("coefficient arrays must match the window")

    def a_at(self, n):
        return self.a[n - self.n_min] if self.n_min <= n <= self.n_max else 1.0

    def b_at(self, n):
        return self.b[n - self.n_min] if self.n_min <= n <= self.n_max else 0.0

    @staticmethod
    def free(N, R=2.0):
        n = 2 * N + 1
        return JacobiWindow(-N, N, (1.0,) * n, (0.0,) * n, float(R))


@dataclass(frozen=True)
class AsymptoticMoments:
    """Moment data of one half-line spectral measure.

    cheb_mu are the moments nu_k = int T_k(t/R) d rho against Chebyshev
    polynomials rescaled to [-R, R] (nu_0 = 1 for probability
    normalization), which is what the recurrence extraction consumes.
    a0/b0 are the site-0 coefficients determined by the measure; a_minus1
    only exists on the minus side.
    """

    side: str
    a0: float
    b0: float
    a_minus1: float
    R: float
    cheb_mu: tuple

    @property
    def mu(self):
        """Power moments mu_k = int t^k d rho, k < len(cheb_mu), from
        (t/R)^k = 2^(1-k) sum_i C(k, i) T_{k-2i}(t/R) with the T_0 term
        halved.  The weights are positive and sum to one, so this direction
        does not amplify errors in cheb_mu."""
        nu = np.asarray(self.cheb_mu, dtype=float)
        mu = np.empty(len(nu))
        for k in range(len(nu)):
            i = np.arange(k // 2 + 1)
            w = np.array([math.comb(k, j) for j in i], dtype=float) * 2.0 ** (1 - k)
            if k % 2 == 0:
                w[-1] *= 0.5
            mu[k] = self.R ** k * np.dot(w, nu[k - 2 * i])
        return tuple(mu)


# ---------------------------------------------------------------------------
# cached universal series


@lru_cache(maxsize=8)
def _lambda_small_of_v(R, order):
    """Composition operator M[k, j] = [v^k] lam^j of the unit-disk root of
    lam^2 + z lam + 1 = 0 along z = R(v + 1/v)/2; column 1 is the series
    lam(v) itself.  With lam fixed, f -> f(lam) is linear in the
    coefficients of f, so every composition with lam is the product M @ f.

    Dense fixed-point iteration on lam = -(2v/R)(1 + lam^2)/(1 + v^2); all
    coefficients stay O(1) because the series has unit radius.  The cache
    keeps eight (R, order) entries of order^2 doubles each, 6.9 MB at order
    328 (N = 160).
    """
    inv = np.zeros(order)
    inv[0::4] = 1.0
    inv[2::4] = -1.0  # 1/(1+v^2)
    lam = np.zeros(order)
    prev = None
    for _ in range(order // 2 + 2):
        t = _conv(_conv(lam, lam, order), inv, order)
        new = np.zeros(order)
        new[1:] = -(2.0 / R) * (inv[: order - 1] + t[: order - 1])
        if prev is not None and np.array_equal(new, prev):
            break
        prev = lam = new
    M = np.zeros((order, order))
    M[0, 0] = 1.0
    for j in range(1, order):
        M[:, j] = _conv(M[:, j - 1], lam, order)
    return M


def _f_taylor_dense(sigma, order):
    """Taylor coefficients of F at lambda = 0 (jacobi formula): c[k] = s_{-1-k}."""
    c = moments(sigma, -1 - np.arange(order))
    s1, s2 = c[0], c[1]
    c[0] = -s1 + s1        # constant of F cancels the k=0 Cauchy term exactly
    c[1] = (1.0 - s2) + s2  # so F(lam) = lam + O(lam^2) holds to the last bit
    return c


def _positive_moment_gen_dense(sigma, order):
    """G(x) = sum_k s_k x^{k+1} with s_k the positive power moments."""
    g = np.zeros(order)
    g[1:] = moments(sigma, np.arange(order - 1))
    return g


def _cheb_moments_from_m_series(mser_lead1, R, count):
    """Coefficients of m(z(v)) -> Chebyshev moments of its measure.

    Uses 1/(t - z(v)) = -(2v/(1-v^2))/R * (1 + 2 sum T_k(t/R) v^k) so that
    multiplying the v-series of the Cauchy transform by -R(1-v^2)/(2v)
    exposes nu_k = int T_k(t/R) d rho directly.
    """
    shifted = mser_lead1[1:]
    out = shifted.copy()
    out[2:] -= shifted[:-2]
    out *= -R / 2.0
    nu = out[:count].copy()
    nu[1:] *= 0.5
    return nu


# ---------------------------------------------------------------------------
# moment extraction


def rho_plus_moments(sigma, setting, K, order=None):
    """Chebyshev moments nu_0..nu_K of rho+ from the lambda -> 0 expansion of F.

    Composes the Taylor series of F with the small root lam(v), which gives
    m_plus(z(v)) = F(lam(v)) in the inverse Joukowski variable v of [-R, R].
    """
    order = order if order is not None else max(DEFAULT_ORDER, K + 6)
    f = _f_taylor_dense(sigma, order)
    mv = _lambda_small_of_v(setting.R, order) @ f
    nu = _cheb_moments_from_m_series(mv, setting.R, K + 1)
    if abs(nu[0] - 1.0) > 1e-10:
        raise MomentMismatch(f"rho+ normalization check failed: nu0 = {nu[0]!r}")
    s1, s2 = moments(sigma, [-1, -2])
    a0 = (1.0 - s2) ** -0.5 if s2 < 1.0 else math.nan
    b0 = -s1 / (1.0 - s2) if s2 < 1.0 else math.nan
    return AsymptoticMoments(
        side="plus", a0=a0, b0=b0, a_minus1=None, R=setting.R, cheb_mu=tuple(nu),
    )


def rho_minus_moments(sigma, setting, K, order=None):
    """Chebyshev moments of rho- plus the boundary coefficients (a0, b0, a_{-1}).

    a0 = (1 - s_{-2})^{-1/2} and b0 = -s_{-1}/(1 - s_{-2}); the |lambda| ->
    infinity Laurent expansion of -F then carries rho- through
    a0^2 m_-(z) = z - b0 - a_{-1}^2 sum mu_k z^{-k-1}.
    """
    order = order if order is not None else max(DEFAULT_ORDER, K + 6)
    s1, s2, s0 = moments(sigma, [-1, -2, 0])
    if not s2 < 1.0:
        raise InadmissibleSigma(f"needs s_{{-2}} < 1, got {s2}")
    a0 = (1.0 - s2) ** -0.5
    b0 = -s1 / (1.0 - s2)
    q = 1.0 - s2 + s0
    if not q > 0.0:
        raise InadmissibleSigma(f"needs 1 - s_{{-2}} + s_0 > 0, got {q}")
    a_minus1 = a0 * math.sqrt(q)

    # -F at the large root 1/lam(v) = -z(v) - lam(v) is s1 - (1 - s2)/lam +
    # G(lam), so g(z(v)) = (a0^2 m_-(z(v)) - z(v) + b0)/a_{-1}^2 carries the
    # Chebyshev moments of rho-
    c = 1.0 - s2
    g = _positive_moment_gen_dense(sigma, order)
    R = setting.R
    M_v = _lambda_small_of_v(R, order)
    lam_v = M_v[:, 1]
    gl = M_v @ g
    ser = np.zeros(order)  # exponents -1 .. order-2
    ser[0] += a0 ** 2 * c * (R / 2.0)   # -a0^2 c * (-(R/2)/v)
    ser[2] += a0 ** 2 * c * (R / 2.0)
    ser[1:] += a0 ** 2 * c * lam_v[: order - 1]
    ser[1] += a0 ** 2 * s1
    ser[1:] += a0 ** 2 * gl[: order - 1]
    ser[0] -= R / 2.0                    # subtract z(v)
    ser[2] -= R / 2.0
    ser[1] += b0
    if abs(ser[0]) > 1e-9 or abs(ser[1]) > 1e-7 * max(1.0, abs(b0)):
        raise MomentMismatch("rho- Chebyshev expansion lost its leading cancellation")
    nu = _cheb_moments_from_m_series(ser[1:] / a_minus1 ** 2, R, K + 1)
    if abs(nu[0] - 1.0) > 1e-10:
        raise MomentMismatch(f"rho- normalization check failed: nu0 = {nu[0]!r}")
    return AsymptoticMoments(
        side="minus", a0=a0, b0=b0, a_minus1=a_minus1, R=R, cheb_mu=tuple(nu),
    )


# ---------------------------------------------------------------------------
# recurrence extraction (modified Chebyshev)


def _wheeler(nu_monic, N, R):
    """Modified Chebyshev algorithm: monic auxiliary moments -> (alpha, beta).
    Row k of the mixed moments, sigma_k[l] for k <= l < 2N - k, is an array
    from l = k written in place over row k - 2; rows from the first
    exact-zero pivot on are NaN."""
    K = 2 * N
    alpha = np.full(N, np.nan)
    beta = np.full(N, np.nan)
    prev = np.zeros(K + 2)  # sigma_{-1}, from l = -1
    sig = np.array(nu_monic[:K], dtype=float)  # sigma_0, from l = 0
    alpha[0] = sig[1] / sig[0]
    beta[0] = sig[0]
    bhat = np.full(K - 2, R * R / 4.0)  # b_l for l >= 1 on the first row
    if K > 2:
        bhat[0] = R * R / 2.0
    quarter = np.float64(R * R / 4.0)  # b_l for l >= 2: a numpy scalar is the faster operand
    p0, p1 = sig[:2].tolist()  # sigma_{k-1}[k-1], sigma_{k-1}[k]
    tmp = np.empty(K)
    for k in range(1, N):
        new, t = prev[2:-2], tmp[:K - 2 * k]  # new overwrites sigma_{k-2}[k:]
        new *= beta[k - 1]
        np.multiply(sig[1:-1], alpha[k - 1], t)
        np.subtract(sig[2:], t, t)
        np.subtract(t, new, new)
        np.multiply(sig[:-2], bhat, t)
        new += t
        n0, n1 = new[:2].tolist()
        if n0 == 0.0 or p0 == 0.0:
            break
        alpha[k] = n1 / n0 - p1 / p0
        beta[k] = n0 / p0
        prev, sig, p0, p1, bhat = sig, new, n0, n1, quarter
    return alpha, beta


def moments_to_recurrence(m, N, allow_early_stop=False):
    """Three-term recurrence coefficients of the orthonormal polynomials.

    Returns (alpha, beta) with beta[0] the total mass and sqrt(beta[k]) the
    off-diagonal entries.  Raises HankelBreakdown at the first nonpositive
    pivot unless allow_early_stop is set, in which case the valid row count
    is returned as a third element.
    """
    if len(m.cheb_mu) < 2 * N:
        raise HankelBreakdown(N, f"need {2 * N} moments for {N} rows, have {len(m.cheb_mu)}")
    nu = np.asarray(m.cheb_mu[: 2 * N], dtype=float).copy()
    k = np.arange(1, 2 * N)
    nu[1:] *= m.R ** k * 2.0 ** (1 - k)
    alpha, beta = _wheeler(nu, N, m.R)
    n_valid = N
    tol = BREAKDOWN_TOL * max(1.0, m.R ** 2 / 4.0)
    for k in range(1, N):
        if not beta[k] > tol:
            n_valid = k
            break
    if n_valid < N and not allow_early_stop:
        raise HankelBreakdown(n_valid + 1)
    if allow_early_stop:
        return alpha, beta, n_valid
    return alpha, beta


# ---------------------------------------------------------------------------
# window assembly


def _assemble_side(alpha, beta, n_valid, n_rows, clamp_tol):
    """Turn recurrence rows into (a, b) site lists with the free-tail clamp.

    Coefficient deviations from the free values decay geometrically, so once
    a row is within clamp_tol of free the whole remaining tail is below that
    scale and is replaced by the exact free coefficients.  A pivot breakdown
    before any near-free row signals genuinely deficient moments.
    """
    rows = n_rows if n_valid >= len(beta) else min(n_rows, n_valid - 1)  # before the failed pivot
    a_k = np.sqrt(beta[1:rows + 1])
    b_k = alpha[:rows]
    near_free = np.flatnonzero(np.maximum(np.abs(a_k - 1.0), np.abs(b_k)) < clamp_tol)
    if near_free.size:
        rows = near_free[0]  # geometric decay: the rest of the tail is below clamp_tol
    elif rows < n_rows:
        raise HankelBreakdown(
            n_valid + 1,
            "moment pivot failed before the coefficients reached the free tail",
        )
    a_rows = np.ones(n_rows)
    b_rows = np.zeros(n_rows)
    a_rows[:rows] = a_k[:rows]
    b_rows[:rows] = b_k[:rows]
    return a_rows, b_rows


def reconstruct(sigma, setting, N, clamp_tol=CLAMP_TOL):
    """Window of Jacobi coefficients for n in [-N, N] from an admissible measure.

    Site map fixed by oracle calibration: the rho+ recurrence fills sites
    1..N, (a0, b0, a_{-1}) come from the rho- asymptotics, and the rho-
    recurrence fills sites -1..-N (couplings a_{-2}..a_{-N}).
    """
    if N < 1:
        raise ValueError("window half-width N must be at least 1")
    if setting.kind != "jacobi":
        raise BadR(f"reconstruct needs the jacobi setting, got {setting.kind!r}")
    setting.validated(sigma)
    report = admissible_discrete(sigma, setting)
    if not report.passed:
        raise AdmissibilityRequired(
            f"measure fails the boundary inequality (min {report.min_value:.3e} "
            f"at E = {report.argmin:.6g})"
        )
    K = 2 * N + 2
    plus = rho_plus_moments(sigma, setting, K)
    minus = rho_minus_moments(sigma, setting, K)
    alp, bep, nvp = moments_to_recurrence(plus, N + 1, allow_early_stop=True)
    alm, bem, nvm = moments_to_recurrence(minus, N + 1, allow_early_stop=True)

    a_plus, b_plus = _assemble_side(alp, bep, nvp, N, clamp_tol)
    a_minus_rows, b_minus_rows = _assemble_side(alm, bem, nvm, N, clamp_tol)

    n_sites = 2 * N + 1
    a = np.ones(n_sites)
    b = np.zeros(n_sites)
    zero = N  # array index of site 0
    b[zero] = minus.b0
    a[zero] = minus.a0
    a[zero - 1] = minus.a_minus1
    a[zero + 1:] = a_plus
    b[zero + 1:] = b_plus
    b[:zero] = b_minus_rows[::-1]
    a[:zero - 1] = a_minus_rows[:N - 1][::-1]

    if np.min(a) < 1.0 - 1e-9:
        raise MomentMismatch(
            f"window postcondition a_n >= 1 - 1e-9 violated (min a = {np.min(a)})"
        )
    window = JacobiWindow(-N, N, tuple(a), tuple(b), setting.R)
    try:
        ratios = prop311_check(window, setting.r)
        if not ratios.passed:
            raise MomentMismatch(
                f"window postcondition: adjacent ratio left (r^2, 1/r^2) by "
                f"{-ratios.worst_margin:.3e}"
            )
    except FreeOperator:
        pass
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
    the window's edge from u (or -1/u) settled in floating point.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z_arr.imag <= 0):
        raise ValueError("oracle needs Im z > 0")
    u = np.array([1.0 / outer_root(zz) for zz in z_arr], dtype=complex)
    zero = -J.n_min  # array index of site 0
    if side == "plus":
        cf, sites, seed = _kernels.cf_plus, slice(zero + 1, None), u
    elif side == "minus":
        cf, sites, seed = _kernels.cf_minus, slice(0, zero + 1), -1.0 / u
    else:
        raise ValueError(f"unknown side {side!r}")
    a, b = np.asarray(J.a[sites]), np.asarray(J.b[sites])
    out = cf(a, b, z_arr, _settle(cf, z_arr, seed))
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


# ---------------------------------------------------------------------------
# coefficient-ratio check


@dataclass(frozen=True)
class RatioReport:
    passed: bool
    worst_margin: float
    n_pairs: int
    ratios: tuple


def prop311_check(J, r, min_excess=1e-6):
    """Adjacent-site ratio bounds r^2 < (a_{n+1}^2 - 1)/(a_n^2 - 1) < 1/r^2.

    Only pairs with both excesses a^2 - 1 above min_excess participate: below
    that the excess is beyond the resolution of double-precision moment data.
    Raises FreeOperator when no site qualifies.
    """
    a = np.asarray(J.a)
    excess = a * a - 1.0
    above = excess > min_excess
    if not above.any():
        raise FreeOperator("window is free to within min_excess; ratio check not applicable")
    pairs = np.flatnonzero(above[:-1] & above[1:])
    if not pairs.size:
        raise FreeOperator("no adjacent pair above min_excess")
    rho = excess[pairs + 1] / excess[pairs]
    worst = min(np.min(rho - r * r), np.min(1.0 / (r * r) - rho))
    return RatioReport(
        passed=bool(worst > 0.0),
        worst_margin=float(worst),
        n_pairs=len(pairs),
        ratios=tuple(zip((J.n_min + pairs).tolist(), rho.tolist())),
    )
