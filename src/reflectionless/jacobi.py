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
taken out analytically, and the eigenvalues are added back by the RKPW
update to the recurrence rows of the decaying rest in the free basis.  Those
rows are read off one Cholesky factorization of the rest's Gram matrix in
that basis wherever the factorization resolves every row (at most
CHOLESKY_MAX_ROWS rows, small pivot growth, no beta_k at rounding distance
from 1), and else off the modified Chebyshev algorithm, which keeps the
soliton presets, windows whose tails reach rounding, and every breakdown on
one rounding.  Power moments are never formed (going through them is
exponentially unstable).

An independent continued-fraction oracle evaluates the m functions of a
finite coefficient window continued by the free operator, which pins the
index conventions and cross-validates every reconstruction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels, herglotz
from .errors import (
    BadParameter,
    BadR,
    HankelBreakdown,
    InadmissibleSigma,
    MomentMismatch,
)
from .herglotz import outer_root, require_admissible
from .measure import moment, quadrature_atoms

BREAKDOWN_TOL = 1e-12
MIN_EXCESS = 1e-6
# The Cholesky route's gates, measured on 2 vCPUs with numpy 2.4.6 and OpenBLAS 0.3.31.
# At most 121 rows, a Gram matrix of order 122: OpenBLAS threads the factorization from
# order 128 on, where 1 and 2 threads round differently; up to 127 they give the same bits.
CHOLESKY_MAX_ROWS = 121
# pivot growth max G_kk / D_k: at most 1.1 on the 960 jacobi-deep sides of perfbench
# seeds 1-3, 16 to 35 on the soliton presets, whose window tails reach rounding
CHOLESKY_MAX_GROWTH = 2.0
# every |beta_k - 1| above CHOLESKY_FLOOR (N + 1) growth eps: on 1,410 sides of random
# jacobi measures (N = 40 to 120 rows) the route's beta_k left the sweep's by at most
# 0.12 of (N + 1) growth eps
CHOLESKY_FLOOR = 16.0


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


# ---------------------------------------------------------------------------
# moment extraction


def _deflated_moments(ts, ws, K):
    """Float arrays (nu, (E, mass)) of the half-line measure rho whose m
    function is F(lam) = lam + sum_{k>=2} s_{-1-k} lam^k, s the moments of
    the weighted nodes (ts, ws): rho puts the masses at the eigenvalues E off
    [-2, 2], and nu_0..nu_K are the free-basis moments of the rest.

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
    mass = w_in * ((1.0 - t_in) * (1.0 + t_in)) / (t_in * t_in)
    nu[0] = 1.0 - mass.sum()
    return nu, (-(t_in + 1.0 / t_in), mass)


def rho_plus_moments(sigma, K):
    """(nu, (E, mass)) of rho+, read off the lambda -> 0 expansion of F:
    m_plus(z) = F(lam(z)) with lam the unit-disk root of lam^2 + z lam + 1 = 0."""
    return _deflated_moments(*quadrature_atoms(sigma, (0.0,), K + 2), K)


def rho_minus_moments(sigma, K):
    """(nu, (E, mass)) of rho-, and the site-0 coefficients (a0, b0, a_{-1}).

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
    b0 = 0.0 - s1 / (1.0 - s2)  # not -s1: a free measure's b0 stays +0.0
    q = 1.0 - s2 + s0
    if not q > 0.0:
        raise InadmissibleSigma(f"needs 1 - s_{{-2}} + s_0 > 0, got {q}")
    a_minus1 = a0 * math.sqrt(q)
    ts, ws = quadrature_atoms(sigma, (0.0,), K + 2)
    return _deflated_moments(1.0 / ts, ws / (ts * ts * q), K), (a0, b0, a_minus1)


# ---------------------------------------------------------------------------
# recurrence extraction (Cholesky or modified Chebyshev, then RKPW)


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
    alpha[0] = al = sig[1] / sig[0]  # numpy's division: a zero mass gives nan, not an exception
    beta[0] = be = sig[0]
    p0, p1 = sig[:2].tolist()  # sigma_{k-1}[k-1], sigma_{k-1}[k]
    tmp = np.empty(K)
    for k in range(1, N):
        new, t = prev[2:-2], tmp[:K - 2 * k]  # new overwrites sigma_{k-2}[k:]
        new *= be
        np.multiply(sig[1:-1], al, t)
        np.subtract(sig[2:], t, t)
        np.subtract(t, new, new)
        new += sig[:-2]
        n0, n1 = new[:2].tolist()
        be = n0 / p0 if p0 != 0.0 else math.nan
        if not be > BREAKDOWN_TOL:
            raise HankelBreakdown(k + 1, "moment pivot failed within the rows the window needs")
        alpha[k] = al = n1 / n0 - p1 / p0
        beta[k] = be
        prev, sig, p0, p1 = sig, new, n0, n1
    return alpha, beta


def _add_nodes(alpha, beta, nodes):
    """Recurrence rows of the measure plus the nodes (x, w), in place, on Python
    floats, by the RKPW update (Gragg & Harrod 1984; Gautschi's OPQ `lanczos`).
    Row k of the result depends only on rows 0..k, so the rows kept are exact."""
    a, b = alpha.tolist(), beta.tolist()
    for x, pn in zip(*np.asarray(nodes).tolist()):
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


def _gram(nu, n):
    """G_ij = sum_{m <= min(i, j)} nu_{|i-j|+2m}, 0 <= i, j < n, the Gram matrix
    of the free basis (U_i U_j = sum_m U_{|i-j|+2m}), from nu_0 .. nu_{2n-2}:
    with the tail sums T[l] = nu_l + nu_{l+2} + ..., the Toeplitz view
    T[|i-j|] less the Hankel view T[i + j + 2].  Tail sums, not running sums,
    so an entry far off the diagonal carries rounding of its own size."""
    top = 2 * n - 2
    T = np.zeros(4 * n - 1)  # T[|l|] at index n - 1 + l, l = 1 - n .. 2n; zero past nu_top
    tail = T[n - 1:]
    tail[top::-2] = np.cumsum(nu[top::-2])
    tail[top - 1::-2] = np.cumsum(nu[top - 1::-2])
    T[:n - 1] = tail[n - 1:0:-1]
    step = T.strides[0]
    toeplitz = np.lib.stride_tricks.as_strided(tail, (n, n), (-step, step))
    hankel = np.lib.stride_tricks.as_strided(tail[2:], (n, n), (step, step))
    return toeplitz - hankel


def _cholesky_rows(nu, N):
    """(alpha, beta) of N rows from the Cholesky factor L of the Gram matrix
    of nu_0 .. nu_2N (Gautschi, Orthogonal Polynomials, 2004, Sec. 2.1):
    D_k = L_kk^2, beta_k = D_k / D_{k-1} and alpha_k = L_{k+1,k}/L_kk -
    L_{k,k-1}/L_{k-1,k-1}.  None unless the factorization resolves every row
    by its own checks: at most CHOLESKY_MAX_ROWS rows, pivot growth max G_kk /
    D_k at most CHOLESKY_MAX_GROWTH, every pivot beta_k (k >= 1) above
    BREAKDOWN_TOL and every |beta_k - 1| above the rounding floor
    CHOLESKY_FLOOR (N + 1) growth eps."""
    if not 2 <= N <= CHOLESKY_MAX_ROWS or len(nu) <= 2 * N:
        return None
    with np.errstate(all="ignore"):  # moments not finite, or pivots that underflow, fail a test
        G = _gram(np.asarray(nu, dtype=float), N + 1)
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:  # not positive definite, or not finite
            return None
        d = L.diagonal()
        D = d * d
        growth = np.max(G.diagonal() / D)
        beta = D[1:N] / D[:N - 1]
        floor = CHOLESKY_FLOOR * (N + 1) * growth * np.finfo(float).eps
        if not (growth <= CHOLESKY_MAX_GROWTH and np.min(beta) > BREAKDOWN_TOL
                and np.min(np.abs(beta - 1.0)) > floor):
            return None
        ratio = L.diagonal(-1) / d[:N]  # L_{k+1,k} / L_kk
    return np.diff(ratio, prepend=0.0), np.concatenate(([nu[0]], beta))


def moments_to_recurrence(m, N):
    """Three-term recurrence coefficients of the measure m = (nu, (E, mass)).

    Returns (alpha, beta) with beta[0] the total mass and sqrt(beta[k]) the
    off-diagonal entries.  The deflated part's rows come from one Cholesky
    factorization where _cholesky_rows resolves all of them, else from
    _wheeler, which raises HankelBreakdown at the first pivot at or below
    BREAKDOWN_TOL.
    """
    nu, nodes = m
    if len(nu) < 2 * N:
        raise HankelBreakdown(N, f"need {2 * N} moments for {N} rows, have {len(nu)}")
    rows = _cholesky_rows(nu, N)
    alpha, beta = _wheeler(nu, N) if rows is None else rows
    _add_nodes(alpha, beta, nodes)
    return alpha, beta


# ---------------------------------------------------------------------------
# window assembly


# the widest window: one beyond it can exhaust memory or run for minutes
MAX_ORDER = 10_000


def reconstruct(sigma, setting, N):
    """Window of Jacobi coefficients for n in [-N, N] from an admissible measure.

    Site map fixed by oracle calibration: the rho+ recurrence fills sites
    1..N, (a0, b0, a_{-1}) come from the rho- asymptotics, and the rho-
    recurrence fills sites -1..-N (couplings a_{-2}..a_{-N}).
    """
    if not isinstance(N, numbers.Integral) or not 1 <= N <= MAX_ORDER:
        raise BadParameter(f"window half-width N must be an integer from 1 to {MAX_ORDER}")
    if setting.kind != "jacobi":
        raise BadR(f"reconstruct needs the jacobi setting, got {setting.kind!r}")
    require_admissible(sigma, setting)
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


ORACLE_GRID = tuple(
    complex(x, y) for x in (-2.0, -1.0, 0.0, 1.0, 2.0) for y in (1.0, 1.5, 2.0, 2.5, 3.0)
)


def _free_state(z):
    """-outer_root(z) at each z of the array z, the fixed point of the free
    map w -> z - 1/w, settled in floating point: taken through the map until
    it stops changing, at most 16 times.  At every z of ORACLE_GRID this
    takes at most two steps; elsewhere the rounded map can cycle within
    a few ulps."""
    w = -np.array([outer_root(zz) for zz in z.tolist()], dtype=complex)
    for _ in range(16):
        step = z - 1.0 / w
        if np.array_equal(step, w):
            break
        w = step
    return w


def m_oracle(J, z, side):
    """m functions of the window continued by the free operator, by
    continued fractions over the window's own sites.

    Both sides run one descent, w -> z - b_k - a_k^2 / w from the window's
    edge toward site 0, seeded with _free_state(z), which free sites beyond
    the window leave unchanged.  The plus side descends sites n_max..1 and
    m_+ = -1/w.  The minus side descends the window reflected about site
    1/2, b''_k = b_{1-k} and a''_k = a_{-k} with a = 1 past the window, so
    that w = a_0^2 m_-.  Returns an array of the shape of np.atleast_1d(z).
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(z_arr) & (z_arr.imag > 0)):
        raise BadParameter("oracle needs a finite z with Im z > 0")
    zero = -J.n_min  # array index of site 0
    if side == "plus":
        a, b = J.a[zero + 1:], J.b[zero + 1:]
    elif side == "minus":
        a, b = (*J.a[:zero][::-1], 1.0), J.b[zero::-1]
    else:
        raise BadParameter(f"unknown side {side!r}")
    w = _kernels.cf_plus(np.asarray(a), np.asarray(b), z_arr, _free_state(z_arr))
    return -1.0 / w if side == "plus" else w / (J.a[zero] * J.a[zero])


def oracle_residual(window, sigma, setting):
    """max |m_oracle - m_value| over ORACLE_GRID and both sides: the window's
    cross-check against the measure it was reconstructed from, NaN kept.
    m_value is read off the herglotz module at each call, so a wrapper set
    there (the benchmark's tracer) sees all 50 calls."""
    z = np.asarray(ORACLE_GRID)
    return float(np.max([
        np.abs(m_oracle(window, z, side) - [herglotz.m_value(sigma, setting, zz, side) for zz in z])
        for side in ("plus", "minus")
    ]))


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
    A window with no such pair passes, with margin inf; a non-finite coupling
    fails.
    """
    a = np.asarray(J.a)
    excess = a * a - 1.0
    above = ~(excess <= MIN_EXCESS)  # a NaN excess takes part, and fails
    pairs = np.flatnonzero(above[:-1] & above[1:])
    if not pairs.size:
        return RatioReport(passed=True, worst_margin=math.inf)
    rho = excess[pairs + 1] / excess[pairs]
    # 1/r/r, not 1/(r*r): where r^2 underflows the upper bound is inf, less an inf rho a NaN
    with np.errstate(invalid="ignore"):
        worst = np.minimum(np.min(rho - r * r), np.min(1.0 / r / r - rho))  # NaN kept
    return RatioReport(passed=bool(worst > 0.0), worst_margin=float(worst))
