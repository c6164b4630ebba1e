"""Shared test utilities: seeded generators of admissible random measures and
reference routes that cross-check the production ones."""

import math

import mpmath
import numpy as np

from reflectionless import Measure, Setting, herglotz
from reflectionless.errors import FreeOperator, HankelBreakdown
from reflectionless.herglotz import AdmissibilityReport, admissible_continuous, admissible_discrete
from reflectionless.jacobi import RatioReport
from reflectionless.measure import quadrature_atoms, solve_r


def random_jacobi_measure(rng, r_lo=2.002, r_hi=2.05, edge_margin=0.12):
    """Random atomic measure satisfying the jacobi boundary inequality.

    Keeps R close to 2 so that coefficient deviations stay resolvable in
    double precision out to deep window rows, and scales the total weight so
    the boundary function stays safely positive.
    """
    R = float(rng.uniform(r_lo, r_hi))
    r = solve_r(R)
    ring = 1.0 / r - r
    lo, hi = r + edge_margin * ring, 1.0 / r - edge_margin * ring
    n_atoms = int(rng.randint(2, 6))
    ts = rng.uniform(lo, hi, n_atoms) * np.where(rng.rand(n_atoms) < 0.5, -1.0, 1.0)
    beta = edge_margin * ring
    w_total = float(rng.uniform(0.2, 0.8)) * beta * (ring - beta)
    ws = rng.dirichlet(np.ones(n_atoms)) * w_total
    sigma = Measure.from_atoms(zip(ts, ws))
    setting = Setting.jacobi(R)
    setting.validated(sigma)
    assert admissible_discrete(sigma, setting).passed
    return sigma, setting


def random_schrodinger_measure(rng, R_lo=1.0, R_hi=3.0, edge_margin=0.1):
    """Random atomic measure satisfying the schrodinger endpoint inequality."""
    R = float(rng.uniform(R_lo, R_hi))
    n_atoms = int(rng.randint(1, 5))
    ts = rng.uniform(-R * (1 - edge_margin), R * (1 - edge_margin), n_atoms)
    # endpoint value 1 + sum w/(t^2 - R^2) >= 0 needs sum w/(R^2 - t^2) <= 1
    caps = R * R - ts * ts
    ws = rng.dirichlet(np.ones(n_atoms)) * caps * float(rng.uniform(0.1, 0.8))
    ws = ws * min(1.0, 0.9 / float(np.sum(ws / caps)))
    sigma = Measure.from_atoms(zip(ts, ws))
    setting = Setting.schrodinger(R)
    setting.validated(sigma)
    assert admissible_continuous(sigma, setting).passed
    return sigma, setting


SCAN_POINTS = 4096


def boundary_scan(sigma, setting):
    """The jacobi boundary function on a SCAN_POINTS grid s = r k / SCAN_POINTS
    of each ray: (s grid, {ray: values}), ray = sign(E)."""
    r = setting.r
    s_arr = r * np.arange(1, SCAN_POINTS + 1) / SCAN_POINTS
    atoms = herglotz._boundary_atoms(sigma, r)
    return s_arr, {ray: herglotz._boundary_on_s_grid(atoms, s_arr, -ray) for ray in (-1.0, 1.0)}


def scan_admissible_discrete(sigma, setting):
    """The dense route to admissible_discrete's report: the minimum of the
    SCAN_POINTS grid of each ray, refined by golden section between the
    neighbours of the grid minimum, each step mapping s to E and back."""
    r = setting.r
    s_arr, grids = boundary_scan(sigma, setting)
    atoms = herglotz._boundary_atoms(sigma, r)

    def value(E):
        s = (abs(E) - math.sqrt(max(E * E - 4.0, 0.0))) / 2.0
        return float(herglotz._boundary_on_s_grid(atoms, s, math.copysign(1.0, -E))[0])

    best_val, best_E = math.inf, math.nan
    samples = []
    for ray, vals in grids.items():
        E_arr = ray * (s_arr + 1.0 / s_arr)
        k = int(np.nanargmin(vals))
        if vals[k] < best_val:
            best_val, best_E = float(vals[k]), float(E_arr[k])
        lo = s_arr[max(k - 1, 0)]
        hi = s_arr[min(k + 1, len(s_arr) - 1)]
        if hi > lo and np.isfinite(vals[k]):
            invphi = (math.sqrt(5.0) - 1.0) / 2.0
            f = lambda x: value(ray * (x + 1.0 / x))
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            fc, fd = f(c), f(d)
            for _ in range(60):
                if fc < fd:
                    hi, d, fd = d, c, fc
                    c = hi - invphi * (hi - lo)
                    fc = f(c)
                else:
                    lo, c, fc = c, d, fd
                    d = lo + invphi * (hi - lo)
                    fd = f(d)
                if hi - lo < 1e-15 * r:
                    break
            s_best, f_best = (c, fc) if fc < fd else (d, fd)
            if f_best < best_val:
                best_val, best_E = float(f_best), float(ray * (s_best + 1.0 / s_best))
        step = SCAN_POINTS // 64
        samples.extend((float(E), float(v)) for E, v in zip(E_arr[::step], vals[::step]))
    return AdmissibilityReport(
        passed=bool(best_val > herglotz.ADMISSIBILITY_TOL),
        min_value=best_val,
        argmin=best_E,
        samples=tuple(samples),
    )


def _gl_apply(f, a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    h = 0.5 * (b - a)
    return h * np.sum(w * f(a + h * (x + 1.0)))


def adaptive_gauss_legendre(f, a, b, rtol=1e-12, max_depth=40):
    """Adaptive Gauss-Legendre for a vectorized (possibly complex) integrand:
    the reference the production piece rule is checked against."""
    scale = abs(_gl_apply(f, a, b, 15)) + 1e-300
    total = 0.0 + 0.0j
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        coarse = _gl_apply(f, lo, hi, 15)
        fine = _gl_apply(f, lo, hi, 30)
        err = abs(fine - coarse)
        if err <= rtol * max(abs(fine), scale) or depth >= max_depth:
            total += fine
            scale = max(scale, abs(total))
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total


def recurrence_via_cholesky(mu, N):
    """Raw-moment Hankel Cholesky route to (alpha, beta).

    Exponentially ill-conditioned with depth, so never a production route,
    but at shallow N it independently confirms the modified Chebyshev output.
    """
    H = np.array([[mu[i + j] for j in range(N + 1)] for i in range(N + 1)])
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise HankelBreakdown(N + 1, str(exc)) from None
    alpha = np.empty(N)
    beta = np.empty(N)
    beta[0] = mu[0]
    for k in range(1, N):
        beta[k] = (L[k, k] / L[k - 1, k - 1]) ** 2
    for k in range(N):
        t1 = L[k + 1, k] / L[k, k]
        t0 = L[k, k - 1] / L[k - 1, k - 1] if k > 0 else 0.0
        alpha[k] = t1 - t0
    return alpha, beta


def loop_wheeler(nu_monic, N):
    """jacobi._wheeler with a fresh, zero-padded row array per row: the
    reference the in-place sweep must match bit for bit."""
    K = 2 * N
    bhat = np.ones(K)  # the free recurrence: beta-hat = 1 from l = 1 on
    bhat[0] = 0.0
    alpha = np.zeros(N)
    beta = np.zeros(N)
    sig_prev = np.zeros(K)
    sig = np.asarray(nu_monic[:K], dtype=float).copy()
    alpha[0] = sig[1] / sig[0]
    beta[0] = sig[0]
    for k in range(1, N):
        sig_new = np.zeros(K)
        l = slice(k, K - k)
        sig_new[l] = (
            sig[k + 1:K - k + 1]
            - alpha[k - 1] * sig[l]
            - beta[k - 1] * sig_prev[l]
            + bhat[l] * sig[k - 1:K - k - 1]
        )
        if sig_new[k] == 0.0 or sig[k - 1] == 0.0:
            alpha[k:] = np.nan
            beta[k:] = np.nan
            break
        alpha[k] = sig_new[k + 1] / sig_new[k] - sig[k] / sig[k - 1]
        beta[k] = sig_new[k] / sig[k - 1]
        sig_prev, sig = sig, sig_new
    return alpha, beta


def power_moments(m):
    """Power moments mu_n = int x^n d rho, n < len(m.nu), of the measure an
    AsymptoticMoments describes: x^n = sum_j (C(n, j) - C(n, j - 1))
    U_{n-2j}(x/2) on the deflated part, plus sum mass E^n over its nodes."""
    nu = np.asarray(m.nu, dtype=float)
    mu = np.empty(len(nu))
    for n in range(len(nu)):
        j = np.arange(n // 2 + 1)
        c = np.array([math.comb(n, i) - (math.comb(n, i - 1) if i else 0) for i in j], dtype=float)
        mu[n] = np.dot(c, nu[n - 2 * j]) + sum(w * E ** n for E, w in m.nodes)
    return mu


# ---------------------------------------------------------------------------
# the mpmath reference for reconstruct


def _reference_power_moments(f, count):
    """Power moments mu_0..mu_{count-1} of the measure whose m function is
    sum_{k>=1} f[k-1] lam^k, with lam = -w C(w^2) the disk root as a series
    in w = 1/z (C the Catalan series): [w^{n+1}] lam^k is (-1)^k k/(n+1)
    C(n+1, (n+1-k)/2), and m = -sum mu_n w^{n+1}."""
    mu = []
    for n in range(count):
        total = mpmath.mpf(0)
        for k in range(n + 1, 0, -2):
            c = mpmath.mpf(k * math.comb(n + 1, (n + 1 - k) // 2)) / (n + 1)
            total += f[k - 1] * c if k % 2 else -f[k - 1] * c
        mu.append(total)
    return mu


def _reference_chebyshev(mu, N):
    """The classical Chebyshev algorithm on power moments (Gautschi,
    Orthogonal Polynomials, 2004, Sec. 2.1.7): (alpha, beta), N rows."""
    alpha, beta = [mu[1] / mu[0]], [mu[0]]
    prev, sig = [mpmath.mpf(0)] * (2 * N), list(mu[:2 * N])
    for k in range(1, N):
        new = [mpmath.mpf(0)] * (2 * N)
        for l in range(k, 2 * N - k):
            new[l] = sig[l + 1] - alpha[k - 1] * sig[l] - beta[k - 1] * prev[l]
        alpha.append(new[k + 1] / new[k] - sig[k] / sig[k - 1])
        beta.append(new[k] / sig[k - 1])
        prev, sig = sig, new
    return alpha, beta


def reference_window(ts, ws, N):
    """reconstruct's window at clamp_tol = 0 for the measure sum w delta_t,
    as (a, b) float arrays over sites -N..N, by a route that shares none of
    the production one: power moments of rho+- straight from the Taylor
    coefficients of F and -F, then the classical Chebyshev algorithm, in
    mpmath with digits enough for the Hankel conditioning at this spread of
    nodes and N."""
    rows = N + 1
    top = max([2.0] + [abs(t) + 1.0 / abs(t) for t in ts])
    dps = 40 + int(2 * rows * math.log10(2.0 * top + 2.0))
    with mpmath.workdps(dps):
        t = [mpmath.mpf(float(x)) for x in ts]
        w = [mpmath.mpf(float(x)) for x in ws]
        s = lambda n: mpmath.fsum(wi * ti ** n for ti, wi in zip(t, w))
        s1, s2, s0 = s(-1), s(-2), s(0)
        q = 1 - s2 + s0
        count = 2 * rows
        f_plus = [mpmath.mpf(1)] + [s(-1 - k) for k in range(2, count + 1)]
        f_minus = [mpmath.mpf(1)] + [s(k - 1) / q for k in range(2, count + 1)]
        al_p, be_p = _reference_chebyshev(_reference_power_moments(f_plus, count), rows)
        al_m, be_m = _reference_chebyshev(_reference_power_moments(f_minus, count), rows)
        a = [1.0] * (2 * N + 1)
        b = [0.0] * (2 * N + 1)
        a[N] = float((1 - s2) ** -0.5)
        b[N] = float(-s1 / (1 - s2))
        a[N - 1] = float(mpmath.sqrt(q / (1 - s2)))
        for j in range(N):
            a[N + 1 + j] = float(mpmath.sqrt(be_p[j + 1]))
            b[N + 1 + j] = float(al_p[j])
            b[N - 1 - j] = float(al_m[j])
            if j + 1 < N:
                a[N - 2 - j] = float(mpmath.sqrt(be_m[j + 1]))
    return np.array(a), np.array(b)


def loop_cf_plus(a, b, z, seed):
    """_kernels.cf_plus with a new array per site: its bit-for-bit reference."""
    m = seed.astype(np.complex128).copy()
    for i in range(a.size - 1, -1, -1):
        m = -1.0 / (z - b[i] + a[i] * a[i] * m)
    return m


def loop_cf_minus(a, b, z, seed):
    """_kernels.cf_minus with a new array per site: its bit-for-bit reference."""
    m = seed.astype(np.complex128).copy()
    for i in range(a.size):
        m = (z - b[i] - 1.0 / m) / (a[i] * a[i])
    return m


def padded_m_oracle(J, z, side, pad=200):
    """The window's m functions by continued fractions over the window
    extended by `pad` free sites on the far side, seeded there with the free
    m value: the reference for the production oracle, which starts at the
    window's edge.  It runs the reference loops, not the production kernels."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    seed_u = np.array([1.0 / herglotz.outer_root(zz) for zz in z_arr], dtype=complex)
    if side == "plus":
        sites = np.arange(1, J.n_max + pad + 1)
        a_arr = np.array([J.a_at(n) for n in sites])
        b_arr = np.array([J.b_at(n) for n in sites])
        out = loop_cf_plus(a_arr, b_arr, z_arr, seed_u)
    else:
        sites = np.arange(J.n_min - pad + 1, 1)
        a_arr = np.array([J.a_at(n) for n in sites])
        b_arr = np.array([J.b_at(n) for n in sites])
        out = loop_cf_minus(a_arr, b_arr, z_arr, -1.0 / seed_u)
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def np_m_value(sigma, setting, z, side):
    """herglotz.m_value with np.conj in place of complex.conjugate: its
    bit-for-bit reference."""
    z = complex(z)
    if side == "plus":
        return herglotz.f_value(sigma, setting, herglotz.phi_inv(setting, z, "upper"))
    lam = herglotz.phi_inv(setting, z, "lower")
    return -np.conj(herglotz.f_value(sigma, setting, np.conj(lam)))


def np_cauchy(mu, lam):
    """measure.cauchy summed by np.sum over atom arrays built per call: its
    bit-for-bit reference."""
    lam = complex(lam)
    if mu.pieces:
        ts, ws = quadrature_atoms(mu, (lam,), split=lam.real)
    else:
        arr = np.asarray(mu.atoms, dtype=float).reshape(-1, 2)
        ts, ws = arr[:, 0], arr[:, 1]
    return complex(np.sum(ws / (ts - lam)))


def loop_prop311_check(J, r, min_excess=1e-6):
    """prop311_check one site pair at a time."""
    a = np.asarray(J.a)
    excess = a * a - 1.0
    idx = [i for i in range(len(a)) if excess[i] > min_excess]
    if not idx:
        raise FreeOperator("window is free to within min_excess; ratio check not applicable")
    lo, hi = r * r, 1.0 / (r * r)
    ratios = []
    worst = math.inf
    for i in range(len(a) - 1):
        if excess[i] > min_excess and excess[i + 1] > min_excess:
            rho = excess[i + 1] / excess[i]
            ratios.append((J.n_min + i, float(rho)))
            worst = min(worst, rho - lo, hi - rho)
    if not ratios:
        raise FreeOperator("no adjacent pair above min_excess")
    return RatioReport(
        passed=bool(worst > 0.0),
        worst_margin=float(worst),
        n_pairs=len(ratios),
        ratios=tuple(ratios),
    )


def loop_assemble_side(alpha, beta, n_valid, n_rows, clamp_tol):
    """jacobi._assemble_side one recurrence row at a time."""
    a_rows = np.ones(n_rows)
    b_rows = np.zeros(n_rows)
    for k in range(n_rows):
        if k + 1 >= n_valid and n_valid < len(beta):
            raise HankelBreakdown(
                n_valid + 1,
                "moment pivot failed before the coefficients reached the free tail",
            )
        a_k = math.sqrt(beta[k + 1])
        b_k = alpha[k]
        if max(abs(a_k - 1.0), abs(b_k)) < clamp_tol:
            break
        a_rows[k] = a_k
        b_rows[k] = b_k
    return a_rows, b_rows
