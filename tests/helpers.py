"""Shared test utilities: seeded generators of admissible random measures and
reference routes that cross-check the production ones."""

import math
from functools import lru_cache

import mpmath
import numpy as np

from reflectionless import Measure, Setting, herglotz
from reflectionless.herglotz import admissible_continuous, admissible_discrete
from reflectionless.jacobi import JacobiWindow, RatioReport
from reflectionless.measure import quadrature_atoms, solve_r, validate


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
    validate(sigma, setting)
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
    validate(sigma, setting)
    assert admissible_continuous(sigma, setting).passed
    return sigma, setting


SCAN_POINTS = 4096


def boundary_scan(sigma, setting):
    """The jacobi boundary function on a SCAN_POINTS grid s = r k / SCAN_POINTS
    of each ray: (s grid, {ray: values}), ray = sign(E).  Both rays are read
    in one call, so the piece rule is graded toward the poles of both, as in
    admissible_discrete."""
    s = setting.r * np.arange(1, SCAN_POINTS + 1) / SCAN_POINTS
    ps = np.concatenate([s, -s])  # the -1 ray, then the +1 ray
    vals = herglotz._boundary_values(sigma, 1.0 - sigma.inverse_moments[1], ps, 1.0 / ps)
    return s, dict(zip((-1.0, 1.0), np.split(vals, 2)))


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1], formed once per n."""
    return np.polynomial.legendre.leggauss(n)


def _gl_apply(f, a, b, n):
    x, w = _gauss_legendre(n)
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
    """Power moments mu_n = int x^n d rho, n < len(nu), of the measure
    m = (nu, (E, mass)): x^n = sum_j (C(n, j) - C(n, j - 1)) U_{n-2j}(x/2) on
    the deflated part, plus sum mass E^n over its nodes."""
    nu, (E, mass) = m
    mu = np.empty(len(nu))
    for n in range(len(nu)):
        j = np.arange(n // 2 + 1)
        c = np.array([math.comb(n, i) - (math.comb(n, i - 1) if i else 0) for i in j], dtype=float)
        mu[n] = np.dot(c, nu[n - 2 * j]) + np.dot(mass, E ** n)
    return mu


# ---------------------------------------------------------------------------
# the mpmath references for reconstruct


def _reference_power_moments(f, count):
    """Power moments mu_0..mu_{count-1} of the measure whose m function is
    sum_{k>=1} f[k-1] lam^k, with lam = -w C(w^2) the disk root as a series
    in w = 1/z (C the Catalan series): [w^{n+1}] lam^k is (-1)^k k/(n+1)
    C(n+1, (n+1-k)/2), and m = -sum mu_n w^{n+1}.  That coefficient is an
    integer, a Catalan-triangle entry, so it is formed exactly in integers."""
    mu = []
    for n in range(count):
        total = mpmath.mpf(0)
        for k in range(n + 1, 0, -2):
            c, rem = divmod(k * math.comb(n + 1, (n + 1 - k) // 2), n + 1)
            assert rem == 0
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
    """reconstruct's window for the measure sum w delta_t, as (a, b) float
    arrays over sites -N..N, by a route that shares none of the production
    one: power moments of rho+- straight from the Taylor coefficients of F
    and -F, then the classical Chebyshev algorithm, in mpmath with digits
    enough for the Hankel conditioning at this spread of nodes and N."""
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


def _soliton_eigenvalues(t, w):
    """The eigenvalues of the atoms t, w (mpf lists), each as the root lam_j
    inside the unit disk of lam^2 + E_j lam + 1: E_j are the n zeros of g(E)
    = 1 - s_-2 + sum_i w_i/(t_i^2 + E t_i + 1), which polyroots finds once g
    is cleared of its denominators."""
    s2 = mpmath.fsum(wi / (ti * ti) for ti, wi in zip(t, w))
    g, denominators = [1 - s2], [mpmath.mpf(1)]  # coefficients, constant first
    for ti, wi in zip(t, w):
        g = [u * (1 + ti * ti) + v * ti + wi * d for u, v, d in zip(g + [0], [0] + g, denominators + [0])]
        denominators = [u * (1 + ti * ti) + v * ti for u, v in zip(denominators + [0], [0] + denominators)]
    # clustered atoms cluster the roots, which polyroots' default steps and digits do not resolve
    E = [mpmath.re(e) for e in mpmath.polyroots(g[::-1], maxsteps=200, extraprec=200)]
    return [-2 / (e + mpmath.sign(e) * mpmath.sqrt(e * e - 4)) for e in E]


def _soliton_rows(t, lam, N):
    """(a_k, b_k), k = 0..N, as mpf lists, of a measure with atoms at t (an
    mpf list) and eigenvalues lam, from the Toda tau-function; the weights
    enter only through lam.  With c_j = lam_j (1 - lam_j^2) prod_i (1 - t_i
    lam_j)/(t_i - lam_j) prod_{l != j} (1 - lam_l lam_j)/(lam_l - lam_j) and
    K_jl(k) = (lam_j lam_l)^k/(1 - lam_j lam_l),
    tau(k) = det M(k), M(k) = I + diag(c) K(k), and rho(k) = sum_j (lam_j -
    1/lam_j)(1 - M(k)^-1_jj).  Then a_k = sqrt(tau(k-1) tau(k+1))/tau(k) and
    b_k = rho(k-1) - rho(k).

    By Cauchy's determinant, tau(k) is a sum over the subsets S of the
    eigenvalues of the positive terms x_S L_S^k, with L_S = prod_{j in S}
    lam_j^2 and x_S = prod_{j in S} c_j/(1 - lam_j^2) prod_{j < l in S}
    ((lam_j - lam_l)/(1 - lam_j lam_l))^2, and rho(k) tau(k) is the same sum
    with each term times m_S = sum_{j in S} (lam_j - 1/lam_j).  So no digit
    cancels, and a tail row keeps all of its own."""
    x, L, m = [mpmath.mpf(1)], [mpmath.mpf(1)], [mpmath.mpf(0)]  # S = {} first; bit l of an index marks lam_l
    for j, lj in enumerate(lam):
        c = lj * mpmath.fprod((1 - ti * lj) / (ti - lj) for ti in t) * mpmath.fprod(
            (1 - ll * lj) / (ll - lj) for ll in lam[:j] + lam[j + 1:])  # c_j/(1 - lam_j^2)
        pair = [((lj - ll) / (1 - lj * ll)) ** 2 for ll in lam[:j]]
        x += [xs * c * mpmath.fprod(p for l, p in enumerate(pair) if s >> l & 1) for s, xs in enumerate(x)]
        L += [Ls * lj * lj for Ls in L]
        m += [ms + lj - 1 / lj for ms in m]
    now = [xs / Ls for xs, Ls in zip(x, L)]  # the terms at k = -1
    tau, rho = [], []
    for _ in range(N + 3):  # k = -1..N+1
        tau.append(mpmath.fsum(now))
        rho.append(mpmath.fdot(now, m) / tau[-1])
        now = [xs * Ls for xs, Ls in zip(now, L)]
    a = [mpmath.sqrt(tau[k] * tau[k + 2]) / tau[k + 1] for k in range(N + 1)]
    return a, [rho[k] - rho[k + 1] for k in range(N + 1)]


def soliton_window(ts, ws, N):
    """reconstruct's window for the measure sum w delta_t, as (a, b) float
    arrays over sites -N..N: the Toda n-soliton (Teschl, Jacobi Operators and
    Completely Integrable Nonlinear Lattices, 2000, ch. 13), the source
    paper's Marchenko parametrization restricted to atoms, at 60 digits.
    Sites 0..N are sigma's own rows; sites -N..-1 are those of the mirrored
    atoms (1/t, w/(t^2 q)), q = 1 - s_-2 + s_0, which have the same
    eigenvalues and whose a_k and b_k are a_{-1-k} and b_{-k}.  It sums 2^n
    terms per site: a reference for a few atoms, not for a piece's rule."""
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(x)) for x in ts]
        w = [mpmath.mpf(float(x)) for x in ws]
        lam = _soliton_eigenvalues(t, w)
        a_plus, b_plus = _soliton_rows(t, lam, N)
        a_minus, b_minus = _soliton_rows([1 / ti for ti in t], lam, N)
        return np.array(a_minus[:N][::-1] + a_plus, dtype=float), np.array(b_minus[1:][::-1] + b_plus, dtype=float)


def loop_cf_plus(a, b, z, w):
    """_kernels.cf_plus with a new array per site: its bit-for-bit reference."""
    w = w.astype(np.complex128).copy()
    for i in range(a.size - 1, -1, -1):
        w = (z - b[i]) - a[i] * a[i] / w
    return w


def loop_cf_minus(a, b, z, v):
    """The minus continued fraction v_n = a_n^2 m_n = z - b_n - a_{n-1}^2 /
    v_{n-1} from the seed v, a_{n-1} = 1 before the first site, ascending the
    sites in array order and returning m at the last: the bit-for-bit
    reference of m_oracle's minus side, which descends the reflected window."""
    v = v.astype(np.complex128).copy()
    a2_prev = 1.0
    for i in range(a.size):
        v = (z - b[i]) - a2_prev / v
        a2_prev = a[i] * a[i]
    return v / a2_prev


def m_form_cf_plus(a, b, z, m):
    """The plus continued fraction on m itself, m_n = -1/(z - b_{n+1} +
    a_{n+1}^2 m_{n+1}), from the seed m: a cross-check of cf_plus that
    rounds differently."""
    m = m.astype(np.complex128).copy()
    for i in range(a.size - 1, -1, -1):
        m = -1.0 / (z - b[i] + a[i] * a[i] * m)
    return m


def m_form_cf_minus(a, b, z, m):
    """The minus continued fraction on m itself, a_n^2 m_n = z - b_n -
    1/m_{n-1}, from the seed m: a cross-check of m_oracle's minus side that
    rounds differently."""
    m = m.astype(np.complex128).copy()
    for i in range(a.size):
        m = (z - b[i] - 1.0 / m) / (a[i] * a[i])
    return m


def numpy_riccati_path(p0, v_nodes, v_mids, h, w):
    """_kernels.riccati_path as one numpy column per w value: its bit-for-bit
    reference."""
    c = 2.0 / w
    path = np.empty((v_mids.size + 1, w.size), dtype=np.complex128)
    path[0] = p0
    p = p0.astype(np.complex128).copy()
    for k in range(v_mids.size):
        k1 = -v_nodes[k] + p * p - c * p
        q = p + 0.5 * h * k1
        k2 = -v_mids[k] + q * q - c * q
        q = p + 0.5 * h * k2
        k3 = -v_mids[k] + q * q - c * q
        q = p + h * k3
        k4 = -v_nodes[k + 1] + q * q - c * q
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path[k + 1] = p
    return path


def padded_m_oracle(J, z, side, pad=200):
    """The window's m functions by continued fractions over the window
    extended by `pad` free sites on the far side, seeded there with the free
    state -outer_root(z) of both walks: the reference for the production
    oracle, which starts at the window's edge.  It runs the reference loops,
    not the production kernels."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    seed = np.array([-herglotz.outer_root(zz) for zz in z_arr], dtype=complex)
    sites = np.arange(1, J.n_max + pad + 1) if side == "plus" else np.arange(J.n_min - pad + 1, 1)
    a_arr = np.array([J.a_at(n) for n in sites])
    b_arr = np.array([J.b_at(n) for n in sites])
    if side == "plus":
        out = -1.0 / loop_cf_plus(a_arr, b_arr, z_arr, seed)
    else:
        out = loop_cf_minus(a_arr, b_arr, z_arr, seed)
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
    """prop311_check one site pair at a time: a window with no adjacent pair
    above min_excess passes with margin inf."""
    a = np.asarray(J.a)
    excess = a * a - 1.0
    lo, hi = r * r, 1.0 / r / r
    worst, pairs = math.inf, 0
    for i in range(len(a) - 1):
        if excess[i] > min_excess and excess[i + 1] > min_excess:
            rho = excess[i + 1] / excess[i]
            worst = min(worst, rho - lo, hi - rho)
            pairs += 1
    if not pairs:
        return RatioReport(passed=True, worst_margin=math.inf)
    return RatioReport(passed=bool(worst > 0.0), worst_margin=float(worst))


def soliton_potential(atoms, xs):
    """integrate_flow's V for the measure sum w delta_t at the points xs: the
    closed-form n-soliton (Kay & Moses, J. Appl. Phys. 27 (1956)), the source
    paper's Marchenko parametrization restricted to atoms, at 60 digits.  The
    flow conserves the kappa_j; their squares are the eigenvalues of diag(t^2)
    + sqrt(w) sqrt(w)^T.  With beta_j = e^{-2 kappa_j x} prod_i (kappa_j -
    t_i)/(-kappa_j - t_i) prod_{l != j} (kappa_l - kappa_j) / prod_l (kappa_j +
    kappa_l) and C_jl = 1/(kappa_j + kappa_l), V = 4 sum kappa_j beta_j a_j^2,
    where (diag beta - C) a = 1."""
    n = len(atoms)
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(ti)) for ti, _ in atoms]
        root_w = mpmath.matrix([mpmath.sqrt(float(wi)) for _, wi in atoms])
        squares = mpmath.eigsy(mpmath.diag([ti * ti for ti in t]) + root_w * root_w.T, eigvals_only=True)
        kap = [mpmath.sqrt(e) for e in squares]
        C = mpmath.matrix([[1 / (kj + kl) for kl in kap] for kj in kap])
        scale = [
            mpmath.fprod((kj - ti) / (-kj - ti) for ti in t)
            * mpmath.fprod(kl - kj for l, kl in enumerate(kap) if l != j)
            / mpmath.fprod(kj + kl for kl in kap)
            for j, kj in enumerate(kap)
        ]
        V = []
        for x in xs:
            beta = [s * mpmath.exp(-2 * k * float(x)) for s, k in zip(scale, kap)]
            a = mpmath.lu_solve(mpmath.diag(beta) - C, mpmath.ones(n, 1))
            V.append(float(4 * mpmath.fsum(k * b * ai * ai for k, b, ai in zip(kap, beta, a))))
    return np.array(V)


def free_window(N, R=2.0):
    """The free operator's window over sites -N..N: a = 1, b = 0."""
    n = 2 * N + 1
    return JacobiWindow(-N, N, (1.0,) * n, (0.0,) * n, float(R))
