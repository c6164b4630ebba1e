"""Shared test utilities: seeded generators of admissible random measures and
reference routes that cross-check the production ones."""

import numpy as np

from reflectionless import Measure, Setting
from reflectionless.errors import HankelBreakdown
from reflectionless.herglotz import admissible_continuous, admissible_discrete
from reflectionless.measure import solve_r
from reflectionless.series import _conv


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


def compose_dense(f, g, n):
    """Horner evaluation of f(g) on dense arrays (g[0] must be 0)."""
    acc = np.zeros(n)
    for c in f[::-1]:
        acc = _conv(acc, g, n)
        acc[0] += c
    return acc


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
