"""Herglotz-function machinery built on representing measures.

Everything here evaluates functions of the upper half plane attached to a
validated measure: the function F in both settings, the conformal coordinate
changes, the two half-line m functions obtained from F by branch dispatch,
the admissibility boundary inequalities and the one gate both
reconstructions pass, the exponential representation, and boundary-value
diagnostics (density recovery, reflectionless residual).

Branch policy: square roots and logarithms are always pinned by the Herglotz
requirement (the result must map C+ to C+), never by principal-value
convention.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityRequired, BadParameter, BadR, BranchAmbiguity, NonConvergent
from .measure import cauchy, is_integer, quadrature_atoms, solve_r, validate

ADMISSIBILITY_TOL = 1e-12


def _real(R):
    """float(R) of a real R; a str, bool, complex or None is no radius."""
    if isinstance(R, bool) or not isinstance(R, numbers.Real):
        raise BadR(f"R must be a real number, got {R!r}")
    return float(R)


@dataclass(frozen=True)
class Setting:
    """Problem setting: which operator family and its spectral radius R.

    jacobi: operators reflectionless on (-2, 2) with norm bound R >= 2;
    r solves r + 1/r = R.  schrodinger: reflectionless on (0, inf) with
    spectrum bounded below by -R^2.
    """

    kind: str
    R: float
    r: float = None

    @staticmethod
    def jacobi(R):
        R = _real(R)
        return Setting("jacobi", R, solve_r(R))

    @staticmethod
    def schrodinger(R):
        R = _real(R)
        if not 0.0 < R < math.inf:
            raise BadR(f"schrodinger setting needs 0 < R < inf, got {R}")
        return Setting("schrodinger", R, None)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    min_value: float
    argmin: float
    samples: tuple  # (E, boundary-function value) at each edge of the spectrum


def f_discrete(sigma, lam):
    """F(lam) = -s_{-1} + (1 - s_{-2}) lam + Cauchy transform, jacobi setting;
    sigma must already pass validate(sigma, setting)."""
    s1, s2 = sigma.inverse_moments
    return -s1 + (1.0 - s2) * complex(lam) + cauchy(sigma, lam)


def f_continuous(sigma, lam):
    """F(lam) = lam + Cauchy transform, schrodinger setting; sigma must
    already pass validate(sigma, setting)."""
    return complex(lam) + cauchy(sigma, lam)


def f_value(sigma, setting, lam):
    if setting.kind == "jacobi":
        return f_discrete(sigma, lam)
    return f_continuous(sigma, lam)


def outer_root(z):
    """Root of lam^2 + z lam + 1 = 0 with |lam| >= 1; its reciprocal is the
    unit-disk root, the free m_plus.  The arithmetic follows the type of z."""
    s = cmath.sqrt(z * z - 4.0)
    r1, r2 = (-z + s) / 2.0, (-z - s) / 2.0
    return r1 if abs(r1) >= abs(r2) else r2


def phi_inv(setting, z, region):
    """Preimage of z under the conformal map phi onto C+ u S u C-, which is
    -lam - 1/lam (jacobi) or -lam^2 (schrodinger), on the requested branch.

    jacobi: 'upper' is the unit-disk root, 'lower' its reflection outside.
    schrodinger: 'upper' is the Re < 0 square root, 'lower' the Re > 0 one.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise BadParameter(f"conformal-map preimage needs a finite z, got {z}")
    if z.imag == 0.0:
        raise BranchAmbiguity(f"both preimages of real z = {z} meet the branch cut")
    if region not in ("upper", "lower"):
        raise BadParameter(f"unknown region {region!r}")
    return _branch(setting, z, region == "upper")


def _branch(setting, z, upper):
    """phi_inv for a complex z off the real axis, unchecked."""
    if setting.kind == "jacobi":
        big = outer_root(z)
        return 1.0 / big if upper else big
    w = cmath.sqrt(-z)
    return -w if upper else w


def m_value(sigma, setting, z, side):
    """Half-line m functions read off F through the branch dispatch.

    m_plus(z) = F on the upper branch; m_minus(z) = -conj F(conj .) on the
    lower branch.  Both are Herglotz for validated sigma.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise BranchAmbiguity("m functions are evaluated in the open upper half plane")
    if side == "plus":
        return f_value(sigma, setting, _branch(setting, z, True))
    if side == "minus":
        return -f_value(sigma, setting, _branch(setting, z, False).conjugate()).conjugate()
    raise BadParameter(f"unknown side {side!r}")


# ---------------------------------------------------------------------------
# admissibility inequalities


def _boundary_values(sigma, c, ps, qs):
    """c + int ds(t) / ((t - p)(t - q)) for each pair (p, q) of ps and qs: the
    boundary function of either setting, factored so that it does not cancel
    on the support, with sigma's pieces graded toward every pole."""
    ts, ws = quadrature_atoms(sigma, (*ps, *qs))
    with np.errstate(divide="ignore", invalid="ignore"):
        return c + np.sum(ws[:, None] / ((ts[:, None] - ps) * (ts[:, None] - qs)), axis=0)


def _edge_report(E, vals, passes):
    """The report on boundary values vals at the spectral edges E: the first
    least one that is not NaN (NaN when all are), an infinite one read as the
    -inf that an element on an edge's pole tends to there (delta1 at R = 2)."""
    vals = np.where(np.isinf(vals), -np.inf, vals)
    k = int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))
    return AdmissibilityReport(
        passed=bool(passes(vals[k])),
        min_value=float(vals[k]),
        argmin=float(E[k]),
        samples=tuple(zip(map(float, E), map(float, vals))),
    )


def boundary_value_discrete(sigma, E):
    """1 - s_{-2} + int ds(t)/(t^2 + E t + 1) for |E| >= 2, with the
    quadratic factored as (t - p)(t - 1/p); p = -sign(E) 2 / (|E| +
    sqrt(E^2 - 4)) is the small root without cancellation."""
    E = float(E)
    if not abs(E) >= 2.0:
        raise BadParameter("boundary function needs |E| >= 2")
    a = abs(E)
    p = math.copysign(2.0 / (a + math.sqrt((a - 2.0) * (a + 2.0))), -E)
    return float(_boundary_values(sigma, 1.0 - sigma.inverse_moments[1], [p], [1.0 / p])[0])


def admissible_discrete(sigma, setting):
    """Check g(E) = 1 - s_{-2} + int ds(t) / (t^2 + E t + 1) >= 0 over both
    rays |E| >= R by its values at their ends E = -R, R: the report's samples.

    For sigma in r < |t| < 1/r, E = -rho (s + 1/s) with s in (0, r] factors
    the quadratic on the ray rho = +-1: g(s) = 1 - s_{-2} + int ds(t) /
    ((t - rho s)(t - rho/s)).  With u = s + 1/s, an atom on the rho side of 0
    contributes w / (t^2 + 1 - rho t u), increasing in u, and one on the
    other side a term decreasing in u; the ratio of any same-side
    u-derivative to any other-side one grows in size with s.  So g rises and
    then falls on (0, r], and its infimum on the ray is g(r) or the limit
    1 - s_{-2} as s -> 0.  An element adds a negative term to the end of the
    ray of its own side, and to the other end a positive one, smaller in
    size as (|t| - r)(1/r - |t|) < (|t| + r)(|t| + 1/r).  So the ends sum to
    less than 2 (1 - s_{-2}) for nonzero sigma, and the lesser end, E = -R
    on a tie, is the infimum of g over |E| >= R.
    """
    ps = np.array([setting.r, -setting.r])  # the ends E = -R, then E = R
    vals = _boundary_values(sigma, 1.0 - sigma.inverse_moments[1], ps, 1.0 / ps)
    return _edge_report(-(ps + 1.0 / ps), vals, lambda least: least > ADMISSIBILITY_TOL)


def admissible_continuous(sigma, setting):
    """Check 1 + int ds(t) / (t^2 - R^2) >= 0 at the edge E = -R^2 alone: each
    term, negative, grows in size as E rises to the edge, so the value there
    is the infimum over the whole ray below it.  sigma must already pass
    validate(sigma, setting)."""
    R = setting.R
    vals = _boundary_values(sigma, 1.0, [R], [-R])
    return _edge_report([-R * R], vals, lambda least: least >= -ADMISSIBILITY_TOL)


def admissibility(sigma, setting):
    """The setting's admissibility report: admissible_discrete for jacobi,
    admissible_continuous for schrodinger."""
    if setting.kind == "jacobi":
        return admissible_discrete(sigma, setting)
    return admissible_continuous(sigma, setting)


def require_admissible(sigma, setting):
    """The gate of both reconstructions: validate sigma for the setting, then
    raise AdmissibilityRequired unless it passes its admissibility inequality."""
    validate(sigma, setting)
    report = admissibility(sigma, setting)
    if not report.passed:
        raise AdmissibilityRequired(
            f"measure fails the {setting.kind} admissibility inequality "
            f"(min {report.min_value:.6g} at E = {report.argmin:.6g})"
        )


# ---------------------------------------------------------------------------
# exponential representation


def herglotz_exp(xi, C, z):
    """C exp( int (1/(t-z) - t/(t^2+1)) xi(t) dt ) for step-function xi.

    xi is an iterable of (a, b, value) with value in [0, 1]; a may be -inf
    and b may be +inf (the counterterm keeps the integral finite).  Each
    piece integrates in closed form to logarithms; the principal branch is
    continuous here because t - z stays on one side of the cut.
    """
    z = complex(z)
    if not (0.0 < C < math.inf and cmath.isfinite(z)):
        raise BadParameter("herglotz_exp needs a finite C > 0 and a finite z")
    total = 0.0 + 0.0j

    def antiderivative(t):
        if math.isinf(t):
            return 0.0 + 0.0j if t > 0 else complex(0.0, -math.pi if z.imag > 0 else math.pi)
        return cmath.log(t - z) - 0.5 * math.log(t * t + 1.0)

    for a, b, v in xi:
        if not a <= b:  # a reversed piece leaves the upper half-plane, a NaN end gives NaN
            raise BadParameter(f"xi piece [{a}, {b}] is not an interval")
        if not -1e-12 <= v <= 1.0 + 1e-12:
            raise BadParameter(f"xi value {v} outside [0, 1]")
        if v != 0.0:
            total += v * (antiderivative(b) - antiderivative(a))
    return C * cmath.exp(total)


# ---------------------------------------------------------------------------
# boundary-value diagnostics


ETA_SCHEDULE = tuple(1e-3 * 0.5 ** k for k in range(7))
DENSITY_ERR_MAX = 1e-4  # last Richardson correction that counts as settled


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    error: float


def stieltjes_density(sigma, setting, side, x):
    """Density of the spectral measure at x by Richardson-extrapolated inversion.

    Extrapolates Im m(x + i eta)/pi over a geometric eta schedule; boundary
    values are smooth on the reflectionless set, so the eta-expansion is
    polynomial and the ratio-2 Richardson table applies.
    """
    vals = [m_value(sigma, setting, x + 1j * eta, side).imag / math.pi for eta in ETA_SCHEDULE]
    tab = [list(vals)]
    for j in range(1, len(vals)):
        prev = tab[-1]
        fac = 2.0 ** j
        tab.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    est = tab[-1][0]
    err = abs(est - tab[-2][0])
    if not err <= DENSITY_ERR_MAX:
        raise NonConvergent(
            f"density extrapolation at x = {x} not settling (last diff {err:.3e})"
        )
    return DensityEstimate(value=float(est), error=float(err))


# largest residual grid: one beyond it can exhaust memory or run for minutes
MAX_GRID = 512


def default_residual_grid(setting, n=64):
    """Evaluation grid of n points, an integer from 1 to MAX_GRID, for the
    reflectionless identity, away from the edges of S where the analytic
    continuation's derivative blows up."""
    if not is_integer(n) or not 1 <= n <= MAX_GRID:
        raise BadParameter(f"residual grid size n must be an integer from 1 to {MAX_GRID}, got {n!r}")
    if setting.kind == "jacobi":
        return np.linspace(-1.6, 1.6, n)
    return np.linspace(0.5, 10.0, n)


def reflectionless_residual(sigma, setting, grid, eta):
    """max over the grid of |m_plus(x + i eta) + conj m_minus(x + i eta)|.

    Zero at eta = 0 by construction; the off-axis value is a pure
    discretization diagnostic of size O(eta).  An empty grid is refused.
    """
    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        raise BadParameter("the residual grid holds no point")
    diffs = [
        abs(m_value(sigma, setting, x + 1j * eta, "plus")
            + np.conj(m_value(sigma, setting, x + 1j * eta, "minus")))
        for x in grid
    ]
    return float(np.max(diffs))  # NaN stays NaN
