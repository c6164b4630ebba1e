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
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityRequired, BadParameter, BadR, BranchAmbiguity, NonConvergent
from .measure import cauchy, quadrature_atoms, solve_r, validate

ADMISSIBILITY_TOL = 1e-12
SAMPLES_PER_RAY = 64


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
        return Setting("jacobi", float(R), solve_r(float(R)))

    @staticmethod
    def schrodinger(R):
        if not 0.0 < R < math.inf:
            raise BadR(f"schrodinger setting needs 0 < R < inf, got {R}")
        return Setting("schrodinger", float(R), None)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    min_value: float
    argmin: float
    samples: tuple  # (spectral parameter E, boundary-function value)


def f_discrete(sigma, lam):
    """F(lam) = -s_{-1} + (1 - s_{-2}) lam + Cauchy transform, jacobi setting."""
    s1, s2 = sigma.inverse_moments
    return -s1 + (1.0 - s2) * complex(lam) + cauchy(sigma, lam)


def f_continuous(sigma, lam):
    """F(lam) = lam + Cauchy transform, schrodinger setting."""
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
    if w.real < 0:
        w = -w
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


def _boundary_atoms(sigma, s):
    """(1 - s_{-2}, t, w) with t and w as columns: sigma as quadrature atoms
    for the boundary kernels of both rays at every s' <= s, whose poles lie
    beyond +-s and +-1/s."""
    ts, ws = quadrature_atoms(sigma, (s, 1.0 / s, -s, -1.0 / s))
    return 1.0 - sigma.inverse_moments[1], ts[:, None], ws[:, None]


def _boundary_on_s_grid(atoms, s, root_sign):
    """1 - s_{-2} + sum_j w_j / ((t_j - rho1)(t_j - rho2)), with rho1 =
    root_sign s and rho2 = root_sign / s for each s of an array (root_sign
    one sign, or one per s): the factored form avoids cancellation on the
    support."""
    one_minus_s2, ts, ws = atoms
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = ws / ((ts - root_sign * s) * (ts - root_sign / s))
    return one_minus_s2 + np.sum(contrib, axis=0)


def boundary_value_discrete(sigma, E):
    """1 - s_{-2} + int ds(t)/(t^2 + E t + 1) for |E| >= 2, with the
    quadratic factored as (t - p)(t - 1/p), roots on the sign(-E) side;
    p = 2 / (|E| + sqrt(E^2 - 4)) is the small root without cancellation."""
    E = float(E)
    if not abs(E) >= 2.0:
        raise BadParameter("boundary function needs |E| >= 2")
    a = abs(E)
    s = 2.0 / (a + math.sqrt((a - 2.0) * (a + 2.0)))
    atoms = _boundary_atoms(sigma, s)
    return float(_boundary_on_s_grid(atoms, np.array([s]), math.copysign(1.0, -E))[0])


def admissible_discrete(sigma, setting):
    """Check the boundary inequality over both rays |E| >= R.

    The substitution E = -rho (s + 1/s), s in (0, r], factors the quadratic:
    on the ray rho = +-1 the boundary function is g(s) = 1 - s_{-2} +
    int ds(t) / ((t - rho s)(t - rho/s)).  With u = s + 1/s, an atom on the
    rho side of the origin contributes w / (t^2 + 1 - rho t u), increasing
    in u, and one on the other side a term decreasing in u; the ratio of any
    same-side u-derivative to any other-side one grows in size with s.
    Hence dg/ds changes sign at most once, from + to -: g rises and then
    falls on (0, r], and its minimum over any range sits at one of the
    range's ends.  So each ray is read only at its SAMPLES_PER_RAY reported
    samples s = r (j + 1/64) / SAMPLES_PER_RAY and at its end s = r
    (E = -rho R); the least of these values is the minimum of g over
    [r / 4096, r].
    """
    r = setting.r
    s = r * np.append((np.arange(SAMPLES_PER_RAY) + 1 / 64) / SAMPLES_PER_RAY, 1.0)
    rays = np.repeat([-1.0, 1.0], s.size)  # one grid: the -1 ray, then the +1 ray
    s = np.tile(s, 2)
    vals = _boundary_on_s_grid(_boundary_atoms(sigma, r), s, -rays)
    E = rays * (s + 1.0 / s)
    # the first least value that is not NaN, so ties go to the -1 ray; NaN
    # (a failed check) when every value is
    k = int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))
    # every point but each ray's end is a reported sample
    E_s, v_s = (x.reshape(2, -1)[:, :-1].ravel().tolist() for x in (E, vals))
    return AdmissibilityReport(
        passed=bool(vals[k] > ADMISSIBILITY_TOL),
        min_value=float(vals[k]),
        argmin=float(E[k]),
        samples=tuple(zip(E_s, v_s)),
    )


def admissible_continuous(sigma, setting):
    """Single endpoint check 1 + int ds/(t^2 - R^2) >= 0.

    The integrals increase strictly as the spectral parameter moves to the
    edge, so the endpoint value is the infimum over the whole ray.
    """
    R = setting.R
    ts, ws = quadrature_atoms(sigma, (R, -R))
    total = 1.0 + float(np.sum(ws / ((ts - R) * (ts + R))))
    return AdmissibilityReport(
        passed=bool(total >= -ADMISSIBILITY_TOL),
        min_value=float(total),
        argmin=float(-R * R),
        samples=((float(-R * R), float(total)),),
    )


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
    if err > DENSITY_ERR_MAX:
        raise NonConvergent(
            f"density extrapolation at x = {x} not settling (last diff {err:.3e})"
        )
    return DensityEstimate(value=float(est), error=float(err))


def default_residual_grid(setting, n=64):
    """Evaluation grid for the reflectionless identity, away from the edges
    of S where the analytic continuation's derivative blows up."""
    if setting.kind == "jacobi":
        return np.linspace(-1.6, 1.6, n)
    return np.linspace(0.5, 10.0, n)


def reflectionless_residual(sigma, setting, grid, eta):
    """max over the grid of |m_plus(x + i eta) + conj m_minus(x + i eta)|.

    Zero at eta = 0 by construction; the off-axis value is a pure
    discretization diagnostic of size O(eta).
    """
    diffs = [
        abs(m_value(sigma, setting, x + 1j * eta, "plus")
            + np.conj(m_value(sigma, setting, x + 1j * eta, "minus")))
        for x in np.asarray(grid, dtype=float)
    ]
    return float(np.max(diffs, initial=0.0))  # NaN stays NaN
