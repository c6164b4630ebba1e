"""Potential recovery through the moment-flow hierarchy.

The shifted potentials carry a moment sequence sigma_n(x) obeying the closed
hierarchy s0' = -2 s1, sn' = -2 s_{n+1} + sum_{j<n} s_j s_{n-1-j}, with the
potential read off as V(x) = -2 sigma_0(x).  Truncating at order N closes the
system with sigma_{N+1} = 0; the moment bound |sigma_n| <= R^{n+2} bounds that
closure by an a priori envelope, not an error estimate, and is a runtime check.
An independent Riccati integration of p' = -V + p^2 - (2/w) p cross-validates
the flow through the generating function p(x, w) = sum sigma_n(x) w^{n+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, measure
from .errors import (
    AdmissibilityRequired,
    BadParameter,
    NonFiniteOutput,
    RiccatiBlowUp,
    StepTooLarge,
    TruncationBlowup,
)
from .herglotz import Setting, admissible_continuous
from .measure import moments

MIN_FLOW_ORDER = 4
BOUND_SLACK = 1e-9
STEP_ERR_TOL = 1e-6
BLOWUP_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class PotentialTrace:
    """Sampled potential V = -2 sigma_0 along the flow, plus the raw moments."""

    xs: np.ndarray
    V: np.ndarray
    N_used: int
    est_truncation_error: float
    R: float
    sigmas: np.ndarray = field(repr=False)

    @property
    def step(self):
        return float(self.xs[1] - self.xs[0])


def moment_bounds(N, R):
    """Envelope |sigma_n| <= R^(n+2), with the runtime slack applied."""
    return R ** (np.arange(N + 1) + 2.0) * (1.0 + BOUND_SLACK)


def init_flow(sigma, N, R):
    """Moments sigma_0(0) ... sigma_N(0) of the representing measure: the
    flow's state at x = 0, as a float64 array."""
    if N < MIN_FLOW_ORDER:
        raise BadParameter(f"truncation order N must be at least {MIN_FLOW_ORDER}")
    setting = Setting.schrodinger(R)
    measure.validate(sigma, setting)
    report = admissible_continuous(sigma, setting)
    if not report.passed:
        raise AdmissibilityRequired(
            f"measure fails the endpoint inequality (value {report.min_value:.6g})"
        )
    return moments(sigma, range(N + 1))


def _truncation_envelope(N, R, x):
    """Accumulated closure-error envelope: the defect enters sigma_N and
    reaches sigma_0 only after N integrations, giving a factorially small
    footprint for |x| below the analyticity scale 1/R."""
    if x <= 0.0:
        return 0.0
    try:
        return 2.0 * math.exp((N + 3) * math.log(R) + N * math.log(2.0 * x) - math.lgamma(N + 1))
    except OverflowError:
        return math.inf


def integrate_flow(sigma, N, R, x_max, step=None):
    """Fourth-order integration of the hierarchy over [-x_max, x_max].

    The grid is symmetric, so its middle node is x = 0.  Each step carries an
    embedded half-step error estimate (relative to the moment envelope);
    estimates above STEP_ERR_TOL raise StepTooLarge.  If a moment leaves its
    envelope the truncation budget is exhausted for this N and the flow
    raises TruncationBlowup at the offending x.
    """
    if not x_max > 0.0:
        raise BadParameter("x_max must be positive")
    s0 = init_flow(sigma, N, R)
    h = step if step is not None else 1.0 / (20.0 * R)
    n_steps = max(1, int(math.ceil(x_max / h - 1e-12)))
    h = x_max / n_steps
    bounds = moment_bounds(N, R)

    sig = np.empty((2 * n_steps + 1, N + 1))
    for direction in (+1, -1):
        states, status, bad_step, _ = _kernels.flow_integrate(
            s0, direction * h, n_steps, bounds, STEP_ERR_TOL
        )
        if status == _kernels.FLOW_STEP_TOO_LARGE:
            raise StepTooLarge(
                f"embedded error estimate exceeded {STEP_ERR_TOL:g} near x = "
                f"{direction * bad_step * h:.6g}; reduce the step"
            )
        if status == _kernels.FLOW_BOUND_VIOLATED:
            raise TruncationBlowup(
                direction * bad_step * h,
                f"moment envelope violated at x = {direction * bad_step * h:.6g}; "
                f"increase N for this x range",
            )
        sig[n_steps::direction] = states  # outward from x = 0
    xs = np.linspace(-n_steps * h, n_steps * h, 2 * n_steps + 1)
    if np.min(sig[:, 0]) < -1e-9:
        k = int(np.argmin(sig[:, 0]))
        raise TruncationBlowup(
            xs[k], f"shifted-measure mass went negative at x = {xs[k]:.6g}"
        )
    return PotentialTrace(
        xs=xs,
        V=-2.0 * sig[:, 0],
        N_used=N,
        est_truncation_error=_truncation_envelope(N, R, x_max),
        R=R,
        sigmas=sig,
    )


def moment_generating(s, w):
    """p(w) = sum sigma_n w^{n+1} for a moment vector (or a stack of them)."""
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=complex)
    powers = w[..., None] ** (np.arange(s.shape[-1]) + 1.0)
    return np.sum(s * powers, axis=-1) if s.ndim == 1 else s @ powers.T


def stable_riccati_directions(w):
    """x-directions in which the true p(., w) trajectory attracts.

    Linearizing around the solution gives deviation growth exp(int (2p -
    2/w)); since |2p| stays well below |2/w| inside the convergence disk, the
    sign of Re(2/w) = 2 Re(w)/|w|^2 decides: deviations damp going forward
    for Re w > 0 and going backward for Re w < 0 (both ways are neutral for
    purely imaginary w).  Integrating against the stable direction is
    meaningless in finite precision, so the oracle never does it.
    """
    if w.real > 0.0:
        return (+1,)
    if w.real < 0.0:
        return (-1,)
    return (-1, +1)


def _hermite_sampler(xs, sigmas):
    """V on the uniform grid xs through the quintic Hermite interpolant of the
    exact nodal values V = -2 s0, V' = 4 s1 and V'' = 4 (s0^2 - 2 s2)."""
    H = xs[1] - xs[0]
    s0, s1, s2 = sigmas[:, 0], sigmas[:, 1], sigmas[:, 2]
    # in the cell variable t = (x - x_i)/H: V, H V' and H^2 V''/2
    V, dV, d2V = -2.0 * s0, 4.0 * H * s1, 2.0 * H * H * (s0 * s0 - 2.0 * s2)

    def sample(x):
        u = (np.asarray(x, dtype=float) - xs[0]) / H
        i = np.clip(np.floor(u).astype(int), 0, len(xs) - 2)
        t = u - i
        s = 1.0 - t
        left = V[i] * (1.0 + 3.0 * t + 6.0 * t * t) + t * (dV[i] * (1.0 + 3.0 * t) + d2V[i] * t)
        j = i + 1
        right = V[j] * (1.0 + 3.0 * s + 6.0 * s * s) - s * (dV[j] * (1.0 + 3.0 * s) - d2V[j] * s)
        return s ** 3 * left + t ** 3 * right

    return sample


def riccati_oracle(trace, w):
    """Independent Riccati integration of p(x, w) from the series value p(0, w).

    Starts at the trace's middle node, x = 0, and integrates along the stable
    direction(s) for this w, two steps per trace step, sampling the potential
    through the quintic Hermite interpolant of the trace's exact V, V' and
    V''.  Returns (idx, p): the ascending trace indices the integration
    passes and p at those nodes.  Raises NonFiniteOutput when a sample of V
    is not finite, and RiccatiBlowUp when |p| exceeds 10 R, the sign of
    leaving the analyticity domain.
    """
    w = complex(w)
    if not 0.0 < abs(w) < 1.0 / trace.R:
        raise BadParameter("w must be nonzero and inside the convergence disk |w| < 1/R")
    V = _hermite_sampler(trace.xs, trace.sigmas)
    n = len(trace.xs) // 2
    h = trace.step / 2
    p0 = moment_generating(trace.sigmas[n], w)
    directions = stable_riccati_directions(w)

    p = np.empty(2 * n + 1, dtype=complex)
    for direction in directions:
        nodes = direction * h * np.arange(2 * n + 1)
        mids = nodes[:-1] + direction * 0.5 * h
        v_nodes, v_mids = V(nodes), V(mids)
        if not (np.all(np.isfinite(v_nodes)) and np.all(np.isfinite(v_mids))):
            raise NonFiniteOutput(f"interpolated potential is not finite at step {trace.step:.6g}")
        path = _kernels.riccati_path(p0, v_nodes, v_mids, direction * h, w)
        bad = ~np.isfinite(path) | (np.abs(path) > BLOWUP_FACTOR * trace.R)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise RiccatiBlowUp(f"|p| exceeded {BLOWUP_FACTOR} R at x = {nodes[k]:.6g}")
        p[n::direction] = path[::2]
    idx = np.arange(0 if -1 in directions else n, 2 * n + 1 if +1 in directions else n + 1)
    return idx, p[idx]


def riccati_mismatch(trace, ws):
    """sup |p_flow - p_riccati| over each w's stable range on the trace grid.

    p_flow is the generating function of the flow moments; the Riccati path
    is evaluated independently, so agreement cross-validates the hierarchy.
    """
    per_w = []
    for w in np.atleast_1d(ws):
        idx, path = riccati_oracle(trace, w)
        flow_p = moment_generating(trace.sigmas[idx], w)
        per_w.append((complex(w), float(np.max(np.abs(flow_p - path)))))
    return float(np.max([d for _, d in per_w], initial=0.0)), per_w  # NaN stays NaN


def binomial_sum_identity(N1, N2, p):
    """sum_k C(N1+k, k) C(N2-k, p-k) == C(N1+N2+1, p), k = 0..p, exactly."""
    if N1 < 1 or p < 0 or N2 < p:
        raise BadParameter("needs N1 >= 1 and N2 >= p >= 0")
    lhs = sum(math.comb(N1 + k, k) * math.comb(N2 - k, p - k) for k in range(p + 1))
    return lhs == math.comb(N1 + N2 + 1, p)
