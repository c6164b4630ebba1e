"""Potential recovery through the flow of the representing measure's atoms.

Shifting the potential by x moves sigma = sum w_i delta_{t_i} along the
closed n-soliton flow t_i' = w_i, w_i' = w_i (-2 t_i + 2 sum_{j != i}
w_j / (t_i - t_j)), with V(x) = -2 sum w_i(x); a density piece enters through
the nodes of its quadrature rule.  The flow is exact, so its only error is
the integrator's, which step doubling estimates.  An independent Riccati
integration of p' = -V + p^2 - (2/w) p cross-validates the flow through the
generating function p(x, w) = sum w_i w / (1 - t_i w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import BadParameter, NonFiniteOutput, RiccatiBlowUp, StepTooLarge
from .herglotz import Setting, require_admissible
from .measure import MAX_ORDER, is_integer, quadrature_atoms

# the least order of a piece's rule: its gap to a rule of 4 N was measured from N = 4
MIN_FLOW_ORDER = 4
STEP_ERR_TOL = 1e-6
# rounding in V grows about like sqrt(steps) ulps of max |V|: measured up to
# 47 ulps after 5,000 one-atom steps, 44 after 1,000 and 3 after 10
ROUNDING_ULPS = 4.0
BLOWUP_FACTOR = 10.0
# the flow's budget: steps (FLOW_PAIR_COST n (n - 1) + FLOW_STEP_COST), n atoms, at most MAX_FLOW_WORK:
# on 2 vCPUs a step on both sides costs about 0.28 ms, Riccati walks included, and 65 ns more per
# atom pair, so the slowest flows admitted run about 3 s.  m substeps on one side cost m / 2 of it.
FLOW_STEP_COST = 25_000
FLOW_PAIR_COST = 8
MAX_FLOW_WORK = 2.5e8


@dataclass(frozen=True, eq=False)
class PotentialTrace:
    """Sampled potential V = -2 sigma_0 along the flow, with its atoms."""

    xs: np.ndarray
    V: np.ndarray
    N_used: int
    est_error: float  # step-doubling estimate of max |V - V_exact|, exceeded on some many-atom flows
    R: float
    atoms: np.ndarray = field(repr=False)  # row k holds (t, w) at xs[k]
    step: float  # h = x_max / n_steps, the step of the trace grid

    def moments(self, count):
        """sigma_n = sum w t^n for n = 0 .. count - 1, one row per node of xs."""
        sigmas = np.empty((len(self.atoms), count))
        power = self.atoms[:, 1].copy()
        for n in range(count):
            sigmas[:, n] = np.sum(power, axis=1)
            power *= self.atoms[:, 0]
        return sigmas

    @cached_property
    def quarter_potential(self):
        """V on the quarter steps of the trace grid, which riccati_oracle reads
        for every w: _quarter_potential of the first three moments, built once."""
        return _quarter_potential(self.moments(3), self.step)


def flow_atoms(sigma, N):
    """sigma as the atoms (t, w) the flow moves, the rows of one float64 array:
    its own atoms, and each piece as the nodes of its rule for moments up to N."""
    return np.array(quadrature_atoms(sigma, (0.0,), N), dtype=float).reshape(2, -1)


def init_flow(sigma, N, R):
    """The flow's state at x = 0, flow_atoms(sigma, N), once N is an integer
    from MIN_FLOW_ORDER to MAX_ORDER and sigma passes the admissibility gate."""
    if not is_integer(N) or not MIN_FLOW_ORDER <= N <= MAX_ORDER:
        raise BadParameter(f"flow order N must be an integer from {MIN_FLOW_ORDER} to {MAX_ORDER}")
    require_admissible(sigma, Setting.schrodinger(R))
    return flow_atoms(sigma, N)


def default_step(R):
    """The flow's step where none is given: 20 steps per unit of 1/R."""
    return 1.0 / (20.0 * R)


def flow_budget(sigma, N, ratio):
    """(steps, allowance) of the validated sigma's flow at order N where x_max /
    step = ratio: the steps per side (ratio less 1e-12, rounded up, at least 1),
    and the RK4 steps per step its passes on both sides may take in all (2 is one
    pass a side) within MAX_FLOW_WORK.  BadParameter if not even 2 fit, or NaN."""
    n = flow_atoms(sigma, N).shape[1]
    if ratio <= MAX_FLOW_WORK:
        steps = max(1, math.ceil(ratio - 1e-12))
        per_pass = FLOW_PAIR_COST * n * (n - 1) + FLOW_STEP_COST
        work = steps * per_pass  # an integer: compared exactly, never overflows
        if work <= MAX_FLOW_WORK:
            return steps, 2 + int(2 * (MAX_FLOW_WORK - work) // work)
    formula = f"ceil(x_max / step) * ({FLOW_PAIR_COST} n (n - 1) + {FLOW_STEP_COST}), n = {n},"
    raise BadParameter(f"{formula} must be at most {MAX_FLOW_WORK:g}")


def integrate_flow(sigma, N, R, x_max, step=None):
    """Fourth-order integration of sigma's atoms over [-x_max, x_max].

    The grid is symmetric, so its middle node is x = 0.  A flow beyond
    flow_budget raises BadParameter first.  Each side runs
    _kernels.flow_integrate.  Atoms passing close to each other make the flow
    stiff, so a side whose figure exceeds STEP_ERR_TOL R^2, or whose atoms
    leave |t| < R, w > 0, is taken again in 2, 4, ... substeps per step
    within the budget, and then raises StepTooLarge.  est_error is the
    largest figure plus ROUNDING_ULPS sqrt(substeps) ulps of max |V|.
    """
    step = default_step(Setting.schrodinger(R).R) if step is None else step
    if not (0.0 < x_max < math.inf and 0.0 < step < math.inf):
        raise BadParameter(f"x_max and step must be positive and finite, got {x_max!r} and {step!r}")
    y0 = init_flow(sigma, N, R)
    n_steps, allowance = flow_budget(sigma, N, x_max / step)
    h = x_max / n_steps
    tol = STEP_ERR_TOL * R * R

    atoms = np.empty((2 * n_steps + 1, *y0.shape))
    est, m_most, spent = 0.0, 1, 2  # spent: RK4 steps per step so far, both sides
    for d in (+1, -1):
        m = 1
        with np.errstate(all="ignore"):  # a state that overflows is refused as not finite
            while True:
                states, status, bad, worst = _kernels.flow_integrate(y0, d * h / m, n_steps * m, R, tol)
                if status == _kernels.FLOW_OK or spent + 2 * m > allowance:
                    break
                spent, m = spent + 2 * m, 2 * m
        where = f"x = {d * bad * h / m:.6g}; reduce the step"
        if status == _kernels.FLOW_STEP_TOO_LARGE:
            raise StepTooLarge(f"error figure exceeded {tol:.3g} near {where}")
        if status == _kernels.FLOW_LEFT_REGION:
            raise StepTooLarge(f"an atom left |t| < R, w > 0 at {where}")
        atoms[n_steps::d] = states[::m]  # outward from x = 0
        est, m_most = max(est, worst), max(m_most, m)
    V = 0.0 - 2.0 * np.sum(atoms[:, 1], axis=1)  # not -2 s0: the zero measure's V stays +0.0
    est += ROUNDING_ULPS * math.sqrt(m_most * n_steps) * np.finfo(float).eps * float(np.max(np.abs(V)))
    xs = np.linspace(-n_steps * h, n_steps * h, 2 * n_steps + 1)
    return PotentialTrace(xs, V, N, est, R, atoms, h)


def generating_function(atoms, w):
    """p(w) = sum w_i w / (1 - t_i w) for an atom state (t, w), or a stack of them."""
    w = complex(w)
    den = atoms[..., 0, :] * -w  # 1 - t_i w, then the terms, in one complex array
    den += 1.0
    return np.sum(np.divide(atoms[..., 1, :] * w, den, out=den), axis=-1)


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


def _quarter_potential(sigmas, H):
    """V = -2 s0 at the nodes of a grid of step H and, at t = 1/4, 1/2, 3/4 of
    each cell, the quintic Hermite interpolant of the nodal V, V' = 4 s1 and
    V'' = 4 (s0^2 - 2 s2): 4 (len - 1) + 1 values, all finite or NonFiniteOutput."""
    s0, s1, s2 = sigmas[:, 0], sigmas[:, 1], sigmas[:, 2]
    table = np.empty(4 * len(sigmas) - 3)
    with np.errstate(over="ignore", invalid="ignore"):
        # in the cell variable t = (x - x_i)/H: V, H V' and H^2 V''/2
        V, dV, d2V = -2.0 * s0, 4.0 * H * s1, 2.0 * H * H * (s0 * s0 - 2.0 * s2)
        table[::4] = V
        for k in (1, 2, 3):
            t, s = k / 4.0, 1.0 - k / 4.0
            left = V[:-1] * (1.0 + 3.0 * t + 6.0 * t * t) + t * (dV[:-1] * (1.0 + 3.0 * t) + d2V[:-1] * t)
            right = V[1:] * (1.0 + 3.0 * s + 6.0 * s * s) - s * (dV[1:] * (1.0 + 3.0 * s) - d2V[1:] * s)
            table[k::4] = s ** 3 * left + t ** 3 * right
    if not np.all(np.isfinite(table)):
        raise NonFiniteOutput(f"interpolated potential is not finite at step {H:.6g}")
    return table


def riccati_oracle(trace, w):
    """Independent Riccati integration of p(x, w) from the atoms' value p(0, w).

    Starts at the trace's middle node, x = 0, and integrates along the stable
    direction(s) for this w, two steps per trace step, reading V from the
    trace's quarter-step table, trace.quarter_potential.  Returns (rows, p):
    the slice of trace rows the integration passes and p at those nodes.
    Raises NonFiniteOutput when the table is not finite, and RiccatiBlowUp
    when |p| exceeds 10 R, the sign of leaving the analyticity domain.
    """
    w = complex(w)
    if not 0.0 < abs(w) < 1.0 / trace.R:
        raise BadParameter("w must be nonzero and inside the convergence disk |w| < 1/R")
    V = trace.quarter_potential
    n = len(trace.xs) // 2
    h = trace.step / 2
    p0 = generating_function(trace.atoms[n], w)
    directions = stable_riccati_directions(w)

    p = np.empty(2 * n + 1, dtype=complex)
    for d in directions:
        # outward from x = 0: the walk's nodes are half steps, its midpoints quarter steps
        path = _kernels.riccati_path(p0, V[4 * n :: 2 * d], V[4 * n + d :: 2 * d], d * h, w)
        bad = ~np.isfinite(path) | (np.abs(path) > BLOWUP_FACTOR * trace.R)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise RiccatiBlowUp(f"|p| exceeded {BLOWUP_FACTOR} R at x = {d * k * h:.6g}")
        p[n::d] = path[::2]
    rows = slice(0 if -1 in directions else n, 2 * n + 1 if +1 in directions else n + 1)
    return rows, p[rows]


def riccati_mismatch(trace, ws):
    """sup |p_flow - p_riccati| over each w's stable range on the trace grid.

    p_flow is the generating function of the flow's atoms; the Riccati path
    is evaluated independently, so agreement cross-validates the flow.
    """
    per_w = []
    for w in np.atleast_1d(ws):
        rows, path = riccati_oracle(trace, w)
        flow_p = generating_function(trace.atoms[rows], w)  # a view of the atoms, not a copy
        per_w.append((complex(w), float(np.max(np.abs(flow_p - path)))))
    return float(np.max([d for _, d in per_w], initial=0.0)), per_w  # NaN stays NaN


def binomial_sum_identity(N1, N2, p):
    """sum_k C(N1+k, k) C(N2-k, p-k) == C(N1+N2+1, p), k = 0..p, exactly."""
    if not all(map(is_integer, (N1, N2, p))) or N1 < 1 or p < 0 or N2 < p:
        raise BadParameter("needs integers N1 >= 1 and N2 >= p >= 0")
    lhs = sum(math.comb(N1 + k, k) * math.comb(N2 - k, p - k) for k in range(p + 1))
    return lhs == math.comb(N1 + N2 + 1, p)
