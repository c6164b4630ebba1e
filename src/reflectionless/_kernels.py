"""Hot numeric kernels: continued fractions, moment-flow RK4 and Riccati paths.

All but the Riccati path are vectorized numpy; it walks one w on Python
complex scalars.  The RK4 step looks up ``_deriv_numpy`` as a module global
on every call, so a wrapper swapped in under that name sees every derivative
evaluation.
"""

from __future__ import annotations

import numpy as np

FLOW_OK = 0
FLOW_BOUND_VIOLATED = 1
FLOW_STEP_TOO_LARGE = 2


def cf_plus(a, b, z, w):
    # descend w_n = z - b_{n+1} - a_{n+1}^2 / w_{n+1} from the last site, m_n = -1/w_n
    w = w.astype(np.complex128)
    for a2, zb in zip((a * a)[::-1].tolist(), z - b[::-1, None]):
        np.divide(a2, w, out=w)
        np.subtract(zb, w, out=w)
    return -1.0 / w


def cf_minus(a, b, z, v):
    # ascend v_n = a_n^2 m_n = z - b_n - a_{n-1}^2 / v_{n-1}; arrays ordered along the sweep
    a2 = [1.0, *(a * a).tolist()]
    v = v.astype(np.complex128)
    for a2_prev, zb in zip(a2, z - b[:, None]):
        np.divide(a2_prev, v, out=v)
        np.subtract(zb, v, out=v)
    return v / a2[-1]


def _deriv_numpy(s):
    # s0' = -2 s1 ; sn' = -2 s_{n+1} + sum_{j<n} s_j s_{n-1-j} ; closure s_{N+1}=0
    ds = np.empty_like(s)
    conv = np.convolve(s, s)[: s.size]
    ds[:-1] = -2.0 * s[1:]
    ds[-1] = 0.0
    ds[1:] += conv[: s.size - 1]
    return ds


def _rk4(s, h):
    k1 = _deriv_numpy(s)
    k2 = _deriv_numpy(s + 0.5 * h * k1)
    k3 = _deriv_numpy(s + 0.5 * h * k2)
    k4 = _deriv_numpy(s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_integrate(s0, h, n_steps, bounds, err_tol):
    states = [s0.copy()]
    status = FLOW_OK
    bad_step = -1
    worst_err = 0.0
    y = s0.copy()
    for k in range(n_steps):
        y_full = _rk4(y, h)
        y_half = _rk4(_rk4(y, 0.5 * h), 0.5 * h)
        err = float(np.max(np.abs(y_half - y_full) / bounds)) / 15.0
        worst_err = max(worst_err, err)
        if not err <= err_tol:  # a NaN estimate is refused too
            status = FLOW_STEP_TOO_LARGE
            bad_step = k
            break
        y = y_half
        states.append(y.copy())
        if not np.all(np.abs(y) <= bounds):
            status = FLOW_BOUND_VIOLATED
            bad_step = k + 1
            break
    return np.asarray(states), status, bad_step, worst_err


def riccati_path(p0, v_nodes, v_mids, h, w):
    # dp/dx = -V + p^2 - (2/w) p for one w: RK4 on Python complex scalars
    c = 2.0 / w
    p = complex(p0)
    path = [p]
    for vk, vm, vk1 in zip(v_nodes.tolist(), v_mids.tolist(), v_nodes[1:].tolist()):
        k1 = -vk + p * p - c * p
        q = p + 0.5 * h * k1
        k2 = -vm + q * q - c * q
        q = p + 0.5 * h * k2
        k3 = -vm + q * q - c * q
        q = p + h * k3
        k4 = -vk1 + q * q - c * q
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(p)
    return np.array(path)
