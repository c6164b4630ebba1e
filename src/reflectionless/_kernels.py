"""Hot numeric kernels: continued fractions, the atom flow's RK4 and Riccati paths.

All but the Riccati path are vectorized numpy; it walks one w on Python
complex scalars.
"""

from __future__ import annotations

import numpy as np

FLOW_OK = 0
FLOW_LEFT_REGION = 1
FLOW_STEP_TOO_LARGE = 2
# 4 |V_{h/2} - V_h| / 15, 4 times the global Richardson estimate of V_{h/2}'s error
ERR_FACTOR = 4.0 * 2.0 / 15.0


def cf_plus(a, b, z, w):
    # descend w <- z - b_k - a_k^2 / w from the last site to the first; returns the state w
    w = w.astype(np.complex128)
    for a2, zb in zip((a * a)[::-1].tolist(), z - b[::-1, None]):
        np.divide(a2, w, out=w)
        np.subtract(zb, w, out=w)
    return w


def _atom_deriv(y, off):
    # y = (t, w), each (..., n): t_i' = w_i, w_i' = 2 w_i (sum_{j != i} w_j / (t_i - t_j) - t_i);
    # off masks out the diagonal, where t_i - t_i leaves 0
    t, w = y[0], y[1]
    d = t[..., :, None] - t[..., None, :]
    np.divide(1.0, d, out=d, where=off)
    dy = np.empty_like(y)
    dy[0] = w
    np.multiply(np.matmul(d, w[..., None])[..., 0] - t, 2.0 * w, out=dy[1])
    return dy


def _rk4(y, h, off):
    k1 = _atom_deriv(y, off)
    k2 = _atom_deriv(y + 0.5 * h * k1, off)
    k3 = _atom_deriv(y + 0.5 * h * k2, off)
    k4 = _atom_deriv(y + h * k3, off)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def flow_integrate(y0, h, n_steps, R, err_tol):
    """RK4 on the atoms y0 = (t, w): n_steps steps of h, each taken as two of
    h/2, with the trajectory of single steps of h beside it; one batched call
    moves both (12 derivative evaluations a step in 8 calls).  A figure ERR_FACTOR |V_{h/2} - V_h|, V = -2 sum w,
    above err_tol or NaN stops the walk with FLOW_STEP_TOO_LARGE; an h/2 state
    outside |t| < R, w > 0 (or not finite) with FLOW_LEFT_REGION.  Returns
    (states, status, bad_step, worst_err): the h/2 states up to the last good
    one, the status, the step where the walk stopped (-1 if it did not) and
    the largest figure."""
    off = ~np.eye(y0.shape[1], dtype=bool)
    steps = np.array([[h], [0.5 * h]])
    y = np.stack([y0, y0], axis=1)  # y[:, 0] the h trajectory, y[:, 1] the h/2 one
    states = [y0.copy()]
    worst_err = 0.0
    for k in range(n_steps):
        y = _rk4(y, steps, off)
        y[:, 1:] = _rk4(y[:, 1:], 0.5 * h, off)
        t, w = y[0, 1], y[1, 1]
        mass = w.sum()
        err = ERR_FACTOR * abs(float(mass - y[1, 0].sum()))
        worst_err = max(worst_err, err)
        if not err <= err_tol:  # a NaN figure is refused too
            return np.asarray(states), FLOW_STEP_TOO_LARGE, k, worst_err
        states.append(y[:, 1])
        if not (np.abs(t).max(initial=0.0) < R and w.min(initial=np.inf) > 0.0 and mass < np.inf):
            return np.asarray(states), FLOW_LEFT_REGION, k + 1, worst_err
    return np.asarray(states), FLOW_OK, -1, worst_err


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
