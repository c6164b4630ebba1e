"""The hot kernels: moment-flow status codes, and the in-place modified
Chebyshev sweep and continued fractions against their loop references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_cf_minus, loop_cf_plus, loop_wheeler
from reflectionless import _kernels
from reflectionless.jacobi import _wheeler

BIT_CHECKS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def test_flow_status_codes():
    s0 = np.array([5.0, 0.0, 0.0, 0.0, 0.0])
    tight = np.full(5, 4.0)  # violated from the start once sigma_1 grows
    states, status, bad, _ = _kernels.flow_integrate(s0, 0.1, 50, tight, 1e6)
    assert status == _kernels.FLOW_BOUND_VIOLATED
    assert bad >= 1

    states, status, bad, worst = _kernels.flow_integrate(
        np.array([3.0, 0.0, 0.0, 0.0, 0.0]), 2.0, 10, np.full(5, 1e12), 1e-9
    )
    assert status == _kernels.FLOW_STEP_TOO_LARGE


def test_flow_refuses_nan_states():
    # NaN compares false both ways, so each step test must be one that NaN fails
    s0 = np.array([1.0, np.nan, 0.0, 0.0, 0.0])
    states, status, bad, _ = _kernels.flow_integrate(s0, 0.1, 5, np.full(5, 1e12), 1e-6)
    assert status == _kernels.FLOW_STEP_TOO_LARGE
    assert bad == 0 and len(states) == 1


def _bits(*arrays):
    return [np.asarray(x).tobytes() for x in arrays]


def monic_free_moments(ts, ws, count):
    """Moments of sum w delta_t against the monic free-basis polynomials
    U_l(t/2): p_1 = t, p_{l+1} = t p_l - p_{l-1}."""
    p_prev, p = np.zeros_like(ts), np.ones_like(ts)
    out = []
    for l in range(count):
        out.append(float(np.dot(ws, p)))
        p_prev, p = p, ts * p - (0.0 if l == 0 else 1.0) * p_prev
    return np.array(out)


def zero_pivot_moments(betas, mass, count):
    """Integer free-basis moments of the symmetric measure whose recurrence
    has alpha = 0 and the given integer betas: len(betas) + 1 atoms, so the
    sweep computes every row exactly and row len(betas) + 1 has an exact-zero
    pivot (row 0 when the mass is zero)."""
    k = len(betas) + 1
    T = np.zeros((k, k), dtype=object)  # monic Jacobi matrix, exact integers
    for j, b in enumerate(betas):
        T[j, j + 1], T[j + 1, j] = 1, b
    eye = np.identity(k, dtype=object)
    P_prev, P = 0 * eye, eye
    out = []
    for l in range(count):
        out.append(float(mass * P[0, 0]))
        c = 0 if l == 0 else 1
        P_prev, P = P, T.dot(P) - c * P_prev
    return np.array(out)


@st.composite
def sweep_inputs(draw):
    """(monic moments, N): moments of random atomic measures, raw random
    vectors of three scales, vectors with NaN entries, and integer moments
    with an exact-zero pivot at a chosen row."""
    N = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 12)))
    K = 2 * N
    kind = draw(st.sampled_from(["measure", "raw", "nan", "zero_pivot"]))
    if kind == "zero_pivot":
        row = draw(st.integers(0, N))
        n_betas = max(row - 1, 0)
        betas = draw(st.lists(st.integers(1, 2), min_size=n_betas, max_size=n_betas))
        mass = 0 if row == 0 else draw(st.integers(1, 8))
        return zero_pivot_moments(betas, mass, K), N
    R = draw(st.one_of(st.sampled_from([2.0, 2.003, 4.0]), st.floats(2.0, 12.0)))  # support bound
    if kind == "measure":
        n_atoms = draw(st.integers(1, 8))
        ts = np.array(draw(st.lists(st.floats(-R, R), min_size=n_atoms, max_size=n_atoms)))
        ws = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_atoms, max_size=n_atoms)))
        return monic_free_moments(ts, ws / ws.sum(), K), N
    nu = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=K, max_size=K)))
    nu *= draw(st.sampled_from([1.0, 1e-200, 1e200]))  # rows that underflow or overflow
    if kind == "nan":
        nu[draw(st.integers(0, K - 1))] = np.nan
    return nu, N


class TestWheeler:
    @BIT_CHECKS
    @given(sweep_inputs())
    def test_bit_equal_to_loop(self, case):
        nu, N = case
        with np.errstate(all="ignore"):
            want = loop_wheeler(nu, N)
            got = _wheeler(nu.copy(), N)
        assert _bits(*got) == _bits(*want)  # NaN rows in the same places too

    def test_exact_zero_pivot_at_every_row(self):
        N = 8
        for row in range(N):
            nu = zero_pivot_moments(([1, 2] * N)[:max(row - 1, 0)], 3 if row else 0, 2 * N)
            with np.errstate(all="ignore"):
                got = _wheeler(nu, N)
                want = loop_wheeler(nu, N)
            assert _bits(*got) == _bits(*want)
            valid = max(row, 1)  # a zero mass still leaves beta_0 = 0
            assert np.all(np.isfinite(got[1][:valid])) and np.all(np.isnan(got[1][valid:]))

    def test_input_not_modified(self):
        nu = monic_free_moments(np.array([0.3, -1.1]), np.array([0.4, 0.6]), 12)
        before = nu.tobytes()
        _wheeler(nu, 6)
        assert nu.tobytes() == before


@st.composite
def cf_inputs(draw):
    """(a, b, z, seed) with z of size 1 or 26 in the upper half plane and a,
    b of 0 to 40 sites, some free (a = 1, b = 0) and some NaN."""
    n = draw(st.integers(0, 40))
    n_z = draw(st.sampled_from([1, 26]))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(0.5, 3.0, n)
    b = rng.uniform(-2.0, 2.0, n)
    free = rng.rand(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    a[free], b[free] = 1.0, 0.0
    if n and draw(st.booleans()):
        (a if draw(st.booleans()) else b)[draw(st.integers(0, n - 1))] = np.nan
    z = rng.uniform(-3.0, 3.0, n_z) + 1j * rng.uniform(1e-3, 3.0, n_z)
    seed = rng.uniform(-1.0, 1.0, n_z) + 1j * rng.uniform(1e-3, 1.0, n_z)
    return a, b, z, seed


class TestContinuedFractions:
    @BIT_CHECKS
    @given(cf_inputs())
    def test_plus_bit_equal_to_loop(self, case):
        with np.errstate(all="ignore"):
            assert _bits(_kernels.cf_plus(*case)) == _bits(loop_cf_plus(*case))

    @BIT_CHECKS
    @given(cf_inputs())
    def test_minus_bit_equal_to_loop(self, case):
        with np.errstate(all="ignore"):
            assert _bits(_kernels.cf_minus(*case)) == _bits(loop_cf_minus(*case))

    def test_seed_not_modified(self):
        seed = np.array([0.2 + 0.1j, -0.3 + 0.4j])
        z = np.array([1j, 0.5 + 2j])
        for cf in (_kernels.cf_plus, _kernels.cf_minus):
            out = cf(np.array([1.5, 1.2]), np.array([0.1, -0.2]), z, seed)
            assert out is not seed and seed.tolist() == [0.2 + 0.1j, -0.3 + 0.4j]
