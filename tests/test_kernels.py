"""The hot kernels: atom-flow status codes, the in-place modified Chebyshev
sweep and continued fractions against their loop references, and the
Cholesky route of moments_to_recurrence against the sweep."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    loop_cf_minus,
    loop_cf_plus,
    loop_wheeler,
    m_form_cf_minus,
    m_form_cf_plus,
    random_jacobi_measure,
    soliton_potential,
)
import reflectionless
from reflectionless import Measure, Setting, _kernels
from reflectionless.errors import HankelBreakdown
from reflectionless.jacobi import (
    BREAKDOWN_TOL,
    CHOLESKY_MAX_ROWS,
    JacobiWindow,
    _add_nodes,
    _cholesky_rows,
    _free_state,
    _wheeler,
    m_oracle,
    moments_to_recurrence,
    rho_minus_moments,
    rho_plus_moments,
)
from reflectionless.presets import soliton

BIT_CHECKS = settings(max_examples=300)
# the descent on w = -1/m (plus) and m_oracle's minus side (w = a_0^2 m, from
# the free state) against the same continued fractions on m: worst relative
# difference measured over the NaN-free cf_inputs draws 2.4e-15 (minus) and
# 4.3e-16 (plus)
M_FORM_RTOL = 1e-14


def test_flow_status_codes():
    # an atom thrown past R by steps of 1.5, with the figure let through
    y0 = np.array([[0.0], [3.9]])
    states, status, bad, _ = _kernels.flow_integrate(y0, 1.5, 5, 2.0, np.inf)
    assert status == _kernels.FLOW_LEFT_REGION
    assert bad == len(states) - 1 >= 1

    states, status, bad, worst = _kernels.flow_integrate(np.array([[0.0], [3.0]]), 2.0, 10, 2.0, 1e-9)
    assert status == _kernels.FLOW_STEP_TOO_LARGE
    assert bad == 0 and len(states) == 1 and worst > 1e-9

    states, status, bad, worst = _kernels.flow_integrate(np.array([[0.0], [1.0]]), 0.01, 10, 2.0, 1e-9)
    assert status == _kernels.FLOW_OK and bad == -1 and len(states) == 11 and worst <= 1e-9


def test_flow_refuses_nan_states():
    # NaN compares false both ways, so each step test must be one that NaN fails
    y0 = np.array([[0.5, 1.0], [np.nan, 0.1]])
    states, status, bad, _ = _kernels.flow_integrate(y0, 0.1, 5, 2.0, 1e-6)
    assert status == _kernels.FLOW_STEP_TOO_LARGE
    assert bad == 0 and len(states) == 1


def test_flow_figure_bounds_the_error():
    # the h/2 states against the one-soliton: below the figure, which shrinks
    # about 16-fold when the step halves
    y0 = np.array([[0.3], [0.8]])
    worsts = []
    for h, n in ((0.25, 8), (0.125, 16)):
        states, status, _, worst = _kernels.flow_integrate(y0, h, n, 2.0, 1.0)
        exact = soliton_potential([(0.3, 0.8)], h * np.arange(n + 1))
        assert status == _kernels.FLOW_OK and states.shape == (n + 1, 2, 1)
        assert np.max(np.abs(-2.0 * states[:, 1, 0] - exact)) <= worst
        worsts.append(worst)
    assert 8 < worsts[0] / worsts[1] < 32


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


def check_sweep_against_loop(nu, N):
    """_wheeler against loop_wheeler: with no failed pivot, equal bit for bit;
    else it raises HankelBreakdown at the reference's first row k >= 1 whose
    beta is at or below BREAKDOWN_TOL or NaN (pivot k + 1), and a sweep of k
    rows equals the reference's rows before it.  Returns k, or None."""
    with np.errstate(all="ignore"):
        alpha, beta = loop_wheeler(nu, N)
        bad = np.flatnonzero(~(beta[1:] > BREAKDOWN_TOL))
        if not bad.size:
            assert _bits(*_wheeler(nu.copy(), N)) == _bits(alpha, beta)
            return None
        row = int(bad[0]) + 1
        with pytest.raises(HankelBreakdown) as err:
            _wheeler(nu.copy(), N)
        assert err.value.pivot == row + 1
        assert _bits(*_wheeler(nu.copy(), row)) == _bits(alpha[:row], beta[:row])
    return row


class TestWheeler:
    @BIT_CHECKS
    @given(sweep_inputs())
    def test_bit_equal_to_loop(self, case):
        check_sweep_against_loop(*case)

    def test_exact_zero_pivot_at_every_row(self):
        N = 8
        for row in range(N):
            nu = zero_pivot_moments(([1, 2] * N)[:max(row - 1, 0)], 3 if row else 0, 2 * N)
            # a zero mass leaves beta_0 = 0, so its first failed pivot is row 1
            assert check_sweep_against_loop(nu, N) == max(row, 1)

    def test_input_not_modified(self):
        ts = np.linspace(-1.8, 1.8, 8)
        nu = monic_free_moments(ts, np.full(8, 0.125), 12)
        assert check_sweep_against_loop(nu, 6) is None
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


def _minus_window(a, b):
    """The window of sites 1 - a.size..0 holding a and b in site order."""
    return JacobiWindow(1 - a.size, 0, tuple(a.tolist()), tuple(b.tolist()), 2.0)


class TestContinuedFractions:
    @BIT_CHECKS
    @given(cf_inputs())
    def test_plus_bit_equal_to_loop(self, case):
        with np.errstate(all="ignore"):
            assert _bits(_kernels.cf_plus(*case)) == _bits(loop_cf_plus(*case))

    @BIT_CHECKS
    @given(cf_inputs())
    @example((np.array([1.5]), np.array([0.3]), np.array([0.2 + 1j]), np.array([1j])))  # n_min = 0
    def test_minus_bit_equal_to_loop(self, case):
        # m_oracle's minus side descends the reflected window with cf_plus
        a, b, z, _ = case
        if not a.size:
            return
        with np.errstate(all="ignore"):
            got = m_oracle(_minus_window(a, b), z, "minus")
            assert _bits(got) == _bits(loop_cf_minus(a, b, z, _free_state(z)))

    @BIT_CHECKS
    @given(cf_inputs())
    def test_agree_with_the_m_form(self, case):
        a, b, z, seed = case
        if np.isnan(a).any() or np.isnan(b).any():
            return
        want = m_form_cf_plus(a, b, z, -1.0 / seed)
        assert np.all(np.abs(-1.0 / _kernels.cf_plus(a, b, z, seed) - want) <= M_FORM_RTOL * np.abs(want))
        if a.size:
            want = m_form_cf_minus(a, b, z, _free_state(z))
            got = m_oracle(_minus_window(a, b), z, "minus")
            assert np.all(np.abs(got - want) <= M_FORM_RTOL * np.abs(want))

    def test_seed_not_modified(self):
        seed = np.array([0.2 + 0.1j, -0.3 + 0.4j])
        z = np.array([1j, 0.5 + 2j])
        out = _kernels.cf_plus(np.array([1.5, 1.2]), np.array([0.1, -0.2]), z, seed)
        assert out is not seed and seed.tolist() == [0.2 + 0.1j, -0.3 + 0.4j]


def _sides(sigma, N):
    """The deflated moments of rho+ and rho- that reconstruct(sigma, ., N) reads."""
    K = 2 * N + 2
    return rho_plus_moments(sigma, K), rho_minus_moments(sigma, K)[0]


def _swept(m, rows):
    alpha, beta = _wheeler(m[0], rows)
    _add_nodes(alpha, beta, m[1])
    return alpha, beta


# worst disagreement measured over these 200 draws, alpha absolute and beta
# relative: 7.2e-16 and 1.6e-15 at N = 40, 1.1e-15 and 1.8e-15 at N = 80, and
# 4.3e-15 and 4.9e-15 at N = 120 (draw 64 of the minus side, where both routes
# are about 1e-14 from the mpmath window; every other N = 120 side within 1.6e-15)
ROUTE_TOL = {40: 2e-15, 80: 2e-15, 120: 6e-15}
# an N = 120 reconstruction that takes the route on both sides
DEEP_ATOMS = [(-0.98, 2.1e-4), (-1.027, 1.7e-5), (1.008, 8.1e-5), (-0.968, 3.3e-5), (-0.996, 1.3e-4)]


class TestCholeskyRoute:
    @pytest.mark.parametrize("N", sorted(ROUTE_TOL))
    def test_rows_agree_with_the_sweep(self, N):
        taken = 0
        for seed in range(200):
            sigma, _ = random_jacobi_measure(np.random.RandomState(seed))
            for m in _sides(sigma, N):
                if _cholesky_rows(m[0], N + 1) is None:
                    continue
                taken += 1
                alpha, beta = moments_to_recurrence(m, N + 1)
                alpha_s, beta_s = _swept(m, N + 1)
                assert np.max(np.abs(alpha - alpha_s)) <= ROUTE_TOL[N]
                assert np.max(np.abs(beta / beta_s - 1.0)) <= ROUTE_TOL[N]
        # the route resolves every side up to N = 80 and most at N = 120,
        # where the deepest rows of some draws reach rounding
        assert taken == 400 if N <= 80 else taken >= 350

    @pytest.mark.parametrize("sigma, setting, N", [
        (*soliton(0.1), 40),
        (*soliton(0.25), 40),
        (*soliton(0.5), 40),
        (Measure.zero(), Setting.jacobi(2.0), 40),
        # a one-atom tail at rounding level: a_n = 1 - 1.1e-16 at some sites
        (Measure.point(0.5, 0.01), Setting.jacobi(8.0), 40),
        # more rows than CHOLESKY_MAX_ROWS
        (Measure.from_atoms(DEEP_ATOMS), Setting.jacobi(2.003), CHOLESKY_MAX_ROWS),
    ], ids=["soliton-0.1", "soliton-0.25", "soliton-0.5", "free", "atom-R8", "deep-122-rows"])
    def test_inputs_the_route_leaves_to_the_sweep(self, sigma, setting, N):
        for m in _sides(sigma, N):
            assert _cholesky_rows(m[0], N + 1) is None
            assert _bits(*moments_to_recurrence(m, N + 1)) == _bits(*_swept(m, N + 1))

    def test_same_bytes_under_one_and_two_threads(self):
        # the largest order the route takes, N = CHOLESKY_MAX_ROWS - 1, in
        # fresh interpreters whose BLAS runs one thread or two
        N = CHOLESKY_MAX_ROWS - 1
        sigma = Measure.from_atoms(DEEP_ATOMS)
        assert all(_cholesky_rows(m[0], N + 1) is not None for m in _sides(sigma, N))
        src = str(Path(reflectionless.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import hashlib, numpy as np; "
            "from reflectionless import Measure, Setting; from reflectionless.jacobi import reconstruct; "
            f"w = reconstruct(Measure.from_atoms({DEEP_ATOMS!r}), Setting.jacobi(2.003), {N}); "
            "print(hashlib.sha256(np.array(w.a + w.b).tobytes()).hexdigest())"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1] and len(digests[0]) == 64
