import math
import warnings

import numpy as np
import pytest

from helpers import loop_moment_bounds_ok, numpy_riccati_path, random_schrodinger_measure
from reflectionless.errors import (
    AdmissibilityRequired,
    BadParameter,
    NonFiniteOutput,
    RiccatiBlowUp,
    StepTooLarge,
    TruncationBlowup,
)
from reflectionless import _kernels, schrodinger
from reflectionless.measure import Measure
from reflectionless.schrodinger import (
    _quarter_potential,
    binomial_sum_identity,
    init_flow,
    integrate_flow,
    moment_generating,
    riccati_mismatch,
    riccati_oracle,
    stable_riccati_directions,
)

DELTA0 = Measure.point(0.0, 1.0)
PIECE = Measure.with_pieces([(0.9, 0.2)], [(-0.5, 0.5, (0.4, 0.0, 0.1))])


def hankel_min_eig(s, half):
    """Smallest eigenvalue of the moment Hankel matrix [s_{i+j}], i,j <= half."""
    idx = np.arange(half + 1)
    H = np.asarray(s)[idx[:, None] + idx[None, :]]
    return float(np.min(np.linalg.eigvalsh(H)))


class TestInitFlow:
    def test_zero_measure(self):
        s = init_flow(Measure.zero(), 6, 1.0)
        assert s.dtype == np.float64 and s.tolist() == [0.0] * 7

    def test_atom_at_origin(self):
        s = init_flow(DELTA0, 5, 2.0)
        assert s.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_symmetric_pair(self):
        sigma = Measure.from_atoms([(0.5, 0.5), (-0.5, 0.5)])
        s = init_flow(sigma, 4, 2.0)
        assert s.tolist() == [1.0, 0.0, 0.25, 0.0, 0.0625]

    def test_requires_admissible(self):
        # the gate's message names the setting, the minimum and its E
        message = r"^measure fails the schrodinger admissibility inequality \(min -0\.25 at E = -4\)$"
        with pytest.raises(AdmissibilityRequired, match=message):
            init_flow(Measure.point(0.0, 5.0), 6, 2.0)

    def test_piece_density_measure(self):
        # smooth representing measures drive the flow too
        sigma = Measure.with_pieces([], [(-0.5, 0.5, (0.4, 0.0, 0.1))])
        trace = integrate_flow(sigma, 24, 2.0, 0.4)
        worst, _ = riccati_mismatch(trace, [0.12, -0.12, 0.12j])
        assert worst <= 1e-6
        assert np.max(trace.V) <= 1e-9


class TestFlowDerivative:
    """The right-hand side of the hierarchy truncated at sigma_{N+1} = 0."""

    def test_single_mass(self):
        assert tuple(_kernels._deriv_numpy(np.array([1.0, 0.0, 0.0, 0.0]))) == (0.0, 1.0, 0.0, 0.0)

    def test_zero_fixed_point(self):
        assert not np.any(_kernels._deriv_numpy(np.zeros(5)))

    def test_scaling(self):
        c = 1.7
        ds = _kernels._deriv_numpy(np.array([c, 0.0, 0.0, 0.0, 0.0]))
        assert ds[0] == 0.0 and ds[1] == pytest.approx(c * c)


class TestIntegrateFlow:
    def test_zero_potential(self):
        for N in (4, 8, 16):
            trace = integrate_flow(Measure.zero(), N, 1.0, 2.0)
            assert np.max(np.abs(trace.V)) <= 1e-12

    def test_atom_matches_sech_profile(self):
        # independent closed form: the one-soliton well -2 sech^2(x)
        trace = integrate_flow(DELTA0, 40, 2.0, 1.0)
        expect = -2.0 / np.cosh(trace.xs) ** 2
        assert np.max(np.abs(trace.V - expect)) < 1e-7

    def test_atom_value_and_taylor(self):
        trace = integrate_flow(DELTA0, 40, 2.0, 0.06, step=0.005)
        i0 = int(np.argmin(np.abs(trace.xs)))
        assert trace.V[i0] == -2.0
        mask = np.abs(trace.xs) <= 0.05 + 1e-12
        xs = trace.xs[mask]
        taylor6 = -2.0 + 2.0 * xs ** 2 - (4.0 / 3.0) * xs ** 4 + (34.0 / 45.0) * xs ** 6
        assert np.max(np.abs(trace.V[mask] - taylor6)) <= 1e-8

    def test_potential_nonpositive(self):
        trace = integrate_flow(DELTA0, 40, 2.0, 1.0)
        assert np.max(trace.V) <= 1e-9

    def test_zero_sample_rigidity(self):
        # a potential vanishing at one sample must vanish everywhere; traces
        # of nonzero measures never hit an exact zero, the zero trace is all
        # zeros
        rng = np.random.RandomState(44)
        traces = [integrate_flow(Measure.zero(), 8, 1.0, 1.5)]
        for _ in range(3):
            sigma, setting = random_schrodinger_measure(rng)
            traces.append(integrate_flow(sigma, 24, setting.R, 0.8 / setting.R))
        for trace in traces:
            if np.any(trace.V == 0.0):
                assert np.max(np.abs(trace.V)) <= 1e-6

    def test_truncation_blowup_reports_x(self):
        with pytest.raises(TruncationBlowup) as err:
            integrate_flow(Measure.point(0.0, 3.9), 4, 2.0, 3.0)
        assert 0 < abs(err.value.x) <= 3.0

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            integrate_flow(Measure.point(0.0, 3.5), 8, 2.0, 2.0, step=0.5)

    def test_truncation_scaling_with_N(self):
        # doubling N must shrink the truncation error at least as fast as the
        # factorial envelope R^(N+3) x^N / N! predicts (up to a safety factor)
        R, x_half = 2.0, 0.25
        ref = integrate_flow(DELTA0, 48, R, x_half, step=1.0 / 80)

        def err(N):
            tr = integrate_flow(DELTA0, N, R, x_half, step=1.0 / 80)
            return np.max(np.abs(tr.V - ref.V))

        def envelope(N):
            return R ** (N + 3) * x_half ** N / math.gamma(N + 1)

        e6, e12 = err(6), err(12)
        assert e12 / e6 <= 10.0 * envelope(12) / envelope(6)
        assert e12 < e6

    def test_moment_envelope_along_flow(self):
        rng = np.random.RandomState(41)
        for _ in range(5):
            sigma, setting = random_schrodinger_measure(rng)
            R = setting.R
            trace = integrate_flow(sigma, 20, R, 0.8 / R)
            bound = R ** (np.arange(21) + 2.0) * (1 + 1e-9)
            assert np.all(np.abs(trace.sigmas) <= bound)

    def test_hankel_psd_along_flow(self):
        # moments of a positive measure stay a positive-definite sequence
        # along the flow; check at a depth margin below the truncation order
        # so the closure error cannot pollute the matrix entries
        rng = np.random.RandomState(42)
        N = 40
        sigma, setting = random_schrodinger_measure(rng)
        trace = integrate_flow(sigma, N, setting.R, 0.8 / setting.R)
        tol = -1e-8 * setting.R ** 22
        for row in trace.sigmas[::4]:
            assert hankel_min_eig(row, 10) >= tol


def sampler_cases():
    rng = np.random.RandomState(47)
    yield DELTA0, 2.0
    for _ in range(8):
        sigma, setting = random_schrodinger_measure(rng)
        yield sigma, setting.R


class TestHermiteSampler:
    """The quarter-step table of V, from the exact nodal V, V' and V''."""

    @pytest.mark.parametrize("sigma, R", list(sampler_cases()))
    def test_nodes_and_half_steps(self, sigma, R):
        h = 1.0 / (20.0 * R)
        trace = integrate_flow(sigma, 40, R, 0.8 / R, step=h)
        fine = integrate_flow(sigma, 40, R, 0.8 / R, step=h / 2)
        table = _quarter_potential(trace.sigmas, trace.step)
        assert table.size == 4 * (len(trace.xs) - 1) + 1
        assert table[::4].tobytes() == trace.V.tobytes()
        assert np.max(np.abs(table[2::4] - fine.V[1::2])) <= 1e-6

    def test_exact_on_quintics(self):
        # V = x^5 - x^2 through s0 = -V/2, s1 = V'/4, s2 = (s0^2 - V''/4)/2
        xs = np.linspace(-0.5, 0.5, 11)
        s0 = -(xs ** 5 - xs ** 2) / 2
        s1 = (5 * xs ** 4 - 2 * xs) / 4
        s2 = (s0 ** 2 - (20 * xs ** 3 - 2) / 4) / 2
        x = np.linspace(-0.5, 0.5, 41)
        table = _quarter_potential(np.stack([s0, s1, s2], axis=1), xs[1] - xs[0])
        assert np.max(np.abs(table - (x ** 5 - x ** 2))) <= 1e-14


class TestRiccati:
    def test_zero_potential_stays_zero(self):
        trace = integrate_flow(Measure.zero(), 8, 1.0, 1.0)
        _, path = riccati_oracle(trace, 0.3)
        assert np.max(np.abs(path)) == 0.0

    def test_stable_directions(self):
        assert stable_riccati_directions(complex(0.1)) == (+1,)
        assert stable_riccati_directions(complex(-0.15)) == (-1,)
        assert stable_riccati_directions(complex(0.0, 0.1)) == (-1, +1)

    def test_atom_agreement_real_and_complex_w(self):
        trace = integrate_flow(DELTA0, 40, 2.0, 1.0)
        worst, per_w = riccati_mismatch(trace, [0.1, 0.1j, -0.15])
        assert worst <= 1e-6
        for _, diff in per_w:
            assert diff <= 1e-6

    def test_agreement_random_measures(self):
        rng = np.random.RandomState(43)
        for _ in range(5):
            sigma, setting = random_schrodinger_measure(rng)
            R = setting.R
            trace = integrate_flow(sigma, 36, R, min(1.0, 0.9 / R))
            ws = [0.3 / R, -0.3 / R, 0.3j / R, -0.3j / R]
            worst, _ = riccati_mismatch(trace, ws)
            assert worst <= 1e-6

    def test_nan_mismatch_is_not_hidden(self, monkeypatch):
        # a NaN for any w makes the worst value NaN, whatever came before it
        trace = integrate_flow(DELTA0, 8, 2.0, 0.4)

        def nan_for_negative_w(trace, w):
            idx, p = riccati_oracle(trace, w)
            return idx, p * math.nan if w.real < 0 else p

        monkeypatch.setattr(schrodinger, "riccati_oracle", nan_for_negative_w)
        worst, per_w = riccati_mismatch(trace, [0.1, -0.15])
        assert math.isnan(worst) and math.isnan(per_w[1][1])

    @pytest.mark.parametrize("N, R, sigma", [(16, 2.0, DELTA0), (24, 1.5, PIECE)], ids=["delta0", "piece"])
    def test_scalar_walk_matches_numpy_columns(self, monkeypatch, N, R, sigma):
        # the CLI's w values, walked by the scalar kernel and by the numpy
        # one-column reference: the same bits
        trace = integrate_flow(sigma, N, R, 0.5 / R, step=0.01 / R)
        for w in (0.3 / R, 0.3j / R, -0.3 / R):
            idx, p = riccati_oracle(trace, w)
            with monkeypatch.context() as m:
                m.setattr(
                    _kernels, "riccati_path",
                    lambda p0, vn, vm, h, w: numpy_riccati_path(
                        np.atleast_1d(p0), vn, vm, h, np.atleast_1d(w)
                    )[:, 0],
                )
                ref_idx, ref = riccati_oracle(trace, w)
            assert idx.tobytes() == ref_idx.tobytes()
            assert p.tobytes() == ref.tobytes()

    def test_rejects_zero_w(self):
        trace = integrate_flow(DELTA0, 8, 2.0, 0.4)
        with pytest.raises(BadParameter):
            riccati_oracle(trace, 0.0)

    def test_rejects_w_outside_disk(self):
        trace = integrate_flow(DELTA0, 8, 2.0, 0.4)
        with pytest.raises(ValueError):
            riccati_oracle(trace, 0.6)

    def test_blowup_detected(self):
        # drive the quadratic term with an artificial far-out start
        trace = integrate_flow(DELTA0, 8, 2.0, 0.4)
        big = trace.sigmas.copy()
        big[:, 0] = 60.0
        fake = type(trace)(
            xs=trace.xs,
            V=-2.0 * big[:, 0],
            N_used=trace.N_used,
            est_truncation_error=trace.est_truncation_error,
            R=trace.R,
            sigmas=big,
            step=trace.step,
        )
        with pytest.raises(RiccatiBlowUp):
            riccati_oracle(fake, 0.45)

    def test_non_finite_potential_refused(self):
        # at step 1e157 the interpolant's H^2 V'' overflows to inf, and inf * 0
        # leaves NaN values of V even for the zero measure: a refusal, not a
        # blow-up of p, and no numpy warning on the way
        trace = integrate_flow(Measure.zero(), 4, 2.0, 1e160, step=1e157)
        with pytest.raises(NonFiniteOutput), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            riccati_oracle(trace, 0.1)

    def test_seed_is_the_flow_value_at_zero(self):
        # p(0, w) that starts the walk is the generating function exactly as
        # riccati_mismatch forms it on the flow's rows: no mismatch at x = 0
        rng = np.random.RandomState(26)
        for _ in range(24):
            R = float(rng.choice([1.0, 2.0, 4.0]))
            t = float(rng.uniform(-0.9, 0.9)) * R
            sigma = Measure.from_atoms([(t, float(rng.uniform(0.05, 0.95)) * (R * R - t * t))])
            trace = integrate_flow(sigma, int(rng.choice([8, 16, 40])), R, 0.4 / R, step=0.05 / R)
            n = len(trace.xs) // 2
            for w in (0.3 / R, 0.3j / R, -0.3 / R):
                idx, p = riccati_oracle(trace, w)
                at_zero = idx == n
                flow_p = moment_generating(trace.sigmas[idx], w)
                assert p[at_zero].tobytes() == flow_p[at_zero].tobytes()


class TestMomentBounds:
    def test_atom_state_passes(self):
        passed, worst, _ = loop_moment_bounds_ok(init_flow(DELTA0, 8, 2.0), 2.0, p_max=2)
        assert passed
        assert worst <= 1.0

    def test_zeroth_moment_bound_is_R_squared(self):
        # admissibility forces sigma_0 <= R^2; a mass at the limit passes
        passed, _, _ = loop_moment_bounds_ok(init_flow(Measure.point(0.0, 3.999999), 6, 2.0), 2.0)
        assert passed

    def test_derivative_bound_sharpness(self):
        # |s0'| = 2|s1| <= 2 R^3 against the envelope R^3 * 2!/1! = 2 R^3
        sigma = Measure.from_atoms([(1.5, 1.0)])
        passed, _, _ = loop_moment_bounds_ok(init_flow(sigma, 8, 2.0), 2.0, p_max=1)
        assert passed

    def test_failure_reported(self):
        passed, _, failures = loop_moment_bounds_ok(np.array([9.0, 0.0, 0.0, 0.0, 0.0]), 1.2)
        assert not passed
        assert failures


class TestBinomialIdentity:
    def test_small_cases_brute_force(self):
        assert binomial_sum_identity(1, 2, 1)
        assert sum(math.comb(1 + k, k) * math.comb(2 - k, 1 - k) for k in range(2)) == 4
        assert binomial_sum_identity(2, 3, 2)

    def test_p_zero(self):
        assert binomial_sum_identity(3, 5, 0)

    def test_full_range(self):
        for n1 in range(1, 7):
            for n2 in range(1, 9):
                for p in range(0, min(n2, 6) + 1):
                    assert binomial_sum_identity(n1, n2, p)


class TestGeneratingFunction:
    def test_matches_direct_sum(self):
        s = np.array([1.0, 0.5, 0.25])
        w = 0.2 + 0.1j
        expect = s[0] * w + s[1] * w ** 2 + s[2] * w ** 3
        assert moment_generating(s, w) == pytest.approx(expect, rel=1e-15)
