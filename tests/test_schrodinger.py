import dataclasses
import math
import warnings

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    numpy_riccati_path,
    random_schrodinger_measure,
    soliton_potential,
)
from reflectionless.errors import (
    AdmissibilityRequired,
    BadParameter,
    NonFiniteOutput,
    RiccatiBlowUp,
    StepTooLarge,
)
from reflectionless import _kernels, schrodinger
from reflectionless.measure import Measure, moments
from reflectionless.schrodinger import (
    FLOW_PAIR_COST,
    FLOW_STEP_COST,
    _quarter_potential,
    binomial_sum_identity,
    generating_function,
    init_flow,
    integrate_flow,
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
    """The flow's state at x = 0: the atoms (t, w) as the rows of one array."""

    def test_zero_measure(self):
        y = init_flow(Measure.zero(), 6, 1.0)
        assert y.dtype == np.float64 and y.shape == (2, 0)

    def test_atom_at_origin(self):
        assert init_flow(DELTA0, 5, 2.0).tolist() == [[0.0], [1.0]]

    def test_symmetric_pair(self):
        sigma = Measure.from_atoms([(0.5, 0.5), (-0.5, 0.5)])
        assert init_flow(sigma, 4, 2.0).tolist() == [[0.5, -0.5], [0.5, 0.5]]

    def test_piece_enters_through_its_moment_rule(self):
        # the nodes of the rule moments() uses at this order: the row at x = 0
        # holds the same moments
        y = init_flow(PIECE, 40, 1.5)
        assert y.shape == (2, 121)
        trace = integrate_flow(PIECE, 40, 1.5, 0.1)
        row = trace.moments(41)[len(trace.xs) // 2]
        assert np.max(np.abs(row - moments(PIECE, range(41)))) <= 1e-15

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


def atom_deriv(t, w):
    y = np.array([t, w], dtype=float)
    return _kernels._atom_deriv(y, ~np.eye(y.shape[1], dtype=bool))


class TestFlowDerivative:
    """The right-hand side of the atom flow: t_i' = w_i,
    w_i' = 2 w_i (sum_{j != i} w_j / (t_i - t_j) - t_i)."""

    def test_single_mass(self):
        # delta_0 moves off the origin at unit speed and keeps its mass at first
        assert atom_deriv([0.0], [1.0]).tolist() == [[1.0], [0.0]]

    def test_zero_fixed_point(self):
        assert not np.any(atom_deriv([0.3, -0.2, 1.1], [0.0, 0.0, 0.0]))

    def test_scaling(self):
        # one atom: w' = -2 t w, linear in w
        c = 1.7
        assert atom_deriv([0.5], [c]).tolist() == [[c], [-c]]

    def test_pair_exactly(self):
        # w_1' = 2 w_1 (w_2 / (t_1 - t_2) - t_1) with dyadic numbers
        dy = atom_deriv([0.5, -0.5], [0.25, 0.75])
        assert dy.tolist() == [[0.25, 0.75], [0.125, 0.375]]

    def test_moment_hierarchy(self):
        # the moments of the atoms obey s0' = -2 s1 and s1' = -2 s2 + s0^2
        rng = np.random.RandomState(31)
        for n in (2, 5, 8):
            t, w = rng.uniform(-1.5, 1.5, n), rng.uniform(0.1, 1.0, n)
            dt, dw = atom_deriv(t, w)
            s = [np.sum(w * t ** k) for k in range(3)]
            assert np.sum(dw) == pytest.approx(-2.0 * s[1], abs=1e-13)
            assert np.sum(dw * t + w * dt) == pytest.approx(-2.0 * s[2] + s[0] ** 2, abs=1e-12)


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

    def test_region_exit_is_refused(self, monkeypatch):
        # with the error figure let through and no retry (a budget of the two
        # steps' first passes alone), two steps of 1.5 carry the atom out of
        # the region; the flow names the x where it left
        monkeypatch.setattr(schrodinger, "STEP_ERR_TOL", math.inf)
        monkeypatch.setattr(schrodinger, "MAX_FLOW_WORK", 2 * FLOW_STEP_COST)
        with pytest.raises(StepTooLarge, match=r"left \|t\| < R, w > 0 at x = 3;"):
            integrate_flow(Measure.point(0.0, 3.9), 4, 2.0, 3.0, step=1.5)

    def test_step_too_large(self, monkeypatch):
        # four steps of 0.5 resolve kappa = 1.87 only with substeps; with the
        # budget spent on one retry in 2 substeps, the figure refuses the first step
        monkeypatch.setattr(schrodinger, "MAX_FLOW_WORK", 4 * 2 * FLOW_STEP_COST)
        with pytest.raises(StepTooLarge, match="near x = 0;"):
            integrate_flow(Measure.point(0.0, 3.5), 8, 2.0, 2.0, step=0.5)

    def test_stiff_pass_is_taken_again_in_substeps(self, monkeypatch):
        # the heavy atom overtakes the light one within the first steps of the
        # default grid: one substep per step is refused, and the retry in
        # substeps matches the two-soliton within the figure
        sigma, R = Measure.from_atoms([(0.1081, 0.6361), (0.1736, 0.1447)]), 1.227
        trace = integrate_flow(sigma, 8, R, 0.8 / R)
        exact = soliton_potential(sigma.atoms, trace.xs)
        assert np.max(np.abs(trace.V - exact)) <= trace.est_error <= 1e-6 * R * R
        # a budget of the 16 steps' first passes alone leaves no retry
        monkeypatch.setattr(schrodinger, "MAX_FLOW_WORK", 16 * (FLOW_PAIR_COST * 2 + FLOW_STEP_COST))
        with pytest.raises(StepTooLarge, match="error figure exceeded"):
            integrate_flow(sigma, 8, R, 0.8 / R)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16: est_error undercounts a 16-atom flow")
    def test_figure_bounds_a_sixteen_atom_flow(self):
        # draw 122 (0-based) of rng = np.random.default_rng(2026), each draw n =
        # rng.choice([1, 2, 3, 4, 6, 8, 12, 16]), R = rng.uniform(1, 4), t =
        # rng.uniform(-0.9 R, 0.9 R, n), w = exp(rng.uniform(log(1e-8), log(0.3), n)) R^2 / n:
        # the default grid is 4.86e-6 off the 16-soliton, against a figure of
        # 5.95e-7 and above STEP_ERR_TOL R^2 = 4.77e-6
        t = [-0.6728228093015634, 0.4827229382753053, -1.8309485789214657, 0.8007923605630536,
             1.1885548444541034, -0.5276568952540199, -1.8484550386306295, 0.7990446291147855,
             0.5287935650382156, 0.9963541367654773, -1.4151306544915307, 0.28201638852486344,
             -0.4499347455056122, -1.7204960005377425, 0.5304423666077702, 0.021244993837200132]
        w = [0.003101547217355349, 1.273162682002755e-06, 3.3815766773982143e-06,
             2.611006379094571e-07, 1.3245205674963244e-05, 1.065047020849025e-05,
             1.016286670726757e-08, 0.04404262301738782, 0.004252945093058484,
             0.00667842369422712, 1.356637695287001e-05, 1.9939724968994796e-06,
             0.0007778556072566809, 0.07254270125142326, 0.0013276559459866706,
             1.4342088054158944e-08]
        sigma, R = Measure.from_atoms(zip(t, w)), 2.1835557863083466
        trace = integrate_flow(sigma, 8, R, 0.8 / R)
        exact = soliton_potential(sigma.atoms, trace.xs)
        assert np.max(np.abs(trace.V - exact)) <= trace.est_error

    def test_retries_share_the_flow_budget(self, monkeypatch):
        # each side of the stiff pass above needs one retry in 2 substeps, which
        # costs per_pass a step (m / 2 of it for m substeps): a budget of the
        # first passes and both retries admits the flow, and one unit less
        # leaves the second side, x < 0, without its retry
        sigma, R = Measure.from_atoms([(0.1081, 0.6361), (0.1736, 0.1447)]), 1.227
        per_pass = FLOW_PAIR_COST * 2 + FLOW_STEP_COST
        work = 16 * per_pass + 2 * 16 * per_pass
        monkeypatch.setattr(schrodinger, "MAX_FLOW_WORK", work)
        integrate_flow(sigma, 8, R, 0.8 / R)
        monkeypatch.setattr(schrodinger, "MAX_FLOW_WORK", work - 1)
        with pytest.raises(StepTooLarge, match="error figure exceeded .* near x = -"):
            integrate_flow(sigma, 8, R, 0.8 / R)

    def test_order_sets_only_the_columns(self):
        # N no longer truncates anything: an atom measure's V is the same
        # array at every order, and its N + 1 moment columns are read from the atoms
        sigma = Measure.from_atoms([(0.4, 0.5), (-1.0, 0.3)])
        traces = [integrate_flow(sigma, N, 2.0, 1.0) for N in (4, 12, 40)]
        for trace, N in zip(traces, (4, 12, 40)):
            assert trace.V.tobytes() == traces[0].V.tobytes()
            assert trace.moments(N + 1).shape == (len(trace.xs), N + 1)

    def test_moment_envelope_along_flow(self):
        rng = np.random.RandomState(41)
        for _ in range(5):
            sigma, setting = random_schrodinger_measure(rng)
            R = setting.R
            trace = integrate_flow(sigma, 20, R, 0.8 / R)
            bound = R ** (np.arange(21) + 2.0) * (1 + 1e-9)
            assert np.all(np.abs(trace.moments(21)) <= bound)

    def test_hankel_psd_along_flow(self):
        # moments of a positive measure stay a positive-definite sequence
        # along the flow; an 11 x 11 section keeps its entries well above
        # rounding
        rng = np.random.RandomState(42)
        N = 40
        sigma, setting = random_schrodinger_measure(rng)
        trace = integrate_flow(sigma, N, setting.R, 0.8 / setting.R)
        tol = -1e-8 * setting.R ** 22
        for row in trace.moments(N + 1)[::4]:
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
        table = _quarter_potential(trace.moments(3), trace.step)
        assert table.size == 4 * (len(trace.xs) - 1) + 1
        assert table[::4].tobytes() == trace.V.tobytes()
        exact = soliton_potential(sigma.atoms, trace.xs[:-1] + trace.step / 2)
        assert np.max(np.abs(table[2::4] - exact)) <= 1e-6

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
            rows, p = riccati_oracle(trace, w)
            return rows, p * math.nan if w.real < 0 else p

        monkeypatch.setattr(schrodinger, "riccati_oracle", nan_for_negative_w)
        worst, per_w = riccati_mismatch(trace, [0.1, -0.15])
        assert math.isnan(worst) and math.isnan(per_w[1][1])

    @pytest.mark.parametrize("N, R, sigma", [(16, 2.0, DELTA0), (24, 1.5, PIECE)], ids=["delta0", "piece"])
    def test_scalar_walk_matches_numpy_columns(self, monkeypatch, N, R, sigma):
        # the CLI's w values, walked by the scalar kernel and by the numpy
        # one-column reference: the same bits
        trace = integrate_flow(sigma, N, R, 0.5 / R, step=0.01 / R)
        for w in (0.3 / R, 0.3j / R, -0.3 / R):
            rows, p = riccati_oracle(trace, w)
            with monkeypatch.context() as m:
                m.setattr(
                    _kernels, "riccati_path",
                    lambda p0, vn, vm, h, w: numpy_riccati_path(
                        np.atleast_1d(p0), vn, vm, h, np.atleast_1d(w)
                    )[:, 0],
                )
                ref_rows, ref = riccati_oracle(trace, w)
            assert rows == ref_rows
            assert p.tobytes() == ref.tobytes()

    def test_one_table_per_trace(self, monkeypatch):
        # the CLI's three w values read one quarter-step table, built once,
        # with the bits of _quarter_potential on the trace's moments
        trace = integrate_flow(DELTA0, 16, 2.0, 0.25)
        expect = _quarter_potential(trace.moments(3), trace.step)
        calls = []

        def counted(*args):
            calls.append(args)
            return _quarter_potential(*args)

        monkeypatch.setattr(schrodinger, "_quarter_potential", counted)
        riccati_mismatch(trace, [0.15, 0.15j, -0.15])
        assert len(calls) == 1
        assert trace.quarter_potential.tobytes() == expect.tobytes()

    def test_rejects_zero_w(self):
        trace = integrate_flow(DELTA0, 8, 2.0, 0.4)
        with pytest.raises(BadParameter):
            riccati_oracle(trace, 0.0)

    def test_rejects_w_outside_disk(self):
        trace = integrate_flow(DELTA0, 8, 2.0, 0.4)
        with pytest.raises(ValueError):
            riccati_oracle(trace, 0.6)

    def test_blowup_detected(self):
        # drive the quadratic term with an artificial deep well: w = 60 off the
        # middle node, which keeps the flow's seed p(0, w)
        trace = integrate_flow(DELTA0, 8, 2.0, 0.4)
        n = len(trace.xs) // 2
        big = trace.atoms.copy()
        big[:, 1] = 60.0
        big[n] = trace.atoms[n]
        fake = dataclasses.replace(trace, V=-2.0 * big[:, 1, 0], atoms=big)
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
                rows, p = riccati_oracle(trace, w)
                at_zero = n - rows.start  # row n is x = 0, the start of the walk on either side
                flow_p = generating_function(trace.atoms[rows], w)
                assert rows.start <= n < rows.stop
                assert p[at_zero].tobytes() == flow_p[at_zero].tobytes()


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
        # p(w) = sum w_i w / (1 - t_i w) = sum_n sigma_n w^(n+1)
        atoms = np.array([[0.5, -0.25], [1.0, 0.5]])
        w = 0.2 + 0.1j
        expect = 1.0 * w / (1 - 0.5 * w) + 0.5 * w / (1 + 0.25 * w)
        assert generating_function(atoms, w) == pytest.approx(expect, rel=1e-15)
        series = sum(np.sum(atoms[1] * atoms[0] ** n) * w ** (n + 1) for n in range(60))
        assert generating_function(atoms, w) == pytest.approx(series, rel=1e-15)

    def test_stack_of_states(self):
        atoms = np.array([[[0.5], [1.0]], [[0.0], [2.0]]])
        assert generating_function(atoms, 0.25).tolist() == [0.25 / 0.875 + 0j, 0.5 + 0j]


def cli_riccati_mismatch(trace):
    """riccati_mismatch at the CLI's w values, (0.3, 0.3i, -0.3)/R."""
    return riccati_mismatch(trace, np.array([0.3, 0.3j, -0.3]) / trace.R)[0]


def assert_scaling(c, rng):
    """t -> c t, w -> c^2 w and R -> c R give c^2 V(c x): at c = 2^k the default
    grid scales exactly, V and est_error are the same floats times c^2, and the
    CLI's Riccati mismatch is the same float times c."""
    for _ in range(10):
        sigma, setting = random_schrodinger_measure(rng)
        R, x_max = setting.R, 0.8 / setting.R
        trace = integrate_flow(sigma, 8, R, x_max)
        scaled = Measure.from_atoms([(c * t, c * c * w) for t, w in sigma.atoms])
        image = integrate_flow(scaled, 8, c * R, x_max / c)
        assert image.xs.tobytes() == (trace.xs / c).tobytes()
        assert image.V.tobytes() == (c * c * trace.V).tobytes()
        assert image.est_error == c * c * trace.est_error
        assert cli_riccati_mismatch(image) == c * cli_riccati_mismatch(trace)


class TestRelations:
    """Relations between the flows of related atom measures on the default
    grid, which hold at every node in floating point."""

    def test_reflection_reverses_the_trace(self):
        # sigma(-t) gives V(-x): the same floats in reverse order, est_error
        # and the CLI's Riccati mismatch (its w values are a mirror pair and a
        # conjugate) included
        rng = np.random.RandomState(29)
        for _ in range(10):
            sigma, setting = random_schrodinger_measure(rng)
            R = setting.R
            trace = integrate_flow(sigma, 8, R, 0.8 / R)
            image = integrate_flow(Measure.from_atoms([(-t, w) for t, w in sigma.atoms]), 8, R, 0.8 / R)
            assert image.xs.tobytes() == trace.xs.tobytes()
            assert image.V.tobytes() == trace.V[::-1].tobytes()
            assert image.est_error == trace.est_error
            assert cli_riccati_mismatch(image) == cli_riccati_mismatch(trace)

    def test_scaling_by_two(self):
        assert_scaling(2.0, np.random.RandomState(31))

    def test_scaling_by_one_half(self):
        assert_scaling(0.5, np.random.RandomState(32))


@st.composite
def one_atom_flows(draw):
    """(t, w, R, N, step, x_max) over the admissible one-atom measures: t
    anywhere in (-R, R), w up to the admissibility edge R^2 - t^2, flows from
    a fraction of 1/R to 10/R in 8 to 400 steps."""
    R = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    t = draw(st.floats(-0.95, 0.95)) * R
    w = draw(st.floats(0.02, 0.98)) * (R * R - t * t)
    x_max = draw(st.sampled_from([0.05, 0.4, 2.0, 5.0, 10.0])) / R
    steps = draw(st.sampled_from([8, 20, 50, 100, 400]))
    return t, w, R, draw(st.sampled_from([4, 8, 40])), x_max / steps, x_max


class TestExactFlow:
    """The flow against references: the closed-form n-soliton for atoms, and
    a finer rule for pieces, which have no closed form."""

    @settings(max_examples=80)
    @given(one_atom_flows())
    @example((0.3, 0.8, 2.0, 40, 0.1, 10.0))  # the CLI's --xmax 10 --step 0.1 job
    @example((0.3, 0.8, 2.0, 40, 0.025, 0.4))  # its default grid
    def test_one_atom_against_closed_form(self, case):
        # the figure is never below the error, and at most 100 times above it
        # where the error is above 1e-12
        t, w, R, N, step, x_max = case
        try:
            trace = integrate_flow(Measure.point(t, w), N, R, x_max, step=step)
        except StepTooLarge:
            assert step * math.sqrt(t * t + w) > 0.1  # only a coarse step is refused
            return
        err = float(np.max(np.abs(trace.V - soliton_potential([(t, w)], trace.xs))))
        assert err <= trace.est_error
        assert err <= 1e-12 or trace.est_error <= 100.0 * err
        if (t, w, R, step, x_max) == (0.3, 0.8, 2.0, 0.1, 10.0):
            assert err <= 2e-6

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_atoms_against_mpmath(self, n):
        rng = np.random.RandomState(60 + n)
        R = 2.0
        ts = rng.uniform(-0.9 * R, 0.9 * R, n)
        ws = rng.dirichlet(np.ones(n)) * (R * R - ts * ts) * 0.5
        sigma = Measure.from_atoms(zip(ts, ws))
        ref = soliton_potential(list(zip(ts, ws)), [0.1, 0.2, 0.3, 0.4])
        for steps in (40, 400):
            trace = integrate_flow(sigma, 8, R, 0.4, step=0.4 / steps)
            pick = steps + np.arange(1, 5) * (steps // 4)  # x = 0.1, ..., 0.4
            assert np.max(np.abs(trace.V[pick] - ref)) <= trace.est_error

    @pytest.mark.parametrize("N", [4, 40])
    def test_piece_rule_gap_within_the_figure(self, N):
        # the flow of a piece's nodes against the flow of a rule of 4 N:
        # their gap stays below the figure (measured at most 0.14 of it)
        rng = np.random.RandomState(71)
        cases = [(PIECE, 1.5), (Measure.with_pieces([], [(-0.5, 0.5, (0.4, 0.0, 0.1))]), 2.0)]
        for _ in range(2):
            R = float(rng.uniform(0.8, 3.0))
            a, b = np.sort(rng.uniform(-0.9 * R, 0.9 * R, 2))
            c = rng.uniform(-0.3, 0.3, 2)
            scale = float(rng.uniform(0.05, 0.3)) * (R * R - max(a * a, b * b)) / (b - a)
            cases.append((Measure.with_pieces([], [(a, b, (scale, c[0] * scale, c[1] * scale))]), R))
        for sigma, R in cases:
            for x_max in (0.8 / R, 4.0 / R):
                trace = integrate_flow(sigma, N, R, x_max, step=x_max / 40)
                finer = integrate_flow(sigma, 4 * N, R, x_max, step=x_max / 40)
                assert np.max(np.abs(trace.V - finer.V)) <= trace.est_error
