import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from helpers import (
    free_window,
    loop_prop311_check,
    padded_m_oracle,
    power_moments,
    random_jacobi_measure,
    reference_window,
    soliton_window,
)
from reflectionless import herglotz, jacobi
from reflectionless.errors import (
    AdmissibilityRequired,
    HankelBreakdown,
    InadmissibleSigma,
)
from reflectionless.herglotz import Setting, admissible_discrete, m_value
from reflectionless.jacobi import (
    MIN_EXCESS,
    ORACLE_GRID,
    JacobiWindow,
    RatioReport,
    m_oracle,
    moments_to_recurrence,
    oracle_residual,
    prop311_check,
    reconstruct,
    rho_minus_moments,
    rho_plus_moments,
)
from reflectionless.measure import Measure, moment, quadrature_atoms, solve_r, validate
from reflectionless.presets import free, soliton

ZERO = Measure.zero()
JAC2 = Setting.jacobi(2.0)
NO_NODES = (np.empty(0), np.empty(0))

def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def single_atom_moments(t, count):
    """Free-basis moments nu_k = U_k(t/2) of a unit atom at t in (-2, 2), and
    no nodes."""
    theta = math.acos(t / 2.0)
    nu = np.array([math.sin((k + 1) * theta) / math.sin(theta) for k in range(count)])
    return nu, NO_NODES


class TestRhoPlusMoments:
    def test_free_catalan_pattern(self):
        m = rho_plus_moments(ZERO, 12)
        for k in range(13):
            expect = catalan(k // 2) if k % 2 == 0 else 0
            assert power_moments(m)[k] == pytest.approx(expect, abs=1e-12)

    def test_delta1_against_density_quadrature(self):
        # closed-form spectral density of the half-line example measure:
        # sqrt((2-x)/(2+x))/(2 pi); tanh-sinh at 15 digits is 3e-10 off at
        # its 1/sqrt endpoint, at 30 digits it gives the exact central binomials
        m = rho_plus_moments(Measure.point(1.0, 1.0), 8)
        density = lambda x: mpmath.sqrt((2 - x) / (2 + x)) / (2 * mpmath.pi)
        for k in range(9):
            with mpmath.workdps(30):
                expect = float(mpmath.quad(lambda x: x ** k * density(x), [-2, 2]))
            assert power_moments(m)[k] == pytest.approx(expect, abs=1e-10)

    def test_soliton_normalization(self):
        sigma, _ = soliton(0.25)
        m = rho_plus_moments(sigma, 20)
        assert power_moments(m)[0] == pytest.approx(1.0, abs=1e-10)

    def test_moment_hankel_psd(self):
        rng = np.random.RandomState(30)
        sigma, _ = random_jacobi_measure(rng)
        m = rho_plus_moments(sigma, 14)
        idx = np.arange(8)
        H = power_moments(m)[idx[:, None] + idx[None, :]]
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-10 * np.max(np.abs(H))

    def test_chebyshev_moments_free(self):
        # the second-kind Chebyshev polynomials U_k(x/2) are orthonormal for
        # the free measure: nu = (1, 0, 0, ...), and nothing to deflate
        nu, (E, mass) = rho_plus_moments(ZERO, 10)
        assert nu.dtype == E.dtype == mass.dtype == np.float64
        assert nu.tolist() == [1.0] + [0.0] * 10
        assert E.size == mass.size == 0


def assert_site_zero_of_window(site0, sigma, setting):
    """The (a0, b0, a_{-1}) triple is the window's a_0, b_0, a_{-1}, bit for bit."""
    window = reconstruct(sigma, setting, 6)
    want = (window.a_at(0), window.b_at(0), window.a_at(-1))
    assert np.array(site0).tobytes() == np.array(want).tobytes()


class TestRhoMinusMoments:
    def test_free(self):
        m, (a0, b0, a_minus1) = rho_minus_moments(ZERO, 8)
        nu, (E, mass) = m
        assert nu.dtype == E.dtype == mass.dtype == np.float64
        assert nu.tolist() == [1.0] + [0.0] * 8 and E.size == mass.size == 0
        assert a0 == 1.0 and b0 == 0.0 and a_minus1 == 1.0
        assert power_moments(m)[0] == pytest.approx(1.0, abs=1e-12)
        assert_site_zero_of_window((a0, b0, a_minus1), ZERO, JAC2)

    def test_soliton_closed_forms(self):
        sigma, setting = soliton(0.25)
        m, (a0, b0, a_minus1) = rho_minus_moments(sigma, 8)
        assert a0 == pytest.approx(2.0, abs=1e-12)       # eps^{-1/2}
        assert b0 == pytest.approx(-3.0, abs=1e-12)      # -(1-eps)/eps
        assert a_minus1 == pytest.approx(2.0, abs=1e-12)
        assert power_moments(m)[0] == pytest.approx(1.0, abs=1e-10)
        assert_site_zero_of_window((a0, b0, a_minus1), sigma, setting)

    def test_rejects_sigma_minus2_at_one(self):
        with pytest.raises(InadmissibleSigma):
            rho_minus_moments(Measure.point(1.0, 1.0), 4)

    def test_moment_identities(self):
        rng = np.random.RandomState(31)
        for _ in range(10):
            sigma, setting = random_jacobi_measure(rng)
            _, site0 = rho_minus_moments(sigma, 6)
            a0, _, a_minus1 = site0
            s0 = moment(sigma, 0)
            s2 = moment(sigma, -2)
            assert a0 ** 2 * (1 - s2) == pytest.approx(1.0, abs=1e-12)
            assert (a_minus1 ** 2 - 1) / a0 ** 2 == pytest.approx(s0, abs=1e-12)
            assert_site_zero_of_window(site0, sigma, setting)

    def test_minus_expansion_against_m_value(self):
        # m_-(iy) = i(1-s_{-2}) y + s_{-1} + i(1-s_{-2}+s_0)/y + O(y^-2),
        # evaluated directly through the branch dispatch
        rng = np.random.RandomState(38)
        sigma, setting = random_jacobi_measure(rng)
        s0 = moment(sigma, 0)
        s1 = moment(sigma, -1)
        s2 = moment(sigma, -2)
        resid = []
        for y in (50.0, 100.0, 200.0):
            got = m_value(sigma, setting, 1j * y, "minus")
            expect = 1j * (1 - s2) * y + s1 + 1j * (1 - s2 + s0) / y
            resid.append(abs(got - expect))
        # O(y^-2) decay: quadrupling rate when y doubles, up to slack
        assert resid[1] <= resid[0] / 3.0
        assert resid[2] <= resid[1] / 3.0
        assert resid[2] * 200.0 ** 2 < 10.0 * (1 + s0)

    def test_mirror_relation(self):
        # a0^2 m_-(sigma; z) = z - b0 + a_{-1}^2 m_+(mirror; z), the mirror the
        # nodes (1/t, w/(t^2 q)), q = 1 - s_{-2} + s_0, both sides by m_value at
        # one Setting; measured worst 3.7e-16 (atoms) and 4.2e-16 (pieces) of
        # the terms' size
        pieces = Measure.with_pieces([(2.1, 0.01)], [(0.5, 1.5, [0.05, 0.01, 0.001]), (-1.9, -0.7, [0.02])])
        cases = [(pieces, Setting.jacobi(2.6))]
        rng = np.random.RandomState(14)
        for i in range(24):
            # R within 1e-4..10 of 2, log-uniform, or uniform on (2, 12]
            R = min(2.0 + 10.0 ** rng.uniform(-4.0, 1.0), 12.0) if i % 2 else rng.uniform(2.0, 12.0)
            r = solve_r(R)
            edge = 0.01 * (1.0 / r - r)
            n = rng.randint(1, 6)
            ts = rng.uniform(r + edge, 1.0 / r - edge, n) * rng.choice([-1.0, 1.0], n)
            ws = rng.dirichlet(np.ones(n)) * rng.uniform(0.01, 0.9) * np.min(ts * ts)
            cases.append((Measure.from_atoms(zip(ts.tolist(), ws.tolist())), Setting.jacobi(R)))
        for sigma, setting in cases:
            _, (a0, b0, a_minus1) = rho_minus_moments(sigma, 8)
            q = 1.0 - moment(sigma, -2) + moment(sigma, 0)
            ts, ws = quadrature_atoms(sigma, (0.0,), 8)
            mirror = Measure.from_atoms(zip((1.0 / ts).tolist(), (ws / (ts * ts * q)).tolist()))
            for z in ORACLE_GRID:
                tail = a_minus1 ** 2 * m_value(mirror, setting, z, "plus")
                lhs = a0 ** 2 * m_value(sigma, setting, z, "minus")
                assert abs(lhs - (z - b0 + tail)) <= 1e-15 * (abs(z - b0) + abs(tail))

    def test_support_ratio_inequality(self):
        # r^2 s_0 < s_{-2} < s_0 / r^2 for admissible nonzero measures
        rng = np.random.RandomState(32)
        for _ in range(20):
            sigma, setting = random_jacobi_measure(rng)
            s0, s2 = moment(sigma, 0), moment(sigma, -2)
            r2 = setting.r ** 2
            assert r2 * s0 < s2 < s0 / r2


class TestMomentsToRecurrence:
    def test_free_rows(self):
        m = rho_plus_moments(ZERO, 24)
        alpha, beta = moments_to_recurrence(m, 11)
        assert np.max(np.abs(alpha)) < 1e-9
        assert beta[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(beta[1:] - 1.0)) < 1e-9

    def test_single_atom_breaks_down_at_pivot_two(self):
        m = single_atom_moments(1.3, 12)
        with pytest.raises(HankelBreakdown) as err:
            moments_to_recurrence(m, 5)
        assert err.value.pivot == 2

    # two atoms carry exactly two rows, so a third, and only the third, fails:
    # its pivot is an exact zero (NaN row) or 6e-16, below BREAKDOWN_TOL
    @pytest.mark.parametrize("t1, t2, w", [(1.3, -1.1, 0.5), (1.7, 0.2, 0.6)])
    def test_breakdown_in_the_last_row_raises(self, t1, t2, w):
        (one, _), (two, _) = single_atom_moments(t1, 6), single_atom_moments(t2, 6)
        m = (w * one + (1.0 - w) * two, NO_NODES)
        alpha, beta = moments_to_recurrence(m, 2)
        assert np.all(np.isfinite(alpha)) and beta[1] > 0.5
        with pytest.raises(HankelBreakdown) as err:
            moments_to_recurrence(m, 3)
        assert err.value.pivot == 3

    @pytest.mark.parametrize("t", [1.3, -1.1])
    def test_power_moments_from_chebyshev(self, t):
        m = single_atom_moments(t, 21)
        for k, mu_k in enumerate(power_moments(m)):
            assert mu_k == pytest.approx(t ** k, rel=1e-12)


class TestMOracle:
    def test_free_values(self):
        w = free_window(5)
        assert m_oracle(w, 2j, "plus") == pytest.approx(1j * (math.sqrt(2) - 1), rel=1e-12)
        assert m_oracle(w, 2j, "minus") == pytest.approx(1j * (math.sqrt(2) + 1), rel=1e-12)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_scalar_z_gives_an_array(self, side):
        assert m_oracle(free_window(5), 2j, side).shape == (1,)

    def test_free_minus_expansion(self):
        # a0^2 m_- = z - b0 - sum mu_k z^{-k-1} for the free window
        w = free_window(5)
        z = 40j
        val = m_oracle(w, z, "minus")
        assert val == pytest.approx(z - 1.0 / z, rel=1e-3)

    def test_matches_padded_walk(self):
        # the oracle starts at the window's edge; 200 free sites past it, as
        # the reference walks, must not change a bit on ORACLE_GRID
        z_grid = np.asarray(ORACLE_GRID + (1j,))
        windows = [free_window(1), free_window(5)]
        # strong couplings carry a rounding change of the seed through to site 0
        windows.append(JacobiWindow(-3, 3, (3.0,) * 7, (0.5,) * 7, 7.0))
        rng = np.random.RandomState(34)
        for k in range(3):
            sigma, setting = random_jacobi_measure(rng)
            window = reconstruct(sigma, setting, 12)
            windows.append(window)
            if k == 0:
                exact = m_value(sigma, setting, 1j, "plus")
                assert abs(m_oracle(window, 1j, "plus") - exact) < 1e-8
        for R in (2.002, 2.003):
            # reconstructed rows of atoms next to the ends of the ring, padded
            # with exactly free sites: the walk starts inside a free tail
            setting = Setting.jacobi(R)
            r = setting.r
            ring = 1.0 / r - r
            sigma = Measure.from_atoms([(r + 0.05 * ring, 2e-4), (-(1.0 / r - 0.05 * ring), 1e-4)])
            inner = reconstruct(sigma, setting, 80)
            pad = 80
            windows.append(JacobiWindow(
                -160, 160, (1.0,) * pad + inner.a + (1.0,) * pad,
                (0.0,) * pad + inner.b + (0.0,) * pad, R,
            ))
        for window in windows:
            for side in ("plus", "minus"):
                got = m_oracle(window, z_grid, side)
                assert got.tobytes() == padded_m_oracle(window, z_grid, side).tobytes()
                assert m_oracle(window, 1j, side) == padded_m_oracle(window, 1j, side)


class TestOracleResidual:
    README = Measure.with_pieces([(1.05, 0.001), (-1.02, 0.002)], [(0.92, 0.98, (0.005, 0.0, 0.001))])

    @pytest.mark.parametrize("case", [(README, Setting.jacobi(2.01)), soliton(0.25)], ids=["readme", "soliton"])
    def test_worst_of_both_sides_nan_kept(self, monkeypatch, case):
        sigma, setting = case
        window, exact = reconstruct(sigma, setting, 40), herglotz.m_value
        expect = max(abs(m_oracle(window, z, side)[0] - exact(sigma, setting, z, side))
                     for side in ("plus", "minus") for z in ORACLE_GRID)
        assert oracle_residual(window, sigma, setting) == expect <= 1e-6
        for nan_side in ("plus", "minus"):  # one NaN value of m, at either side's last z, is kept
            monkeypatch.setattr(herglotz, "m_value", lambda sigma, setting, z, side: (
                math.nan if side == nan_side and z == ORACLE_GRID[-1] else exact(sigma, setting, z, side)))
            assert math.isnan(oracle_residual(window, sigma, setting))


class TestReconstruct:
    def test_free_window(self):
        window = reconstruct(ZERO, JAC2, 10)
        a = np.asarray(window.a)
        b = np.asarray(window.b)
        assert np.max(np.abs(a - 1.0)) <= 1e-9
        assert np.max(np.abs(b)) <= 1e-9

    def test_soliton_quarter(self):
        sigma, setting = soliton(0.25)
        window = reconstruct(sigma, setting, 10)
        assert window.a_at(0) == pytest.approx(2.0, abs=1e-10)
        assert window.a_at(-1) == pytest.approx(2.0, abs=1e-10)
        assert window.b_at(0) == pytest.approx(-3.0, abs=1e-10)
        assert oracle_residual(window, sigma, setting) <= 1e-6

    def test_random_two_atom_ratio_check(self):
        rng = np.random.RandomState(35)
        sigma, setting = random_jacobi_measure(rng)
        window = reconstruct(sigma, setting, 16)
        report = prop311_check(window, setting.r)
        assert report.passed

    @pytest.mark.parametrize("N", [80, 160])
    def test_deep_window(self, N):
        rng = np.random.RandomState(41)
        sigma, setting = random_jacobi_measure(rng, r_lo=2.002, r_hi=2.004)
        window = reconstruct(sigma, setting, N)
        assert np.min(window.a) >= 1.0
        assert prop311_check(window, setting.r).passed
        assert oracle_residual(window, sigma, setting) <= 1e-6

    def test_inadmissible_rejected(self):
        # the gate's message names the setting, the minimum and its E
        message = r"^measure fails the jacobi admissibility inequality \(min -0\.5 at E = -4\)$"
        with pytest.raises(AdmissibilityRequired, match=message):
            reconstruct(Measure.point(1.0, 1.0), Setting.jacobi(4.0), 6)

    def test_oracle_convergence_monotone(self):
        rng = np.random.RandomState(36)
        sigma, setting = random_jacobi_measure(rng)
        errs = [
            oracle_residual(reconstruct(sigma, setting, N), sigma, setting)
            for N in (12, 18, 24, 30)
        ]
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 * 1.05 + 1e-12

    def test_measure_with_smooth_part(self):
        R = 2.01
        setting = Setting.jacobi(R)
        r = setting.r
        ring = 1.0 / r - r
        a, b = r + 0.25 * ring, r + 0.45 * ring
        sigma = Measure.with_pieces(
            [(-1.0 / (r + 0.5 * ring), 0.002)], [(a, b, (0.004, 0.0, -0.0016))]
        )
        window = reconstruct(sigma, setting, 16)
        assert oracle_residual(window, sigma, setting) <= 1e-6

    @pytest.mark.parametrize("kind", ["atom", "pieces", "20 atoms"])
    def test_site_zero_reads_the_measures_inverse_moments(self, kind):
        # a0 and b0 come from the same (s_{-1}, s_{-2}) that F and m_value read
        if kind == "atom":
            sigma, setting = Measure.point(1.2, 0.01), Setting.jacobi(2.5)
        elif kind == "pieces":
            sigma = Measure.with_pieces([(1.05, 0.001), (-1.02, 0.002)],
                                        [(0.92, 0.98, (0.005, 0.0, 0.001))])
            setting = Setting.jacobi(2.01)
        else:
            atoms = [(s * (0.55 + 0.07 * k), 1e-3) for k in range(10) for s in (1.0, -1.0)]
            sigma, setting = admissible_atoms(2.5, atoms)
        s1, s2 = sigma.inverse_moments
        window = reconstruct(sigma, setting, 10)
        assert window.a_at(0) == (1.0 - s2) ** -0.5
        assert window.b_at(0) == -s1 / (1.0 - s2)

    def test_zero_iff_free(self):
        # nonzero admissible measure must leave a visibly non-free window
        rng = np.random.RandomState(37)
        sigma, setting = random_jacobi_measure(rng)
        window = reconstruct(sigma, setting, 8)
        assert np.max(np.abs(np.asarray(window.a) - 1.0)) > 1e-9


class TestProp311:
    def test_soliton_ratios_inside(self):
        sigma, setting = soliton(0.25)
        window = reconstruct(sigma, setting, 10)
        report = prop311_check(window, setting.r)
        assert report.passed and report.worst_margin > 0.0

    def test_free_window_not_applicable(self):
        # no adjacent pair above MIN_EXCESS: nothing to check, so it passes
        sigma, setting = free()
        for window in (free_window(6), reconstruct(sigma, setting, 6)):
            assert prop311_check(window, 0.5) == RatioReport(passed=True, worst_margin=math.inf)

    def test_hand_edited_window_fails(self):
        n = 4
        a = [2.0] * (2 * n + 1)
        a[n + 1] = math.sqrt(1.0 + 2e-6)  # nearly free site amid strongly coupled ones
        window = JacobiWindow(-n, n, tuple(a), (0.0,) * (2 * n + 1), 5.0)
        report = prop311_check(window, 0.5)
        assert not report.passed

    @pytest.mark.parametrize("a2, R", [(math.nan, 2.5), (math.inf, 2.5), (math.inf, 1e170), (math.nan, 1e170)])
    def test_non_finite_coupling_fails(self, a2, R):
        # at R = 1e170 r^2 underflows, and inf - inf is NaN: no NaN may drop out
        report = prop311_check(JacobiWindow(-1, 1, (1.5, 1.2, a2), (0.0,) * 3, R), solve_r(R))
        assert not report.passed and not report.worst_margin > -math.inf  # NaN or -inf


# ---------------------------------------------------------------------------
# the array forms of the window post-checks against their loop references


LOOP_CHECKS = settings(max_examples=300)


@st.composite
def excess_windows(draw):
    """(window, r) with excesses a^2 - 1 on both sides of MIN_EXCESS:
    mixed, free, and a single pair above it."""
    n = draw(st.integers(1, 6))
    scale = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e3, 1e6]), st.floats(0.99, 1.01)
    )
    kind = draw(st.sampled_from(["mixed", "free", "single"]))
    excess = [0.0] * (2 * n + 1)
    if kind == "mixed":
        excess = [draw(scale) * MIN_EXCESS for _ in excess]
    elif kind == "single":
        i = draw(st.integers(0, 2 * n - 1))
        excess[i] = draw(st.floats(1.0, 1e6)) * MIN_EXCESS
        excess[i + 1] = draw(st.floats(1.0, 1e6)) * MIN_EXCESS
    a = tuple(math.sqrt(1.0 + e) for e in excess)
    window = JacobiWindow(-n, n, a, (0.0,) * (2 * n + 1), 2.5)
    return window, draw(st.floats(0.05, 0.999))


class TestArrayPostChecks:
    @LOOP_CHECKS
    @given(excess_windows())
    # r^2 underflows to 0 at R = 1e170: the bounds are (0, inf)
    @example((JacobiWindow(-1, 1, (1.5, 1.2, 2.0), (0.0,) * 3, 1e170), 1e-170))
    def test_prop311_matches_loop(self, case):
        window, r = case
        got = prop311_check(window, r)
        assert got == loop_prop311_check(window, r, MIN_EXCESS)
        assert type(got.worst_margin) is float


# ---------------------------------------------------------------------------
# reconstruct against the mpmath references


# no shrink phase: a failing draw of these slow references is reported as
# drawn, where shrinking it took minutes
REFERENCE_CHECKS = settings(
    max_examples=25, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target]
)


def admissible_atoms(R, atoms):
    """The measure of `atoms`, its weights halved until it passes the
    boundary inequality at R."""
    setting = Setting.jacobi(R)
    ts = [t for t, _ in atoms]
    ws = np.array([w for _, w in atoms])
    while True:
        sigma = Measure.from_atoms(zip(ts, ws))
        if admissible_discrete(validate(sigma, setting), setting).passed:
            return sigma, setting
        ws = 0.5 * ws


@st.composite
def wide_atomic_jobs(draw):
    """(R, atoms, N): R log-spread over (2, 12], 1 to 8 atoms on both rays of
    the ring r < |t| < 1/r, N <= 160.  Each ray holds at most one atom within
    1e-3 in log|t| of each of the ring's edges and of |t| = 1; the other
    atoms are spread in log|t| over the ring."""
    R = 2.0 + 10.0 ** draw(st.floats(-4.0, 1.0))
    half = -math.log(solve_r(R))  # the ring is |log|t|| < half
    n = draw(st.integers(1, 8))
    edges = st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1.0, 1.0]))  # (inner, unit or outer, ray)
    near = draw(st.lists(edges, max_size=n, unique=True))
    logs = [edge * half - (edge or draw(st.sampled_from([-1, 1]))) * draw(st.floats(1e-6, 1e-3)) for edge, _ in near]
    signs = [sign for _, sign in near]
    spread = n - len(near)
    logs += [f * half for f in draw(st.lists(st.floats(-0.96, 0.96), min_size=spread, max_size=spread))]
    signs += draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=spread, max_size=spread))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    weights *= draw(st.floats(0.01, 2.0)) / weights.sum()
    atoms = {s * math.exp(u): float(w) for u, s, w in zip(logs, signs, weights)}
    return R, list(atoms.items()), draw(st.integers(1, 160))


def window_error(sigma, setting, N):
    """reconstruct's window, and its largest |a_n - a_n ref| and |b_n - b_n
    ref|, the reference on the quadrature nodes reconstruct uses: the Toda
    n-soliton for atoms, the power-moment route for a piece's rule, whose
    ~200 nodes are too many atoms for the soliton's 2^n terms."""
    window = reconstruct(sigma, setting, N)
    reference = reference_window if sigma.pieces else soliton_window
    a, b = reference(*quadrature_atoms(sigma, (0.0,), 2 * N + 4), N)
    return window, max(np.max(np.abs(np.asarray(window.a) - a)), np.max(np.abs(np.asarray(window.b) - b)))


class TestAgainstReference:
    @REFERENCE_CHECKS
    @given(wide_atomic_jobs())
    @example((9.159841224713482, [(-8.845973551509562, 0.03389321092778422),
                                  (7.935035960172147, 0.008858636118858768),
                                  (6.56590144532958, 0.004138532861037201),
                                  (-1.0734352100359454, 0.00941511492883028)], 160))
    @example((12.0, [(-0.1, 0.004), (0.5, 0.02), (3.0, 0.2), (-11.0, 0.05)], 160))
    @example((2.003, [(-1.0008, 1e-5), (0.9991, 2e-5), (1.0, 1e-5)], 160))
    # tails that reach free within the window, where rows are at rounding level
    @example((2.5, [(0.6, 0.01), (-1.3, 0.02)], 40))
    @example((2.5, [(0.6, 0.01), (-1.3, 0.02)], 80))
    @example((8.0, [(0.3, 0.02), (-2.0, 0.05), (4.0, 0.1)], 40))
    @example((8.0, [(0.3, 0.02), (-2.0, 0.05), (4.0, 0.1)], 80))
    def test_atoms(self, job):
        R, atoms, N = job
        # a <= R <= 12, so this bound is tighter than the 1e-12 it replaced
        window, err = window_error(*admissible_atoms(R, atoms), N)
        assert err <= 1e-14 * np.max(window.a)

    @pytest.mark.parametrize("R", [1e3, 1e5, 1e9])
    @pytest.mark.parametrize("ks", [(2.0,), (10.0,), (2.0, -10.0)])
    def test_atoms_near_the_inner_edge(self, R, ks):
        # atoms at 2r and 10r of weight 1e-3 t^2, which the support margin
        # refused while it was 1e-9 R, wider than the inner edge r ~ 1/R
        setting = Setting.jacobi(R)
        sigma = Measure.from_atoms([(k * setting.r, 1e-3 * (k * setting.r) ** 2) for k in ks])
        window, err = window_error(sigma, setting, 10)
        assert err <= 1e-12 * max(1.0, np.max(np.abs(window.a)), np.max(np.abs(window.b)))

    def test_pieces(self):
        # a piece across |t| = 1, so that some of its nodes are deflated and
        # some are not, an atom, and a piece inside the disk on the negative ring
        R = 2.04
        sigma = Measure.with_pieces(
            [(-1.15, 0.002)],
            [(0.9, 1.1, (0.01, 0.003, -0.002)), (-0.95, -0.86, (0.02, -0.005, 0.0))],
        )
        setting = Setting.jacobi(R)
        assert admissible_discrete(validate(sigma, setting), setting).passed
        assert window_error(sigma, setting, 80)[1] <= 1e-12

    def test_soliton_presets(self):
        # every epsilon, at the spectral edge: a0 = eps^{-1/2}, both window
        # postconditions hold, and the whole window matches the one-soliton
        for k in range(1, 50):
            eps = k / 50.0
            sigma, setting = soliton(eps)
            window = reconstruct(sigma, setting, 40)
            assert window.a_at(0) == pytest.approx(eps ** -0.5, abs=1e-12)
            a, b = soliton_window(*zip(*sigma.atoms), 40)
            assert np.max(np.abs(np.asarray(window.a) - a)) <= 1e-12
            assert np.max(np.abs(np.asarray(window.b) - b)) <= 1e-12

    def test_one_atoms_against_closed_form(self):
        # derandomized one-atom draws: R over (2, 12], t on both rays, near
        # either edge of the ring, near the unit circle or anywhere between,
        # w/t^2 in [1e-4, 1) and N up to 160.  reconstruct refuses a draw
        # exactly when its eigenvalue lies past the edge, |E| >= R, and every
        # window it returns matches the one-soliton to 1e-13 of its scale
        rng = np.random.RandomState(10)
        admitted = 0
        while admitted < 240:
            R = float(rng.uniform(2.001, 12.0))
            near = rng.uniform(1e-6, 2e-6)
            f = [rng.uniform(0.0, 1.0), near, 1.0 - near, 0.5 + rng.uniform(-1e-6, 1e-6)][rng.randint(4)]
            t = float(rng.choice([-1.0, 1.0]) * solve_r(R) ** (1.0 - 2.0 * f))
            w = float(10.0 ** rng.uniform(-4.0, 0.0)) * t * t
            N = int(rng.choice([10, 40, 80, 160]))
            E = -(1.0 + t * t + w / (1.0 - w / (t * t))) / t
            try:
                window = reconstruct(Measure.point(t, w), Setting.jacobi(R), N)
            except AdmissibilityRequired:
                assert abs(E) >= R
                continue
            assert abs(E) < R
            admitted += 1
            a, b = soliton_window([t], [w], N)
            scale = np.max(window.a)
            assert np.max(np.abs(np.asarray(window.a) - a)) <= 1e-13 * scale
            assert np.max(np.abs(np.asarray(window.b) - b)) <= 1e-13 * scale

    def test_soliton_oracle_near_the_unit_circle(self):
        # near the unit circle the oracle sees deep rows: at N = 80 every
        # soliton's last rows are within 6e-12 of free (at N = 40, eps = 0.98
        # is still 5e-7 from free), so the oracle matches m_value as closely
        # as the rows match the reference
        lam = 0.98 * np.exp(1j * math.pi * (np.arange(24) + 0.5) / 24)
        z_grid = -(lam + 1.0 / lam)
        for k in range(1, 50):
            sigma, setting = soliton(k / 50.0)
            window = reconstruct(sigma, setting, 80)
            for side in ("plus", "minus"):
                exact = [m_value(sigma, setting, z, side) for z in z_grid]
                assert np.max(np.abs(m_oracle(window, z_grid, side) - exact)) <= 1e-8


def mirrored(sigma):
    """sigma(-t): each atom at -t, each piece [a, b] on [-b, -a] with its k-th
    Chebyshev coefficient times (-1)^k."""
    return Measure.with_pieces(
        [(-t, w) for t, w in sigma.atoms],
        [(-p.b, -p.a, [c if k % 2 == 0 else -c for k, c in enumerate(p.cheb)]) for p in sigma.pieces],
    )


# ORACLE_GRID and three points within 1e-3 of the real axis
REFLECTION_GRID = ORACLE_GRID + (0.5 + 1e-4j, -1.7 + 5e-4j, 2.2 + 1e-3j)


def reflected_m_gap(sigma, setting):
    """Largest |m(z) + conj m_mirrored(-conj z)|/|m(z)| by m_value, over
    REFLECTION_GRID and both sides: 0 when the relation holds bit for bit."""
    image, gaps = mirrored(sigma), []
    for side in ("plus", "minus"):
        for z in REFLECTION_GRID:
            m = m_value(sigma, setting, z, side)
            gaps.append(abs(m + m_value(image, setting, -z.conjugate(), side).conjugate()) / abs(m))
    return max(gaps)


class TestReflection:
    """sigma(t) -> sigma(-t) maps the window (a_n, b_n) to (a_n, -b_n), and
    m+-(z) to -conj m+-(-conj z)."""

    def test_atom_windows_reflect_exactly(self, monkeypatch):
        # derandomized draws with R in (2.002, 3) and N from 20 to 160, so that
        # both the Cholesky route (at most CHOLESKY_MAX_ROWS rows) and the sweep
        # run: every reflected window is the same floats with b negated, and
        # every reflected m value the same floats conjugated and negated
        routes = []
        cholesky_rows = jacobi._cholesky_rows

        def spy(nu, N):
            rows = cholesky_rows(nu, N)
            routes.append(rows is not None)
            return rows

        monkeypatch.setattr(jacobi, "_cholesky_rows", spy)
        rng = np.random.RandomState(19)
        for N in [20, 40, 80, 130, 160] * 6:
            sigma, setting = random_jacobi_measure(rng, r_hi=3.0)
            window, image = reconstruct(sigma, setting, N), reconstruct(mirrored(sigma), setting, N)
            assert np.array_equal(image.a, window.a)
            assert np.array_equal(image.b, -np.asarray(window.b))
            assert reflected_m_gap(sigma, setting) == 0.0
        assert any(routes) and not all(routes)

    def test_piece_windows_reflect_to_rounding(self):
        # a piece on one ring and an atom on the other: the graded rule is not
        # mirror-symmetric in floating point, so the windows agree to 1e-14 of
        # max a (measured at most 2.7e-15), and the m values to 1e-15 relative
        # (measured at most 4.1e-16)
        rng = np.random.RandomState(23)
        for N in [20, 40, 80, 130, 160] * 2:
            R = float(rng.uniform(2.002, 3.0))
            setting, r = Setting.jacobi(R), solve_r(R)
            ring = 1.0 / r - r
            a, b, t = np.sort(rng.uniform(r + 0.15 * ring, 1.0 / r - 0.15 * ring, 3))
            s = float(rng.choice([-1.0, 1.0]))
            mass = float(rng.uniform(0.02, 0.08)) * ring * ring
            cheb = [mass / (b - a)] + [c * mass / (b - a) for c in rng.uniform(-0.3, 0.3, 2)]
            piece = (a, b, cheb) if s > 0 else (-b, -a, cheb)
            sigma = Measure.with_pieces([(-s * t, 0.3 * mass)], [piece])
            assert admissible_discrete(validate(sigma, setting), setting).passed
            window, image = reconstruct(sigma, setting, N), reconstruct(mirrored(sigma), setting, N)
            gap = max(np.max(np.abs(np.asarray(image.a) - window.a)),
                      np.max(np.abs(np.asarray(image.b) + window.b)))
            assert gap <= 1e-14 * np.max(window.a)
            assert reflected_m_gap(sigma, setting) <= 1e-15
