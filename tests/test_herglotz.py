import cmath
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from helpers import (
    adaptive_gauss_legendre,
    boundary_scan,
    np_m_value,
    random_jacobi_measure,
    random_schrodinger_measure,
    scan_admissible_discrete,
)
from reflectionless import herglotz
from reflectionless.cli import ORACLE_GRID
from reflectionless.jacobi import reconstruct
from reflectionless.errors import BranchAmbiguity, NonConvergent, OnSupport
from reflectionless.herglotz import (
    Setting,
    admissible_continuous,
    admissible_discrete,
    boundary_value_discrete,
    default_residual_grid,
    f_continuous,
    f_discrete,
    herglotz_exp,
    m_value,
    phi_inv,
    reflectionless_residual,
    stieltjes_density,
)
from reflectionless.measure import Measure, cauchy, moments, quadrature_atoms, solve_r, validate

JAC4 = Setting.jacobi(4.0)
SCH2 = Setting.schrodinger(2.0)
DELTA1 = Measure.point(1.0, 1.0)
ZERO = Measure.zero()


class TestSetting:
    def test_r_solves_its_equation(self):
        for R in (2.0, 2.0000001, 2.3, 4.0, 11.0, 100.0):
            setting = Setting.jacobi(R)
            assert 0.0 < setting.r <= 1.0
            assert abs(setting.r + 1.0 / setting.r - R) <= 1e-14 * max(1.0, R)


class TestMeasureLifetime:
    def test_measure_is_freed_after_use(self):
        # nothing the evaluation leaves behind keeps the measure alive
        sigma = Measure.with_pieces(
            [(1.05, 0.001), (-1.02, 0.002)], [(0.92, 0.98, (0.005, 0.0, 0.001))]
        )
        setting = Setting.jacobi(2.01)
        m_value(sigma, setting, 0.3 + 1j, "plus")
        m_value(sigma, setting, 0.3 + 1j, "minus")
        assert admissible_discrete(sigma, setting).passed
        reconstruct(sigma, setting, 10)
        ref = weakref.ref(sigma)
        del sigma
        gc.collect()
        assert ref() is None


class TestF:
    def test_discrete_zero_measure(self):
        assert f_discrete(ZERO, 0.3j) == pytest.approx(0.3j)

    def test_discrete_delta1(self):
        # sigma_{-2} = 1 kills the linear term
        val = f_discrete(DELTA1, 0.5j)
        assert val == pytest.approx(-0.2 + 0.4j, rel=1e-14)

    def test_discrete_soliton_at_zero(self):
        sigma = Measure.point(1.0, 0.75)
        assert f_discrete(sigma, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_continuous_zero_measure(self):
        assert f_continuous(ZERO, 2j) == pytest.approx(2j)

    def test_continuous_delta0(self):
        sigma = Measure.point(0.0, 1.0)
        assert f_continuous(sigma, 1j) == pytest.approx(2j, rel=1e-14)
        assert f_continuous(sigma, -1 + 1j) == pytest.approx(-0.5 + 1.5j, rel=1e-14)

    def test_herglotz_positivity_random(self):
        rng = np.random.RandomState(21)
        sigma_j, _ = random_jacobi_measure(rng)
        sigma_s, _ = random_schrodinger_measure(rng)
        for _ in range(1000):
            lam = complex(rng.uniform(-4, 4), rng.uniform(1e-4, 4))
            assert f_discrete(sigma_j, lam).imag > 0
            assert f_continuous(sigma_s, lam).imag > 0

    def test_conjugate_symmetry(self):
        rng = np.random.RandomState(22)
        sigma, _ = random_jacobi_measure(rng)
        for _ in range(50):
            lam = complex(rng.uniform(-4, 4), rng.uniform(0.01, 3))
            assert f_discrete(sigma, np.conj(lam)) == pytest.approx(
                np.conj(f_discrete(sigma, lam)), rel=1e-13
            )


class TestPhi:
    def test_inverse_on_branches(self):
        rng = np.random.RandomState(23)
        for _ in range(200):
            # jacobi upper branch: upper half disk
            rad, th = rng.uniform(0.05, 0.95), rng.uniform(0.05, np.pi - 0.05)
            lam = rad * cmath.exp(1j * th)
            assert phi_inv(JAC4, -lam - 1 / lam, "upper") == pytest.approx(lam, rel=1e-12)
            # jacobi lower branch: exterior reflection
            lam_low = 1.0 / lam
            assert phi_inv(JAC4, -lam_low - 1 / lam_low, "lower") == pytest.approx(
                lam_low, rel=1e-12
            )
            # schrodinger: second and fourth quadrants
            q2 = complex(-rng.uniform(0.1, 3), rng.uniform(0.1, 3))
            assert phi_inv(SCH2, -q2 * q2, "upper") == pytest.approx(q2, rel=1e-12)
            q4 = -q2
            assert phi_inv(SCH2, -q4 * q4, "lower") == pytest.approx(q4, rel=1e-12)

    def test_real_z_ambiguous(self):
        with pytest.raises(BranchAmbiguity):
            phi_inv(JAC4, 0.5, "upper")
        with pytest.raises(BranchAmbiguity):
            phi_inv(SCH2, -1.0, "lower")


class TestMValue:
    def test_free_jacobi(self):
        val = m_value(ZERO, JAC4, 2j, "plus")
        assert val == pytest.approx(1j * (math.sqrt(2) - 1), rel=1e-14)

    def test_delta1_closed_form(self):
        val = m_value(DELTA1, JAC4, 2j, "plus")
        assert val == pytest.approx(0.5 * (cmath.exp(1j * math.pi / 4) - 1), rel=1e-14)

    def test_delta1_closed_form_grid(self):
        rng = np.random.RandomState(24)
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5))
            w = cmath.sqrt((z - 2) / (z + 2))
            assert m_value(DELTA1, JAC4, z, "plus") == pytest.approx(
                0.5 * (w - 1), rel=1e-10, abs=1e-12
            )

    def test_free_schrodinger_off_spectrum(self):
        # the Herglotz branch of sqrt(-z) has boundary value -sqrt(y) at z = -y
        z = -1.0 + 1e-9j
        val = m_value(ZERO, SCH2, z, "plus")
        assert val == pytest.approx(-1.0, abs=1e-8)

    def test_both_sides_herglotz(self):
        rng = np.random.RandomState(25)
        sigma, setting = random_jacobi_measure(rng)
        for _ in range(100):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.01, 4))
            assert m_value(sigma, setting, z, "plus").imag > 0
            assert m_value(sigma, setting, z, "minus").imag > 0

    def test_schrodinger_asymptotics(self):
        rng = np.random.RandomState(26)
        sigma, setting = random_schrodinger_measure(rng)
        mass = sum(w for _, w in sigma.atoms)
        for y in (100 * setting.R ** 2, 400 * setting.R ** 2):
            z = complex(-y, 1e-10 * y)
            val = m_value(sigma, setting, z, "plus")
            assert abs(val + math.sqrt(y)) <= 2 * mass / math.sqrt(y)

    def test_bit_equal_to_numpy_conjugation(self):
        rng = np.random.RandomState(28)
        cases = [random_jacobi_measure(rng), random_schrodinger_measure(rng)]
        readme = [(1.05, 0.001), (-1.02, 0.002)], [(0.92, 0.98, (0.005, 0.0, 0.001))]
        cases.append((Measure.with_pieces(*readme), Setting.jacobi(2.01)))
        cases.append((Measure.with_pieces([(0.4, 0.2)], [(-1.5, 0.3, (0.3, 0.1, 0.02))]), SCH2))
        xs, ys = (-2.5, -1.0, 0.0, 0.7, 2.0, 6.0), (1e-6, 0.3, 1.0, 3.0)
        zs = [complex(x, y) for x in xs for y in ys] + list(ORACLE_GRID)
        for sigma, setting in cases:
            for side in ("plus", "minus"):
                got = np.array([m_value(sigma, setting, z, side) for z in zs])
                want = np.array([np_m_value(sigma, setting, z, side) for z in zs])
                assert got.tobytes() == want.tobytes()

    def test_jacobi_asymptotics(self):
        rng = np.random.RandomState(27)
        sigma, setting = random_jacobi_measure(rng)
        y = 1e6
        val = y * m_value(sigma, setting, 1j * y, "plus")
        assert abs(val - 1j) < 1e-4


@st.composite
def _two_ring_measures(draw):
    """Atoms and density pieces on both rings of the jacobi support region,
    some within 1e-6 of a ring's width from its edges; the mass ranges from
    far inside to far outside the boundary inequality."""
    R = draw(st.floats(2.001, 4.0))
    r = solve_r(R)
    ring = 1.0 / r - r
    mass = 10.0 ** draw(st.floats(-8.0, 0.0)) * ring
    atoms, pieces = [], []
    for sign in (1.0, -1.0):
        cuts = sorted(draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=2, max_size=4, unique=True)))
        for lo, hi in zip(cuts[::2], cuts[1::2]):
            a, b = sorted((sign * (r + lo * ring), sign * (r + hi * ring)))
            assume(b - a > 1e-9 * ring)
            w = mass * draw(st.floats(0.01, 1.0))
            if draw(st.booleans()):
                atoms += [(a, w), (b, w)]
            else:
                c1, c2 = draw(st.floats(-0.45, 0.45)), draw(st.floats(-0.45, 0.45))
                pieces.append((a, b, (w, c1 * w, c2 * w)))
    setting = Setting.jacobi(R)
    return validate(Measure.with_pieces(atoms, pieces), setting), setting


class TestAdmissibility:
    def test_zero_measure_passes(self):
        rep = admissible_discrete(ZERO, JAC4)
        assert rep.passed and rep.min_value == pytest.approx(1.0)

    def test_delta1_fails_every_R(self):
        for R in (2.0, 2.5, 3.0, 4.0, 6.0, 10.0):
            rep = admissible_discrete(DELTA1, Setting.jacobi(R))
            assert not rep.passed
            assert rep.min_value < 0

    def test_all_nan_scan_fails(self):
        # a NaN weight, which validate refuses, makes every value of the scan NaN
        rep = admissible_discrete(Measure.point(1.5, math.nan), Setting.jacobi(2.5))
        assert not rep.passed and math.isnan(rep.min_value)

    def test_soliton_boundary_case(self):
        eps = 0.25
        sigma = Measure.point(1.0, 1 - eps)
        # at R = 1 + 1/eps the boundary function vanishes at E = -R
        rep = admissible_discrete(sigma, Setting.jacobi(1 + 1 / eps))
        assert not rep.passed
        assert rep.min_value == pytest.approx(0.0, abs=1e-10)
        rep2 = admissible_discrete(sigma, Setting.jacobi((1 + 1 / eps) * (1 + 1e-6)))
        assert rep2.passed

    def test_boundary_root_location(self):
        eps = 0.25
        sigma = Measure.point(1.0, 1 - eps)
        root = brentq(
            lambda E: boundary_value_discrete(sigma, E), -6.0, -4.5, xtol=1e-12
        )
        assert root == pytest.approx(-(1 + 1 / eps), abs=1e-10)

    @pytest.mark.parametrize("E", [-2.5, -1e5, 1e8, -1e8])
    def test_boundary_value_exact(self, E):
        # the small root of t^2 + E t + 1 cancels when taken as a difference
        t, w = Fraction(0.9), Fraction(0.5)
        exact = 1 - w / t ** 2 + w / (t * t + Fraction(E) * t + 1)
        got = boundary_value_discrete(Measure.point(0.9, 0.5), E)
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * abs(exact)

    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_two_ring_measures())
    def test_ray_ends_match_the_dense_scan(self, case):
        sigma, setting = case
        got = admissible_discrete(sigma, setting)
        ref = scan_admissible_discrete(sigma, setting)
        _, grids = boundary_scan(sigma, setting)
        r = setting.r
        one_minus_s2, ts, ws = herglotz._boundary_atoms(sigma, r)
        terms, slope = 0.0, 0.0
        for rho in (1.0, -1.0):
            A, B, W = np.abs(ts - rho * r), np.abs(ts - rho / r), np.abs(ws)
            terms = max(terms, np.sum(W / (A * B)))
            slope = max(slope, np.sum(W * (1 / A + 1 / (r * r * B)) / (A * B)))
        tol = 1e-12 * (abs(one_minus_s2) + terms)
        assert got.passed == ref.passed
        assert got.samples == ref.samples
        assert got.min_value == min(np.min(vals) for vals in grids.values())
        # the golden section maps s to E and back, so it may read g up to a
        # few ulps beyond s = r, where |dg/ds| <= slope
        assert abs(got.min_value - ref.min_value) <= tol + 4 * np.spacing(r) * slope
        # the design rests on this shape: on each ray the boundary function
        # rises and then falls, never dipping below values on both sides
        for vals in grids.values():
            rising = np.maximum.accumulate(vals)
            falling = np.maximum.accumulate(vals[::-1])[::-1]
            assert np.max(np.minimum(rising[:-2], falling[2:]) - vals[1:-1]) <= tol

    def test_continuous_examples(self):
        rep = admissible_continuous(ZERO, SCH2)
        assert rep.passed and rep.min_value == pytest.approx(1.0)
        rep1 = admissible_continuous(Measure.point(0.0, 1.0), SCH2)
        assert rep1.passed and rep1.min_value == pytest.approx(0.75)
        rep5 = admissible_continuous(Measure.point(0.0, 5.0), SCH2)
        assert not rep5.passed and rep5.min_value == pytest.approx(-0.25)

    def test_continuous_monotone_in_R(self):
        # passing at R implies passing at every larger R with the same support
        rng = np.random.RandomState(28)
        for _ in range(10):
            sigma, setting = random_schrodinger_measure(rng)
            assert admissible_continuous(sigma, setting).passed
            for factor in (1.5, 2.0, 4.0):
                bigger = Setting.schrodinger(setting.R * factor)
                assert admissible_continuous(sigma, bigger).passed


def _ring_pieces(rng, R, edge=0.15):
    """One density piece on each ring of the jacobi support region."""
    r = Setting.jacobi(R).r
    lo, hi = r + edge * (1 / r - r), 1 / r - edge * (1 / r - r)
    pieces = []
    for sign in (1.0, -1.0):
        a, b = np.sort(rng.uniform(lo, hi, 2))
        c = rng.uniform(-0.3, 0.3, 2) * 0.5
        pieces.append(tuple(sorted((sign * a, sign * b))) + ((1.0, c[0], c[1]),))
    return Measure.with_pieces([], pieces)


def _reference(piece, f):
    """int density(t) f(t) dt over a piece by the adaptive reference."""
    return adaptive_gauss_legendre(lambda t: piece.density(t) * f(t), piece.a, piece.b, rtol=1e-14)


def _pole_reference(piece, pole, g=lambda t: 1.0):
    """int density(t) g(t) / (t - pole) dt over a piece, g analytic near it.

    With f = density g and x the point of the piece nearest the pole, the
    adaptive reference integrates the bounded quotient (f(t) - f(x)) /
    (t - pole) in the offset u = t - x, which keeps nodes next to the pole
    exact, and f(x) times the logarithm is added in closed form.
    """
    x = min(max(pole.real, piece.a), piece.b)
    fx = complex(piece.density(x) * g(x))
    quotient = lambda u: (piece.density(x + u) * g(x + u) - fx) / (u + (x - pole))
    cuts = [piece.a - x, 0.0, piece.b - x] if piece.a < x < piece.b else [piece.a - x, piece.b - x]
    smooth = sum(
        adaptive_gauss_legendre(quotient, lo, hi, rtol=1e-14) for lo, hi in zip(cuts, cuts[1:])
    )
    return smooth + fx * (cmath.log(piece.b - pole) - cmath.log(piece.a - pole))


def _assert_agrees(got, refs, tol=1e-13):
    """got against the sum of per-piece references, relative to the sum of
    their magnitudes."""
    assert abs(got - sum(refs)) <= tol * sum(abs(x) for x in refs)


EDGE_R = 2.6
EDGE_CHEB = (0.02, 0.006, 0.004)


def _edge_measure(R, gap):
    """Pieces `gap` R inside the jacobi support edges r and -1/r."""
    r = Setting.jacobi(R).r
    return Measure.with_pieces([], [(-1 / r + gap * R, -1.0, EDGE_CHEB), (r + gap * R, 1.2, EDGE_CHEB)])


def _jacobi_cases():
    rng = np.random.RandomState(41)
    cases = [(_ring_pieces(rng, R), R) for R in (2.003, 2.3, 2.6, 3.0) for _ in range(2)]
    return cases + [(_edge_measure(EDGE_R, gap), EDGE_R) for gap in (2e-9, 1e-6)]


class TestPieceRule:
    """The graded piece rule against the adaptive reference, and the scan
    regression it mends: a 64-node grid rule once read 0.870 at s = r on
    the edge case below, where the boundary value is 0.770."""

    def test_scan_edge_value_is_the_boundary_value(self):
        setting = Setting.jacobi(EDGE_R)
        r = setting.r
        sigma = validate(Measure.with_pieces([], [(r + 2e-9 * EDGE_R, 1.2, EDGE_CHEB)]), setting)
        grid = herglotz._boundary_on_s_grid(herglotz._boundary_atoms(sigma, r), np.array([r]), 1.0)
        edge = boundary_value_discrete(sigma, -EDGE_R)
        assert abs(grid[0] - edge) <= 1e-12
        assert abs(edge - 0.77) < 1e-3
        assert admissible_discrete(sigma, setting).min_value <= edge + 1e-12

    @pytest.mark.parametrize("case", range(10))
    def test_moments(self, case):
        sigma, _ = _jacobi_cases()[case]
        ns = np.arange(-330, 331)
        got = moments(sigma, ns)
        for n in (-330, -200, -101, -40, -7, -2, -1, 0, 1, 2, 7, 40, 101, 200, 330):
            refs = [_reference(p, lambda t, n=n: t ** float(n)).real for p in sigma.pieces]
            _assert_agrees(got[n + 330], refs)

    def test_positive_moments_across_the_ring(self):
        r = Setting.jacobi(3.0).r
        ring = 1 / r - r
        piece = (r + 0.01 * ring, 1 / r - 0.01 * ring, (1.0, 0.2, -0.1))
        sigma = Measure.with_pieces([], [piece])
        ns = np.arange(0, 331)
        got = moments(sigma, ns)
        for n in (0, 1, 39, 40, 100, 250, 330):
            _assert_agrees(got[n], [_reference(sigma.pieces[0], lambda t, n=n: t ** float(n)).real])

    @pytest.mark.parametrize("case", range(10))
    def test_scan_values(self, case):
        sigma, R = _jacobi_cases()[case]
        r = Setting.jacobi(R).r
        atoms = herglotz._boundary_atoms(sigma, r)
        for s in (0.3 * r, 0.999 * r, r):
            for sign in (1.0, -1.0):
                got = herglotz._boundary_on_s_grid(atoms, np.array([s]), sign)[0] - atoms[0]
                refs = []
                for p in sigma.pieces:
                    near, far = sorted((sign * s, sign / s), key=lambda z: abs(z - p.a) * abs(z - p.b))
                    refs.append(_pole_reference(p, near, lambda t, far=far: 1 / (t - far)).real)
                _assert_agrees(got, refs)

    @pytest.mark.parametrize("gap", [0.1, 1e-6, 2e-9])
    def test_continuous_endpoint(self, gap):
        R = 1.7
        sigma = Measure.with_pieces(
            [], [(-R + gap * R, -1.0, EDGE_CHEB), (0.2, R - gap * R, (0.3, 0.1, 0.02))]
        )
        validate(sigma, Setting.schrodinger(R))
        refs = [
            _pole_reference(p, near, lambda t, near=near: 1 / (t + near)).real
            for p, near in zip(sigma.pieces, (-R, R))
        ]
        ts, ws = quadrature_atoms(sigma, (R, -R))
        _assert_agrees(np.sum(ws / ((ts - R) * (ts + R))), refs)
        _assert_agrees(admissible_continuous(sigma, Setting.schrodinger(R)).min_value - 1.0, refs)

    @pytest.mark.parametrize("case", [0, 2, 4, 6, 8])
    def test_cauchy(self, case):
        sigma, _ = _jacobi_cases()[case]
        for p in sigma.pieces:
            for lam in (
                0.5 * (p.a + p.b) + 1e-3j,
                p.a + 0.3 * (p.b - p.a) + 1e-6j,
                p.b + 1e-4 + 1e-5j,
                p.a - 1e-3 + 0j,
                0.5 + 2j,
            ):
                refs = [_pole_reference(q, lam) for q in sigma.pieces]
                _assert_agrees(cauchy(sigma, lam), refs)

    @pytest.mark.parametrize("width", [1e-3, 1e-4])
    @pytest.mark.parametrize("d", [1e-16, 1e-15, 1e-14, 1e-12, 1e-9])
    def test_cauchy_next_to_a_narrow_piece(self, width, d):
        # the grading stops at panels MIN_PANEL_ULPS ulps wide: a pole too
        # close to an end for such a panel is OnSupport, never a singular rule
        for cheb in ((0.1,), (0.1, 0.03, -0.02)):
            sigma = Measure.with_pieces([], [(2.0, 2.0 + width, cheb)])
            p = sigma.pieces[0]
            for lam in (p.b + d, p.a - d):
                try:
                    got = cauchy(sigma, lam)
                except OnSupport:
                    assert d < 1e-9
                    continue
                _assert_agrees(got, [_pole_reference(p, complex(lam))], tol=1e-10)


def _phi(setting, lam):
    """The conformal map onto C+ u S u C-: -lam - 1/lam or -lam^2."""
    return -lam - 1 / lam if setting.kind == "jacobi" else -lam * lam


def _h_reference(sigma, setting, lam):
    """m_plus + m_minus at phi(lam) by the partial-fraction formula:
    (1 - s_{-2})(lam - 1/lam) + C(lam) - C(1/lam) (jacobi) or
    2 lam + C(lam) - C(-lam) (schrodinger), C the Cauchy transform."""
    if setting.kind == "jacobi":
        s2 = moments(sigma, [-2])[0]
        return (1.0 - s2) * (lam - 1.0 / lam) + cauchy(sigma, lam) - cauchy(sigma, 1.0 / lam)
    return 2.0 * lam + cauchy(sigma, lam) - cauchy(sigma, -lam)


def _m_sum(sigma, setting, lam):
    z = _phi(setting, lam)
    return m_value(sigma, setting, z, "plus") + m_value(sigma, setting, z, "minus")


class TestH:
    """The summed function m_plus + m_minus pulled back through phi."""

    def test_free_jacobi(self):
        for lam in (0.3 + 0.4j, -0.2 + 0.1j, 0.9j):
            assert _m_sum(ZERO, JAC4, lam) == pytest.approx(lam - 1 / lam, rel=1e-14)

    def test_delta1_closed_form(self):
        for lam in (0.3 + 0.4j, 0.5j, -0.6 + 0.2j):
            expect = (lam - 1 / lam) / ((1 - lam) * (1 - 1 / lam))
            assert _m_sum(DELTA1, JAC4, lam) == pytest.approx(expect, rel=1e-13)

    def test_free_schrodinger(self):
        # lam in the second quadrant, where -lam^2 is in C+
        for lam in (-0.3 + 0.7j, -1.2 + 0.1j):
            assert _m_sum(ZERO, SCH2, lam) == pytest.approx(2 * lam, rel=1e-14)

    def test_matches_m_sum(self):
        rng = np.random.RandomState(29)
        sigma_j, setting_j = random_jacobi_measure(rng)
        for _ in range(25):
            rad, th = rng.uniform(0.1, 0.9), rng.uniform(0.1, np.pi - 0.1)
            lam = rad * cmath.exp(1j * th)
            total = _m_sum(sigma_j, setting_j, lam)
            assert _h_reference(sigma_j, setting_j, lam) == pytest.approx(total, rel=1e-10)
        sigma_s, setting_s = random_schrodinger_measure(rng)
        for _ in range(25):
            lam = complex(-rng.uniform(0.1, 2), rng.uniform(0.1, 2))
            total = _m_sum(sigma_s, setting_s, lam)
            assert _h_reference(sigma_s, setting_s, lam) == pytest.approx(total, rel=1e-10)


class TestHerglotzExp:
    def test_constant(self):
        assert herglotz_exp([], 3.0, 1.7j) == pytest.approx(3.0)
        assert herglotz_exp([(-1.0, 1.0, 0.0)], 3.0, 0.4j) == pytest.approx(3.0)

    def test_half_indicator_closed_form(self):
        val = herglotz_exp([(-2.0, 2.0, 0.5)], 1.0, 2j)
        assert val == pytest.approx(cmath.exp(1j * math.pi / 4), rel=1e-14)
        # normalization |H(i)| = C
        assert abs(herglotz_exp([(-2.0, 2.0, 0.5)], 1.0, 1j)) == pytest.approx(1.0)

    def test_real_axis_value(self):
        val = herglotz_exp([(-2.0, 2.0, 0.5)], 1.0, 3.0)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real > 0

    def test_against_quadrature(self):
        z = 0.7 + 1.3j
        pieces = [(-1.0, 0.5, 0.3), (0.8, 2.0, 0.9)]
        expect = 0.0
        for a, b, v in pieces:
            re, _ = quad(lambda t: (v / (t - z) - v * t / (t * t + 1)).real, a, b, epsabs=1e-13)
            im, _ = quad(lambda t: (v / (t - z) - v * t / (t * t + 1)).imag, a, b, epsabs=1e-13)
            expect += complex(re, im)
        assert herglotz_exp(pieces, 2.0, z) == pytest.approx(2.0 * cmath.exp(expect), rel=1e-12)

    def test_infinite_tail(self):
        z = 0.5 + 0.8j
        re, _ = quad(lambda t: (1 / (t - z) - t / (t * t + 1)).real, 3.0, np.inf, epsabs=1e-13)
        im, _ = quad(lambda t: (1 / (t - z) - t / (t * t + 1)).imag, 3.0, np.inf, epsabs=1e-13)
        expect = cmath.exp(complex(re, im))
        assert herglotz_exp([(3.0, math.inf, 1.0)], 1.0, z) == pytest.approx(expect, rel=1e-10)


class TestBoundaryDiagnostics:
    def test_density_delta1_at_zero(self):
        est = stieltjes_density(DELTA1, JAC4, "plus", 0.0)
        assert est.value == pytest.approx(1.0 / (2 * math.pi), abs=1e-6)

    def test_density_free_jacobi(self):
        est = stieltjes_density(ZERO, JAC4, "plus", 0.0)
        assert est.value == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_density_free_schrodinger(self):
        est = stieltjes_density(ZERO, SCH2, "plus", 1.0)
        assert est.value == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_density_at_an_eigenvalue_does_not_settle(self):
        # the atom at t = 0.6 puts an eigenvalue of rho+ at E = -(t + 1/t),
        # where Im m grows like 1/eta and the extrapolation cannot settle
        t = 0.6
        with pytest.raises(NonConvergent):
            stieltjes_density(Measure.point(t, 0.01), Setting.jacobi(2.6), "plus", -(t + 1.0 / t))

    def test_residual_free(self):
        grid = default_residual_grid(JAC4)
        assert reflectionless_residual(ZERO, JAC4, grid, 1e-4) <= 1e-3

    def test_residual_nan_is_not_hidden(self, monkeypatch):
        # one NaN on the grid makes the maximum NaN, wherever it falls
        grid = default_residual_grid(JAC4, 8)
        m_value = herglotz.m_value

        def nan_at_the_end(sigma, setting, z, side):
            if z.real == grid[-1]:
                return complex(math.nan, math.nan)
            return m_value(sigma, setting, z, side)

        monkeypatch.setattr(herglotz, "m_value", nan_at_the_end)
        assert math.isnan(reflectionless_residual(DELTA1, JAC4, grid, 1e-4))

    def test_residual_scales_with_eta(self):
        grid = default_residual_grid(JAC4)
        r1 = reflectionless_residual(DELTA1, JAC4, grid, 1e-3)
        r2 = reflectionless_residual(DELTA1, JAC4, grid, 1e-4)
        assert r2 <= 10 * 1e-4
        assert r2 == pytest.approx(r1 / 10, rel=0.05)

    def test_residual_schrodinger_atom(self):
        sigma = Measure.point(0.0, 1.0)
        grid = np.linspace(0.5, 10.0, 64)
        res = reflectionless_residual(sigma, SCH2, grid, 1e-4)
        assert res <= 10 * 1e-4

    def test_residual_exponential_tail_density(self):
        # half-line-only example: measure with an exponential right tail,
        # truncated where the remaining mass is below double precision
        from numpy.polynomial import chebyshev as np_cheb

        T = 40.0
        f = lambda x: np.exp(-((x + 1.0) * (T - 1.0) / 2.0 + 1.0))
        coeffs = np_cheb.chebinterpolate(f, 90)
        sigma = Measure.with_pieces([], [(1.0, T, tuple(coeffs))])
        from reflectionless.measure import moment as mom

        assert mom(sigma, 0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        setting = Setting.schrodinger(45.0)
        grid = np.linspace(0.5, 10.0, 32)
        r1 = reflectionless_residual(sigma, setting, grid, 1e-3)
        r2 = reflectionless_residual(sigma, setting, grid, 1e-4)
        assert r2 <= 10 * 1e-4
        assert r2 == pytest.approx(r1 / 10, rel=0.05)
