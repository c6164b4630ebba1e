import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from helpers import np_cauchy
from reflectionless.errors import (
    BadR,
    NegativeMomentAtZero,
    NegativeWeight,
    NonFiniteOutput,
    OnSupport,
    SupportViolation,
)
from reflectionless.herglotz import Setting
from reflectionless.measure import (
    SUPPORT_MARGIN_REL,
    Measure,
    cauchy,
    moment,
    moments,
    solve_r,
    validate,
)

DISK_PIECE = ((0.4, 0.9), (1.2, 2.1))


def measure_with_piece(a=0.3, b=0.6, coeffs=(1.0, 0.0, 0.25)):
    return Measure.with_pieces([], [(a, b, coeffs)])


class TestValidate:
    def test_zero_measure_always_valid(self):
        mu = Measure.zero()
        assert validate(mu, Setting.jacobi(2.0)) is mu
        assert validate(mu, Setting.schrodinger(0.5)) is mu

    def test_atom_inside_ring(self):
        # r + 1/r = 4 has r = 2 - sqrt(3); then r < 1 < 1/r
        r = solve_r(4.0)
        assert r == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-14)
        mu = Measure.point(1.0, 0.75)
        assert validate(mu, Setting.jacobi(4.0)) is mu

    def test_schrodinger_support_violation(self):
        with pytest.raises(SupportViolation):
            validate(Measure.point(2.5, 1.0), Setting.schrodinger(2.0))

    def test_jacobi_ring_violation(self):
        with pytest.raises(SupportViolation):
            validate(Measure.point(1.0, 1.0), Setting.jacobi(2.0))  # empty ring at R = 2
        with pytest.raises(SupportViolation):
            validate(Measure.point(0.1, 1.0), Setting.jacobi(4.0))  # inside the inner gap

    def test_endpoint_atom_rejected(self):
        r = solve_r(4.0)
        with pytest.raises(SupportViolation):
            validate(Measure.point(r, 1.0), Setting.jacobi(4.0))

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            validate(Measure.point(1.0, -0.5), Setting.jacobi(4.0))

    @pytest.mark.parametrize("mu", [
        Measure.point(1.5, math.inf),
        Measure.with_pieces([], [(1.2, 1.4, (1.0, math.nan))]),
        Measure.with_pieces([], [(1.2, 1.4, (1e308, 1e308))]),  # its density overflows
    ], ids=["infinite-weight", "nan-coefficient", "overflowing-density"])
    def test_non_finite_mass(self, mu):
        with pytest.raises(NegativeWeight):
            validate(mu, Setting.jacobi(2.5))

    def test_negative_density(self):
        mu = Measure.with_pieces([], [(0.5, 0.9, (0.0, 1.0))])  # odd: negative at left
        with pytest.raises(NegativeWeight):
            validate(mu, Setting.jacobi(4.0))

    def test_bad_r(self):
        with pytest.raises(BadR):
            validate(Measure.zero(), Setting.jacobi(1.5))
        with pytest.raises(BadR):
            validate(Measure.zero(), Setting.schrodinger(0.0))

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_r(self, R):
        with pytest.raises(BadR):
            solve_r(R)
        for setting in (Setting.jacobi, Setting.schrodinger):
            with pytest.raises(BadR):
                setting(R)
        with pytest.raises(BadR):
            validate(Measure.zero(), Setting.schrodinger(R))

    @pytest.mark.parametrize("R", [2.0, 2.0 + 4e-16, 2.01, 1e8, 1e9, 1e154, 1e300, 1.7e308])
    def test_solve_r_against_mpmath(self, R):
        with mpmath.workdps(60):
            true = 2 / (R + mpmath.sqrt(mpmath.mpf(R) ** 2 - 4))
            ulps = abs(solve_r(R) - true) / math.ulp(float(true))
        assert ulps <= 2

    def test_overlapping_pieces(self):
        mu = Measure.with_pieces([], [(0.4, 0.7, (1.0,)), (0.6, 0.9, (1.0,))])
        with pytest.raises(SupportViolation):
            validate(mu, Setting.jacobi(4.0))

    def test_piece_narrower_than_margin_rejected(self):
        m = SUPPORT_MARGIN_REL * 1.0  # the jacobi least width, relative to the piece's near end
        with pytest.raises(SupportViolation):
            validate(Measure.with_pieces([], [(1.0, 1.0 + 0.5 * m, (1.0,))]), Setting.jacobi(4.0))
        mu = Measure.with_pieces([], [(1.0, 1.0 + 2.0 * m, (1.0,))])
        assert validate(mu, Setting.jacobi(4.0)) is mu

    def test_empty_density_rejected(self):
        mu = Measure.with_pieces([], [(0.4, 0.7, ())])
        with pytest.raises(NegativeWeight):
            validate(mu, Setting.jacobi(4.0))


D = SUPPORT_MARGIN_REL


class TestSupportRule:
    """Each edge of the setting's region moves inward by SUPPORT_MARGIN_REL
    of itself: r (1 + d) < |t| < (1 - d) / r in the jacobi ring, |t| < R (1 - d)
    on the schrodinger line."""

    @pytest.mark.parametrize("R", [2.5, 4.0, 1e3, 1e5, 1e9, 1e300])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jacobi_edges(self, R, sign):
        setting = Setting.jacobi(R)
        r = setting.r
        for t in (r * (1.0 + 2.0 * D), (1.0 - 2.0 * D) / r):
            mu = Measure.point(sign * t, 1.0)
            assert validate(mu, setting) is mu
        for t in (r * (1.0 + 0.5 * D), (1.0 - 0.5 * D) / r, r, 1.0 / r):
            with pytest.raises(SupportViolation):
                validate(Measure.point(sign * t, 1.0), setting)
        # pieces reaching each edge from inside, and past it
        lo, hi = r * (1.0 + 2.0 * D), (1.0 - 2.0 * D) / r
        for ends in ((lo, 2.0 * lo), (0.5 * hi, hi)):
            mu = Measure.with_pieces([], [(*sorted(sign * x for x in ends), (1.0,))])
            assert validate(mu, setting) is mu
        lo, hi = r * (1.0 + 0.5 * D), (1.0 - 0.5 * D) / r
        for ends in ((lo, 2.0 * lo), (0.5 * hi, hi)):
            mu = Measure.with_pieces([], [(*sorted(sign * x for x in ends), (1.0,))])
            with pytest.raises(SupportViolation, match="not strictly inside"):
                validate(mu, setting)

    @pytest.mark.parametrize("R", [1e-3, 0.5, 2.0, 1e9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_schrodinger_edges(self, R, sign):
        setting = Setting.schrodinger(R)
        for t in (0.0, R * (1.0 - 2.0 * D)):
            mu = Measure.point(sign * t, 1.0)
            assert validate(mu, setting) is mu
        with pytest.raises(SupportViolation):
            validate(Measure.point(sign * R * (1.0 - 0.5 * D), 1.0), setting)
        inside = (-0.5 * R, R * (1.0 - 2.0 * D)) if sign > 0 else (-R * (1.0 - 2.0 * D), 0.5 * R)
        mu = Measure.with_pieces([], [(*inside, (1.0,))])
        assert validate(mu, setting) is mu
        past = (-0.5 * R, R * (1.0 - 0.5 * D)) if sign > 0 else (-R * (1.0 - 0.5 * D), 0.5 * R)
        with pytest.raises(SupportViolation, match="not strictly inside"):
            validate(Measure.with_pieces([], [(*past, (1.0,))]), setting)
        # the least width is D R wherever the piece sits
        for width, ok in ((2.0 * D * R, True), (0.5 * D * R, False)):
            mu = Measure.with_pieces([], [(sign * 0.1 * R, sign * 0.1 * R + width, (1.0,))])
            if ok:
                assert validate(mu, setting) is mu
            else:
                with pytest.raises(SupportViolation, match="narrower"):
                    validate(mu, setting)

    @pytest.mark.parametrize("R", [4.0, 1e5, 1e9])
    @pytest.mark.parametrize("near", ["inner", "outer"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jacobi_least_width(self, R, near, sign):
        setting = Setting.jacobi(R)
        t = 2.0 * setting.r if near == "inner" else 0.5 / setting.r
        for width, ok in ((2.0 * D * t, True), (0.5 * D * t, False)):
            a, b = sorted((sign * t, sign * (t + width)))
            mu = Measure.with_pieces([], [(a, b, (1.0,))])
            if ok:
                assert validate(mu, setting) is mu
            else:
                with pytest.raises(SupportViolation, match="narrower"):
                    validate(mu, setting)

    @pytest.mark.parametrize("R", [4.0, 1e5])
    def test_jacobi_piece_across_the_gap_rejected(self, R):
        setting = Setting.jacobi(R)
        for a, b in ((-1.0, 1.0), (-2.0 * setting.r, 2.0 * setting.r), (0.0, 1.0), (-1.0, 0.0)):
            with pytest.raises(SupportViolation, match="not strictly inside"):
                validate(Measure.with_pieces([], [(a, b, (1.0,))]), setting)

    @pytest.mark.parametrize("R", [1e3, 1e5, 1e9])
    def test_atoms_near_the_inner_edge_accepted(self, R):
        # refused while the margin was 1e-9 R, wider than the inner edge r ~ 1/R
        setting = Setting.jacobi(R)
        r = setting.r
        mu = Measure.from_atoms([(2.0 * r, 1.0), (-10.0 * r, 1.0), (11.5 * r, 1.0)])
        assert validate(mu, setting) is mu

    @pytest.mark.parametrize(
        "atoms, pieces, error, message",
        [
            ([(5.0, -1.0)], [], NegativeWeight, "atom at t=5.0"),
            ([(1.0, 1.0), (0.1, 1.0)], [(0.4, 0.7, (1.0,)), (0.6, 0.9, (1.0,))],
             SupportViolation, "support element 0.1 "),
            ([], [(5.0, 5.0 + 1e-12, ())], SupportViolation, "piece [5.0, 5.000000000001] is narrower"),
            ([], [(5.0, 6.0, ())], NegativeWeight, "piece [5.0, 6.0] has no density"),
            ([], [(5.0, 6.0, (0.0, 1.0))], SupportViolation, "support element (5.0, 6.0) "),
            ([], [(0.5, 0.9, (0.0, 1.0)), (0.6, 0.7, (1.0,))], NegativeWeight, "density negative"),
            ([(0.65, 1.0)], [(0.6, 0.7, (1.0,))], SupportViolation, "support elements overlap"),
        ],
        ids=["weight-first", "atoms-before-overlap", "width-first", "coefficients-before-region",
             "region-before-density", "density-before-overlap", "overlap"],
    )
    def test_first_fault_reported(self, atoms, pieces, error, message):
        # the order of the checks is kept, so each measure's first fault is the one reported
        with pytest.raises(error) as info:
            validate(Measure.with_pieces(atoms, pieces), Setting.jacobi(4.0))
        assert str(info.value).startswith(message)


class TestMoment:
    def test_single_atom_examples(self):
        mu = Measure.point(1.0, 0.75)
        assert moment(mu, -2) == 0.75
        assert moment(mu, 0) == 0.75

    def test_symmetric_atoms(self):
        mu = Measure.from_atoms([(-2.0, 1.0), (2.0, 1.0)])
        assert moment(mu, 1) == 0.0

    def test_atom_at_zero_convention(self):
        mu = Measure.point(0.0, 2.5)
        assert moment(mu, 0) == 2.5
        assert moment(mu, 3) == 0.0
        with pytest.raises(NegativeMomentAtZero):
            moment(mu, -1)

    @pytest.mark.parametrize("a, b", [(-0.2, 0.3), (-0.4, 0.0), (0.0, 0.5)])
    def test_piece_touching_zero_has_no_negative_moments(self, a, b):
        mu = Measure.with_pieces([(0.7, 0.5)], [(a, b, (1.0,))])
        assert moments(mu, [0])[0] == pytest.approx(0.5 + (b - a), rel=1e-14)
        with pytest.raises(NegativeMomentAtZero):
            moments(mu, [1, -1])

    def test_negative_moments_next_to_zero(self):
        # a piece 1e-9 from the origin, and the zero measure, have them
        for a, b in ((1e-9, 0.5), (-0.5, -1e-9)):
            mu = Measure.with_pieces([], [(a, b, (1.0,))])
            assert moment(mu, -1) == pytest.approx(math.log(abs(b / a)), rel=1e-12)
        assert moments(Measure.zero(), [-2, -1, 0]).tolist() == [0.0, 0.0, 0.0]

    def test_piece_polynomial_exactness(self):
        # oracle: numpy's own Chebyshev integration
        a, b, coeffs = 0.3, 0.6, (0.7, 0.2, 0.4)
        mu = Measure.with_pieces([], [(a, b, coeffs)])
        density_poly = cheb.Chebyshev(coeffs, domain=[a, b]).convert(
            kind=np.polynomial.Polynomial
        )
        for n in range(0, 7):
            integrand = density_poly * np.polynomial.Polynomial([0, 1]) ** n
            antider = integrand.integ()
            expect = antider(b) - antider(a)
            assert moment(mu, n) == pytest.approx(expect, rel=1e-12)

    def test_piece_negative_moment_against_quad(self):
        a, b, coeffs = 0.3, 0.6, (1.0, 0.0, 0.25)
        mu = Measure.with_pieces([], [(a, b, coeffs)])
        dens = lambda t: cheb.chebval((2 * t - a - b) / (b - a), coeffs)
        for n in (-1, -2, -3):
            expect = float(mpmath.quad(lambda t: t ** n * dens(t), [a, b]))
            assert moment(mu, n) == pytest.approx(expect, rel=1e-11)

    def test_mass_and_growth_bounds(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            ts = rng.uniform(0.3, 2.5, size=rng.randint(1, 5))
            ws = rng.uniform(0.1, 2.0, size=len(ts))
            mu = Measure.from_atoms(zip(ts, ws))
            far, near = float(np.max(np.abs(ts))), float(np.min(np.abs(ts)))
            mass = moment(mu, 0)
            assert mass == pytest.approx(float(np.sum(ws)), rel=1e-14)
            for n in range(0, 6):
                limit = mass * far ** n
                assert abs(moment(mu, n)) <= limit * (1 + 1e-12)
            for n in range(-5, 0):
                limit = mass * near ** n
                assert abs(moment(mu, n)) <= limit * (1 + 1e-12)
            # the vectorized pass over atoms against a per-n loop
            ns = np.arange(-5, 6)
            expect = [sum(w * t ** float(n) for t, w in zip(ts, ws)) for n in ns]
            assert moments(mu, ns) == pytest.approx(expect, rel=1e-14)


class TestCauchy:
    def test_atom_values(self):
        mu = Measure.point(1.0, 1.0)
        assert cauchy(mu, 0.0) == pytest.approx(1.0)
        assert cauchy(mu, 0.5j) == pytest.approx(0.8 + 0.4j, rel=1e-15)

    def test_zero_measure(self):
        assert cauchy(Measure.zero(), 1.7 + 0.3j) == 0.0

    def test_on_support_errors(self):
        with pytest.raises(OnSupport):
            cauchy(Measure.point(1.0, 1.0), 1.0)
        with pytest.raises(OnSupport):
            cauchy(measure_with_piece(), 0.45)

    @pytest.mark.parametrize(
        "lam", [complex(math.nan, math.nan), complex(0.5, math.inf), complex(-math.inf, 1.0)]
    )
    def test_non_finite_point_refused(self, lam):
        for mu in (Measure.point(1.0, 1.0), measure_with_piece()):
            with pytest.raises(NonFiniteOutput):
                cauchy(mu, lam)

    def test_piece_against_quad_oracle(self):
        a, b, coeffs = 0.3, 0.6, (1.0, 0.0, 0.25)
        mu = measure_with_piece(a, b, coeffs)
        dens = lambda t: cheb.chebval((2 * t - a - b) / (b - a), coeffs)
        for lam in (0.9 + 0.2j, -0.4 + 1.0j, 0.45 + 1e-3j, 2.0 + 0j):
            # quad takes the smooth rest once the pole term c/(t - lam) is out,
            # split at lam.real, where the rest turns on the scale of Im lam
            c = dens(lam.real)
            nodes = [a, lam.real, b] if a < lam.real < b else [a, b]
            rest = complex(mpmath.quad(lambda t: (dens(t) - c) / (t - lam), nodes))
            want = rest + c * (cmath.log(b - lam) - cmath.log(a - lam))
            assert cauchy(mu, lam) == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("d", [1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
    def test_next_to_the_end_of_a_wide_piece(self, d):
        # closer than MAX_LEVELS of grading can follow, the rule must refuse
        # rather than return a wrong value
        mu = Measure.with_pieces([], [(2.0, 3.0, (0.1,))])
        for lam in (3.0 + d, 2.0 - d):
            try:
                val = cauchy(mu, lam)
            except OnSupport:
                continue
            exact = 0.1 * math.log(abs(3.0 - lam) / abs(2.0 - lam))
            assert val == pytest.approx(exact, rel=1e-10)
        with pytest.raises(OnSupport):
            cauchy(mu, 2.5 + 1e-12j)

    def test_conjugate_symmetry(self):
        mu = Measure.from_atoms([(0.7, 0.4), (-1.3, 0.6)])
        rng = np.random.RandomState(5)
        for _ in range(50):
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            assert cauchy(mu, np.conj(lam)) == pytest.approx(np.conj(cauchy(mu, lam)), rel=1e-14)

    def test_herglotz_property(self):
        rng = np.random.RandomState(9)
        mu = Measure.with_pieces([(0.7, 0.4), (-1.3, 0.6)], [(1.1, 1.9, (1.0, 0.0, 0.3))])
        for _ in range(200):
            lam = complex(rng.uniform(-4, 4), rng.uniform(1e-3, 4))
            assert cauchy(mu, lam).imag > 0.0

    def test_bit_equal_to_np_sum(self):
        measures = [
            Measure.from_atoms([(0.7, 0.4), (-1.3, 0.6)]),
            Measure.with_pieces([(0.7, 0.4), (-1.3, 0.6)], [(1.1, 1.9, (1.0, 0.0, 0.3))]),
            measure_with_piece(),
            Measure.zero(),
        ]
        rng = np.random.RandomState(10)
        lams = [complex(rng.uniform(-4, 4), rng.uniform(1e-6, 4)) for _ in range(40)]
        lams += [-2.5, 0.1, 3.0]
        for mu in measures:
            got = np.array([cauchy(mu, lam) for lam in lams])
            assert got.tobytes() == np.array([np_cauchy(mu, lam) for lam in lams]).tobytes()


class TestAtomArrays:
    def test_built_once_and_read_only(self):
        mu = Measure.from_atoms([(0.7, 0.4), (-1.3, 0.6)])
        ts, ws = mu.atom_arrays
        assert ts.tolist() == [0.7, -1.3] and ws.tolist() == [0.4, 0.6]
        assert mu.atom_arrays[0] is ts
        for arr in (ts, ws, *Measure.zero().atom_arrays):
            with pytest.raises(ValueError):
                arr[...] = 1.0
        assert hash(mu) == hash(Measure.from_atoms([(0.7, 0.4), (-1.3, 0.6)]))


class TestInverseMoments:
    def test_bit_equal_to_moment(self):
        for mu in (
            Measure.from_atoms([(0.7, 0.4), (-1.3, 0.6)]),
            Measure.with_pieces([(0.7, 0.4)], [(1.1, 1.9, (1.0, 0.0, 0.3))]),
            measure_with_piece(-0.9, -0.2),
            Measure.zero(),
        ):
            s1, s2 = mu.inverse_moments
            assert (s1, s2) == (moment(mu, -1), moment(mu, -2))
            assert np.array([s1, s2]).tobytes() == np.array([moment(mu, -1), moment(mu, -2)]).tobytes()
            assert mu.inverse_moments is mu.inverse_moments
