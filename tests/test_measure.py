import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad

from helpers import np_cauchy
from reflectionless.errors import (
    BadR,
    NegativeMomentAtZero,
    NegativeWeight,
    OnSupport,
    SupportViolation,
)
from reflectionless.herglotz import Setting
from reflectionless.measure import (
    EMPTY_SUPPORT,
    SUPPORT_MARGIN_REL,
    Measure,
    cauchy,
    moment,
    moments,
    solve_r,
    support_bounds,
    validate,
)

DISK_PIECE = ((0.4, 0.9), (1.2, 2.1))


def measure_with_piece(a=0.3, b=0.6, coeffs=(1.0, 0.0, 0.25)):
    return Measure.with_pieces([], [(a, b, coeffs)])


class TestValidate:
    def test_zero_measure_always_valid(self):
        mu = Measure.zero()
        assert validate(mu, "jacobi", 2.0) is mu
        assert validate(mu, "schrodinger", 0.5) is mu

    def test_atom_inside_ring(self):
        # r + 1/r = 4 has r = 2 - sqrt(3); then r < 1 < 1/r
        r = solve_r(4.0)
        assert r == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-14)
        mu = Measure.point(1.0, 0.75)
        assert validate(mu, "jacobi", 4.0) is mu

    def test_schrodinger_support_violation(self):
        with pytest.raises(SupportViolation):
            validate(Measure.point(2.5, 1.0), "schrodinger", 2.0)

    def test_jacobi_ring_violation(self):
        with pytest.raises(SupportViolation):
            validate(Measure.point(1.0, 1.0), "jacobi", 2.0)  # empty ring at R = 2
        with pytest.raises(SupportViolation):
            validate(Measure.point(0.1, 1.0), "jacobi", 4.0)  # inside the inner gap

    def test_endpoint_atom_rejected(self):
        r = solve_r(4.0)
        with pytest.raises(SupportViolation):
            validate(Measure.point(r, 1.0), "jacobi", 4.0)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            validate(Measure.point(1.0, -0.5), "jacobi", 4.0)

    def test_negative_density(self):
        mu = Measure.with_pieces([], [(0.5, 0.9, (0.0, 1.0))])  # odd: negative at left
        with pytest.raises(NegativeWeight):
            validate(mu, "jacobi", 4.0)

    def test_bad_r(self):
        with pytest.raises(BadR):
            validate(Measure.zero(), "jacobi", 1.5)
        with pytest.raises(BadR):
            validate(Measure.zero(), "schrodinger", 0.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_r(self, R):
        with pytest.raises(BadR):
            solve_r(R)
        for setting in (Setting.jacobi, Setting.schrodinger):
            with pytest.raises(BadR):
                setting(R)
        with pytest.raises(BadR):
            validate(Measure.zero(), "schrodinger", R)

    def test_overlapping_pieces(self):
        mu = Measure.with_pieces([], [(0.4, 0.7, (1.0,)), (0.6, 0.9, (1.0,))])
        with pytest.raises(SupportViolation):
            validate(mu, "jacobi", 4.0)

    def test_piece_narrower_than_margin_rejected(self):
        m = SUPPORT_MARGIN_REL * 4.0
        with pytest.raises(SupportViolation):
            validate(Measure.with_pieces([], [(1.0, 1.0 + 0.5 * m, (1.0,))]), "jacobi", 4.0)
        mu = Measure.with_pieces([], [(1.0, 1.0 + 2.0 * m, (1.0,))])
        assert validate(mu, "jacobi", 4.0) is mu

    def test_empty_density_rejected(self):
        mu = Measure.with_pieces([], [(0.4, 0.7, ())])
        with pytest.raises(NegativeWeight):
            validate(mu, "jacobi", 4.0)


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
            expect, _ = quad(lambda t: t ** float(n) * dens(t), a, b, epsabs=1e-14)
            assert moment(mu, n) == pytest.approx(expect, rel=1e-11)

    def test_mass_and_growth_bounds(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            ts = rng.uniform(0.3, 2.5, size=rng.randint(1, 5))
            ws = rng.uniform(0.1, 2.0, size=len(ts))
            mu = Measure.from_atoms(zip(ts, ws))
            info = support_bounds(mu)
            mass = moment(mu, 0)
            assert mass == pytest.approx(float(np.sum(ws)), rel=1e-14)
            for n in range(0, 6):
                limit = mass * max(abs(info.min), abs(info.max)) ** n
                assert abs(moment(mu, n)) <= limit * (1 + 1e-12)
            for n in range(-5, 0):
                limit = mass * info.distance_to_zero ** n
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

    def test_piece_against_quad_oracle(self):
        a, b, coeffs = 0.3, 0.6, (1.0, 0.0, 0.25)
        mu = measure_with_piece(a, b, coeffs)
        dens = lambda t: cheb.chebval((2 * t - a - b) / (b - a), coeffs)
        for lam in (0.9 + 0.2j, -0.4 + 1.0j, 0.45 + 1e-3j, 2.0 + 0j):
            re, _ = quad(lambda t: (dens(t) / (t - lam)).real, a, b, epsabs=1e-14, limit=200)
            im, _ = quad(lambda t: (dens(t) / (t - lam)).imag, a, b, epsabs=1e-14, limit=200)
            val = cauchy(mu, lam)
            assert val == pytest.approx(complex(re, im), rel=1e-10, abs=1e-12)

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


class TestSupportBounds:
    def test_single_atom(self):
        info = support_bounds(Measure.point(1.0, 0.5))
        assert (info.min, info.max, info.distance_to_zero) == (1.0, 1.0, 1.0)

    def test_two_atoms(self):
        info = support_bounds(Measure.from_atoms([(-0.5, 1.0), (3.0, 1.0)]))
        assert (info.min, info.max, info.distance_to_zero) == (-0.5, 3.0, 0.5)

    def test_piece(self):
        info = support_bounds(measure_with_piece(0.3, 0.6))
        assert (info.min, info.max, info.distance_to_zero) == (0.3, 0.6, 0.3)

    def test_zero_measure_marker(self):
        info = support_bounds(Measure.zero())
        assert info is EMPTY_SUPPORT
        assert info.empty
