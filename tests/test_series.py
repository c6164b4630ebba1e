import numpy as np
import pytest

from reflectionless.series import (
    TruncatedSeries,
    _conv,
    monomial,
    ts_add,
    ts_compose,
    ts_mul,
    ts_poly,
    ts_recip,
    ts_revert,
)


def brute_convolution(a_coeffs, a_lead, b_coeffs, b_lead):
    """Independent oracle: exact double-loop product of two Laurent polynomials."""
    out = {}
    for i, ai in enumerate(a_coeffs):
        for j, bj in enumerate(b_coeffs):
            e = a_lead + i + b_lead + j
            out[e] = out.get(e, 0.0) + ai * bj
    return out


class TestAdd:
    def test_linearity(self):
        f = ts_poly([1, 1], order=8)
        g = ts_poly([1, -1], order=8)
        s = ts_add(f, g)
        assert s.coeff(0) == 2.0 and s.coeff(1) == 0.0
        assert s.order == 8

    def test_identity(self):
        f = ts_poly([3.0, 2.0, 1.0], order=10)
        z = ts_poly([], order=10)
        s = ts_add(f, z)
        assert s.order == 10
        assert all(s.coeff(k) == f.coeff(k) for k in range(10))

    def test_laurent_overlap(self):
        a = ts_poly([1.0, 0.0, 1.0], lead=-1, order=6)  # u^-1 + u
        b = monomial(1.0, 1, order=6)
        s = ts_add(a, b)
        assert s.coeff(-1) == 1.0 and s.coeff(0) == 0.0 and s.coeff(1) == 2.0

    def test_order_is_min(self):
        s = ts_add(ts_poly([1], order=5), ts_poly([1], order=9))
        assert s.order == 5


class TestConv:
    @pytest.mark.parametrize("len_a, len_b", [(9, 3), (3, 9), (6, 6), (12, 14), (2, 3), (0, 5), (5, 0)])
    def test_against_brute_force(self, len_a, len_b):
        n = 6
        rng = np.random.RandomState(len_a * 17 + len_b)
        a = rng.randint(-5, 6, size=len_a).astype(float)
        b = rng.randint(-5, 6, size=len_b).astype(float)
        out = _conv(a, b, n)
        expect = brute_convolution(a, 0, b, 0)
        assert len(out) == n
        assert all(out[e] == expect.get(e, 0.0) for e in range(n))


class TestMul:
    def test_difference_of_squares(self):
        p = ts_mul(ts_poly([1, 1], order=8), ts_poly([1, -1], order=8))
        assert p.coeff(0) == 1.0 and p.coeff(1) == 0.0 and p.coeff(2) == -1.0

    def test_laurent_cancellation(self):
        p = ts_mul(monomial(1.0, -1, order=6), monomial(1.0, 1, order=6))
        assert p.coeff(0) == 1.0
        assert p.lead == 0

    def test_square_against_brute_force(self):
        f = ts_poly([1, 1, 1], order=8)
        p = ts_mul(f, f)
        expect = brute_convolution([1, 1, 1], 0, [1, 1, 1], 0)
        for e, v in expect.items():
            if e < p.order:
                assert p.coeff(e) == v

    def test_random_integer_inputs_match_brute_force(self):
        rng = np.random.RandomState(7)
        for _ in range(50):
            la, lb = rng.randint(-3, 3, size=2)
            ca = rng.randint(-5, 6, size=rng.randint(1, 7)).astype(float)
            cb = rng.randint(-5, 6, size=rng.randint(1, 7)).astype(float)
            a = TruncatedSeries(int(la), tuple(ca), int(la) + len(ca))
            b = TruncatedSeries(int(lb), tuple(cb), int(lb) + len(cb))
            p = ts_mul(a, b)
            expect = brute_convolution(ca, la, cb, lb)
            for e in range(p.lead, p.order):
                assert p.coeff(e) == expect.get(e, 0.0)

    def test_order_rule(self):
        a = ts_poly([1, 1], lead=1, order=7)
        b = ts_poly([2], lead=2, order=5)
        p = ts_mul(a, b)
        assert p.order == min(7 + 2, 5 + 1)


class TestCompose:
    def test_identity_outer(self):
        g = ts_poly([2.0, -1.0, 0.5], lead=1, order=9)
        c = ts_compose(ts_poly([0.0, 1.0], order=9), g)
        for k in range(1, c.order):
            assert c.coeff(k) == pytest.approx(g.coeff(k), abs=0)

    def test_geometric_substitution(self):
        order = 12
        f = ts_poly([1.0] * order, order=order)      # 1/(1-x)
        g = monomial(1.0, 2, order=order)
        c = ts_compose(f, g)
        for k in range(c.order):
            assert c.coeff(k) == (1.0 if k % 2 == 0 else 0.0)

    def test_sign_flip(self):
        f = ts_poly([0, 1, 1], order=8)
        c = ts_compose(f, monomial(-1.0, 1, order=8))
        assert c.coeff(1) == -1.0 and c.coeff(2) == 1.0

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            ts_compose(ts_poly([1, 1], order=6), ts_poly([1.0, 1.0], order=6))


class TestRevert:
    def test_identity(self):
        g = ts_revert(ts_poly([0, 1], order=10))
        assert g.coeff(1) == 1.0
        assert all(g.coeff(k) == 0.0 for k in range(2, g.order))

    def test_scaling(self):
        g = ts_revert(ts_poly([0, 2], order=10))
        assert g.coeff(1) == 0.5

    def test_conformal_coordinate_catalan_pattern(self):
        # f = -x + x^3 - x^5 + ...; inverse has signed Catalan coefficients
        order = 14
        coeffs = np.zeros(order - 1)
        coeffs[0::4] = -1.0
        coeffs[2::4] = 1.0
        g = ts_revert(ts_poly(coeffs, lead=1, order=order))
        assert g.coeff(1) == pytest.approx(-1.0, rel=1e-14)
        assert g.coeff(3) == pytest.approx(-1.0, rel=1e-14)
        assert g.coeff(5) == pytest.approx(-2.0, rel=1e-14)
        assert g.coeff(7) == pytest.approx(-5.0, rel=1e-14)

    def test_back_substitution(self):
        # brute-force check: f(g(u)) = u, coefficientwise
        order = 14
        coeffs = np.zeros(order - 1)
        coeffs[0::4] = -1.0
        coeffs[2::4] = 1.0
        f = ts_poly(coeffs, lead=1, order=order)
        g = ts_revert(f)
        h = ts_compose(f, g)
        assert h.coeff(1) == pytest.approx(1.0, rel=1e-13)
        for k in range(2, h.order):
            assert abs(h.coeff(k)) < 1e-12

    def test_rejects_zero_derivative(self):
        with pytest.raises(ValueError):
            ts_revert(ts_poly([0, 0, 1], order=8))


class TestRecip:
    def test_geometric(self):
        g = ts_recip(ts_poly([1.0, -1.0], order=9))
        assert all(g.coeff(k) == 1.0 for k in range(g.order))

    def test_monomial(self):
        g = ts_recip(monomial(1.0, 1, order=8))
        assert g.lead == -1
        assert g.coeff(-1) == 1.0

    def test_multiply_back(self):
        f = ts_poly([2.0, 1.0], order=10)
        g = ts_recip(f)
        assert g.coeff(0) == 0.5 and g.coeff(1) == -0.25 and g.coeff(2) == 0.125
        p = ts_mul(f, g)
        assert p.coeff(0) == pytest.approx(1.0, rel=1e-15)
        for k in range(1, p.order):
            assert abs(p.coeff(k)) < 1e-15

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            ts_recip(ts_poly([], order=4))


class TestRoundTripProperties:
    def test_compose_revert_is_identity(self):
        rng = np.random.RandomState(11)
        for _ in range(25):
            order = int(rng.randint(6, 20))
            c = rng.uniform(-2, 2, size=order - 1)
            c[0] = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
            f = ts_poly(c, lead=1, order=order)
            g = ts_revert(f)
            h = ts_compose(f, g)
            # relative scale of cancellation: the same composition on |coeffs|
            habs = ts_compose(
                ts_poly(np.abs(c), lead=1, order=order),
                ts_poly(np.abs(g.array()), lead=g.lead, order=g.order),
            )
            assert h.coeff(1) == pytest.approx(1.0, rel=1e-12)
            for k in range(2, h.order):
                assert abs(h.coeff(k)) <= 1e-12 * max(1.0, habs.coeff(k))

    def test_mul_recip_is_one(self):
        rng = np.random.RandomState(13)
        for _ in range(25):
            order = int(rng.randint(4, 16))
            lead = int(rng.randint(-3, 4))
            c = rng.uniform(-2, 2, size=order)
            c[0] = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
            f = TruncatedSeries(lead, tuple(c), lead + order)
            p = ts_mul(f, ts_recip(f))
            assert p.coeff(0) == pytest.approx(1.0, rel=1e-12)
            for k in range(1, p.order):
                assert abs(p.coeff(k)) < 1e-10

    def test_unknown_coefficients_raise(self):
        f = ts_poly([1, 2], order=4)
        with pytest.raises(ValueError):
            f.coeff(4)
