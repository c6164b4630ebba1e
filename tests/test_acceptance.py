"""Acceptance suite: one check per release criterion, at pinned tolerances.

Run under pytest (`pytest tests/test_acceptance.py -v`) or standalone
(`python3 tests/test_acceptance.py`), which prints one PASS/FAIL line per
criterion and exits nonzero on any failure.
"""

import cmath
import math
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from reflectionless.herglotz import (
    Setting,
    admissible_discrete,
    boundary_value_discrete,
    default_residual_grid,
    herglotz_exp,
    m_value,
    reflectionless_residual,
    stieltjes_density,
)
from reflectionless.jacobi import m_oracle, prop311_check, reconstruct
from reflectionless.measure import Measure, moment, solve_r
from reflectionless.presets import delta0, delta1, free, soliton
from reflectionless.schrodinger import (
    binomial_sum_identity,
    integrate_flow,
    riccati_mismatch,
)

ZGRID = np.array(
    [complex(x, y) for x in (-2.0, -1.0, 0.0, 1.0, 2.0) for y in (1.0, 1.5, 2.0, 2.5, 3.0)]
)


def _suite_measures(n, seed=2024):
    """Random admissible atomic measures for the reconstruction suite.

    R stays close to 2 (thin support rings) so that the coefficient
    deviations remain above the double-precision noise floor through all
    requested window rows, keeping the strict a_n > 1 check meaningful.
    """
    rng = np.random.RandomState(seed)
    out = []
    while len(out) < n:
        R = float(rng.uniform(2.002, 2.02))
        r = solve_r(R)
        ring = 1.0 / r - r
        lo, hi = r + 0.12 * ring, 1.0 / r - 0.12 * ring
        k = int(rng.randint(2, 6))
        ts = rng.uniform(lo, hi, k) * np.where(rng.rand(k) < 0.5, -1.0, 1.0)
        ws = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.01, 0.06))
        sigma = Measure.from_atoms(zip(ts, ws))
        setting = Setting.jacobi(R)
        if admissible_discrete(sigma, setting).passed:
            out.append((sigma, setting))
    return out


def criterion_01_free_round_trip():
    """sigma = 0 reconstructs the free operator on |n| <= 10."""
    sigma, setting = free()
    window = reconstruct(sigma, setting, 10)
    a_err = max(abs(window.a_at(n) - 1.0) for n in range(-10, 11))
    b_err = max(abs(window.b_at(n)) for n in range(-10, 11))
    assert a_err <= 1e-9, f"free a_n deviates by {a_err}"
    assert b_err <= 1e-9, f"free b_n deviates by {b_err}"
    return f"max|a-1| = {a_err:.2e}, max|b| = {b_err:.2e}"


def criterion_02_soliton_family():
    """a_0 = eps^(-1/2) and the boundary-function root sits at -(1 + 1/eps)."""
    details = []
    for eps in (0.5, 0.25, 0.1):
        sigma, setting = soliton(eps)
        window = reconstruct(sigma, setting, 8)
        a0_err = abs(window.a_at(0) - eps ** -0.5)
        assert a0_err <= 1e-8, f"eps={eps}: a0 off by {a0_err}"
        e_target = -(1.0 + 1.0 / eps)
        root = brentq(
            lambda E: boundary_value_discrete(sigma, E),
            e_target - 1.0,
            0.5 * (e_target - 2.0),
            xtol=1e-12,
        )
        assert abs(root - e_target) <= 1e-8, f"eps={eps}: root at {root}"
        details.append(f"eps={eps}: |a0 err| = {a0_err:.1e}, root err = {abs(root - e_target):.1e}")
    return "; ".join(details)


def criterion_03_half_line_example():
    """delta_1 fails admissibility at every R; m_plus and its density match
    the closed forms."""
    sigma, setting = delta1()
    for R in (2.0, 2.5, 3.0, 4.0, 6.0, 10.0):
        assert not admissible_discrete(sigma, Setting.jacobi(R)).passed, f"R={R}"
    xs = np.linspace(-5.0, 5.0, 10)
    ys = np.linspace(0.1, 3.0, 10)
    m_err = 0.0
    for x in xs:
        for y in ys:
            z = complex(x, y)
            expect = 0.5 * (cmath.sqrt((z - 2) / (z + 2)) - 1.0)
            m_err = max(m_err, abs(m_value(sigma, setting, z, "plus") - expect))
    assert m_err <= 1e-10, f"m_plus closed form off by {m_err}"
    d_err = 0.0
    for x in np.linspace(-1.9, 1.9, 20):
        est = stieltjes_density(sigma, setting, "plus", x)
        expect = math.sqrt((2.0 - x) / (2.0 + x)) / (2.0 * math.pi)
        d_err = max(d_err, abs(est.value - expect))
    assert d_err <= 1e-4, f"density off by {d_err}"
    return f"m err = {m_err:.1e}, density err = {d_err:.1e}"


def criterion_04_exponential_representation():
    """The step-function exponential representation reproduces m_+ + m_-."""
    sigma, setting = delta1()
    xi = [(-2.0, 2.0, 0.5)]
    worst = 0.0
    for x in np.linspace(-4.0, 4.0, 8):
        for y in (0.3, 1.0, 2.5, 5.0, 20.0):
            z = complex(x, y)
            total = m_value(sigma, setting, z, "plus") + m_value(sigma, setting, z, "minus")
            worst = max(worst, abs(herglotz_exp(xi, 1.0, z) - total))
    assert worst <= 1e-8, f"exp representation off by {worst}"
    return f"max deviation = {worst:.1e} over 40 points"


def criterion_05_property_suite():
    """100 random admissible measures: strict a_n > 1, ratio bounds, a_0
    identity, oracle equivalence at N = 40; bounded runtime."""
    t0 = time.time()
    worst_m = 0.0
    min_a = math.inf
    worst_margin = math.inf
    for sigma, setting in _suite_measures(100):
        window = reconstruct(sigma, setting, 40)
        low = min(window.a)
        min_a = min(min_a, low)
        assert low > 1.0, f"a_n > 1 violated: {low}"
        report = prop311_check(window, setting.r)
        assert report.passed, f"ratio bound violated, margin {report.worst_margin}"
        worst_margin = min(worst_margin, report.worst_margin)
        s2 = moment(sigma, -2)
        assert abs(window.a_at(0) ** 2 * (1.0 - s2) - 1.0) <= 1e-12
        for side in ("plus", "minus"):
            approx = m_oracle(window, ZGRID, side)
            exact = np.array([m_value(sigma, setting, z, side) for z in ZGRID])
            worst_m = max(worst_m, float(np.max(np.abs(approx - exact))))
        assert worst_m <= 1e-6, f"oracle equivalence broke: {worst_m}"
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"suite took {elapsed:.1f} s"
    return (
        f"min a = 1 + {min_a - 1:.2e}, worst ratio margin = {worst_margin:.2e}, "
        f"max |m_or - m_val| = {worst_m:.1e}, {elapsed:.1f} s"
    )


def criterion_06_zero_potential():
    """sigma = 0 gives V identically zero on |x| <= 2 at any N >= 4."""
    worst = 0.0
    for N in (4, 8, 16):
        trace = integrate_flow(Measure.zero(), N, 1.0, 2.0)
        worst = max(worst, float(np.max(np.abs(trace.V))))
    assert worst <= 1e-12, f"zero potential off by {worst}"
    return f"max |V| = {worst:.1e} for N in (4, 8, 16)"


def criterion_07_atom_potential():
    """delta_0: exact center value, local Taylor behavior, flow/Riccati match.

    The stated quadratic comparison carries the O(x^4) remainder
    (4/3) x^4 = 8.3e-6 at x = 0.05, so the quadratic check uses 1e-5 while
    the degree-6 Taylor polynomial is held to 1e-8 (see decisions ledger).
    """
    sigma, setting = delta0(1.0)
    trace = integrate_flow(sigma, 40, setting.R, 0.06, step=0.005)
    i0 = int(np.argmin(np.abs(trace.xs)))
    assert trace.V[i0] == -2.0, f"V(0) = {trace.V[i0]}"
    mask = np.abs(trace.xs) <= 0.05 + 1e-12
    xs = trace.xs[mask]
    q_err = float(np.max(np.abs(trace.V[mask] - (-2.0 + 2.0 * xs ** 2))))
    taylor6 = -2.0 + 2.0 * xs ** 2 - (4.0 / 3.0) * xs ** 4 + (34.0 / 45.0) * xs ** 6
    t_err = float(np.max(np.abs(trace.V[mask] - taylor6)))
    assert q_err <= 1e-5, f"quadratic Taylor off by {q_err}"
    assert t_err <= 1e-8, f"degree-6 Taylor off by {t_err}"
    long_trace = integrate_flow(sigma, 40, setting.R, 1.0)
    mismatch, per_w = riccati_mismatch(long_trace, [0.1, 0.1j, -0.15])
    assert mismatch <= 1e-6, f"flow/Riccati mismatch {mismatch}"
    return f"V(0) exact, quad err = {q_err:.1e}, deg-6 err = {t_err:.1e}, riccati = {mismatch:.1e}"


def criterion_08_bounds_and_sign():
    """Along every computed flow: moment envelope, Hankel positivity, V <= 0."""
    rng = np.random.RandomState(7)
    flows = [
        (integrate_flow(Measure.zero(), 12, 1.0, 2.0), 1.0),
        (integrate_flow(Measure.point(0.0, 1.0), 40, 2.0, 1.0), 2.0),
    ]
    for _ in range(3):
        R = float(rng.uniform(1.2, 2.5))
        t = float(rng.uniform(-0.5, 0.5)) * R
        w = float(rng.uniform(0.1, 0.8)) * (R * R - t * t)
        flows.append((integrate_flow(Measure.point(t, w), 40, R, 0.8 / R), R))
    worst_v = -math.inf
    worst_eig = math.inf
    for trace, R in flows:
        N = trace.N_used
        sigmas = trace.moments(N + 1)
        envelope = R ** (np.arange(N + 1) + 2.0) * (1.0 + 1e-9)
        assert np.all(np.abs(sigmas) <= envelope), "moment envelope violated"
        worst_v = max(worst_v, float(np.max(trace.V)))
        assert np.max(trace.V) <= 1e-9, f"sign property violated: {np.max(trace.V)}"
        idx = np.arange(N // 2 + 1)
        tol = -1e-8 * R ** (N + 2)
        for row in sigmas[:: max(1, len(trace.xs) // 16)]:
            H = row[idx[:, None] + idx[None, :]]
            eig = float(np.min(np.linalg.eigvalsh(H)))
            worst_eig = min(worst_eig, eig - tol)
            assert eig >= tol, f"Hankel positivity violated: {eig} < {tol}"
        # stricter certified-depth positivity, away from the closure error
        if N >= 40:
            sub = np.arange(11)
            for row in sigmas[:: max(1, len(trace.xs) // 8)]:
                H = row[sub[:, None] + sub[None, :]]
                assert float(np.min(np.linalg.eigvalsh(H))) >= -1e-8 * R ** 22
    return f"max V = {worst_v:.1e}, Hankel slack = {worst_eig:.1e}, 5 flows"


def criterion_09_binomial_identity():
    """The factorial-ratio convolution identity holds exactly on the grid."""
    count = 0
    for n1 in range(1, 7):
        for n2 in range(1, 9):
            for p in range(0, min(n2, 6) + 1):
                assert binomial_sum_identity(n1, n2, p), f"failed at {(n1, n2, p)}"
                count += 1
    return f"{count} cases, exact integer arithmetic"


def criterion_10_reflectionless_residual():
    """Residual |m_+ + conj m_-| <= 10 eta on 64-point grids for the presets."""
    eta = 1e-4
    details = []
    for name, (sigma, setting) in (
        ("free", free()),
        ("delta1", delta1()),
        ("soliton(0.25)", soliton(0.25)),
        ("delta0(1)", delta0(1.0)),
    ):
        grid = default_residual_grid(setting, 64)
        res = reflectionless_residual(sigma, setting, grid, eta)
        assert res <= 10.0 * eta, f"{name}: residual {res}"
        details.append(f"{name}: {res / eta:.2f} eta")
    return "; ".join(details)


CRITERIA = (
    ("01 free round trip", criterion_01_free_round_trip),
    ("02 soliton family", criterion_02_soliton_family),
    ("03 half-line example", criterion_03_half_line_example),
    ("04 exponential representation", criterion_04_exponential_representation),
    ("05 property suite", criterion_05_property_suite),
    ("06 zero potential", criterion_06_zero_potential),
    ("07 atom potential", criterion_07_atom_potential),
    ("08 bounds and sign", criterion_08_bounds_and_sign),
    ("09 binomial identity", criterion_09_binomial_identity),
    ("10 reflectionless residual", criterion_10_reflectionless_residual),
)


@pytest.mark.parametrize("name,check", CRITERIA, ids=[c[0].replace(" ", "-") for c in CRITERIA])
def test_acceptance(name, check):
    detail = check()
    print(f"criterion {name}: PASS ({detail})")


def main():
    failures = 0
    for name, check in CRITERIA:
        try:
            detail = check()
            print(f"criterion {name}: PASS ({detail})")
        except AssertionError as exc:
            failures += 1
            print(f"criterion {name}: FAIL ({exc})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
