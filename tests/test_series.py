import numpy as np
import pytest

from reflectionless.series import _conv


def brute_convolution(a_coeffs, b_coeffs):
    """Independent oracle: exact double-loop product of two polynomials."""
    out = {}
    for i, ai in enumerate(a_coeffs):
        for j, bj in enumerate(b_coeffs):
            out[i + j] = out.get(i + j, 0.0) + ai * bj
    return out


class TestConv:
    @pytest.mark.parametrize("len_a, len_b", [(9, 3), (3, 9), (6, 6), (12, 14), (2, 3), (0, 5), (5, 0)])
    def test_against_brute_force(self, len_a, len_b):
        n = 6
        rng = np.random.RandomState(len_a * 17 + len_b)
        a = rng.randint(-5, 6, size=len_a).astype(float)
        b = rng.randint(-5, 6, size=len_b).astype(float)
        out = _conv(a, b, n)
        expect = brute_convolution(a, b)
        assert len(out) == n
        assert all(out[e] == expect.get(e, 0.0) for e in range(n))
