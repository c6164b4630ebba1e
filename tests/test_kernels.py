"""Status reporting of the moment-flow kernel."""

import numpy as np

from reflectionless import _kernels


def test_flow_status_codes():
    s0 = np.array([5.0, 0.0, 0.0, 0.0, 0.0])
    tight = np.full(5, 4.0)  # violated from the start once sigma_1 grows
    states, status, bad, _ = _kernels.flow_integrate(s0, 0.1, 50, tight, 1e6)
    assert status == _kernels.FLOW_BOUND_VIOLATED
    assert bad >= 1

    states, status, bad, worst = _kernels.flow_integrate(
        np.array([3.0, 0.0, 0.0, 0.0, 0.0]), 2.0, 10, np.full(5, 1e12), 1e-9
    )
    assert status == _kernels.FLOW_STEP_TOO_LARGE
