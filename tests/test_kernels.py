"""The split scan on hand-made nodes: no candidate cut, the minimum child
hessian filter, and the gamma penalty."""

import numpy as np

from ventureval import _kernels


def test_scan_split_no_candidates():
    values = np.array([2.0, 2.0, 2.0])
    grad = np.array([0.1, -0.2, 0.3])
    hess = np.array([0.2, 0.2, 0.2])
    gain, cut = _kernels.scan_split(values, grad, hess, 1.0, 0.0, 0.0)
    assert cut == -1 and gain == float("-inf")


def test_scan_split_min_child_weight_filters():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    grad = np.array([-0.5, -0.5, 0.5, 0.5])
    hess = np.array([0.25, 0.25, 0.25, 0.25])
    # each child must carry >= 0.5 hessian mass: only the middle cut survives
    gain, cut = _kernels.scan_split(values, grad, hess, 1.0, 0.0, 0.5)
    assert cut == 1
    gain_all, cut_all = _kernels.scan_split(values, grad, hess, 1.0, 0.0, 10.0)
    assert cut_all == -1 and gain_all == float("-inf")


def test_gamma_penalty_shifts_gain():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    grad = np.array([-0.5, -0.5, 0.5, 0.5])
    hess = np.array([0.25, 0.25, 0.25, 0.25])
    g0, _ = _kernels.scan_split(values, grad, hess, 1.0, 0.0, 0.0)
    g1, _ = _kernels.scan_split(values, grad, hess, 1.0, 0.25, 0.0)
    assert abs((g0 - g1) - 0.25) < 1e-12
