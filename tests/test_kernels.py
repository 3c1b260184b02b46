"""The block split scan against a brute-force loop over every (feature, bin),
and on hand-made histograms: no admissible cut, the minimum child hessian
filter, the gamma penalty, absent bins and the tie order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventureval import _kernels


def brute_force_scan(counts, grad, hess, reg_lambda, gamma, min_child_weight):
    """Every (feature, bin) cut in turn, with sums taken afresh for each."""
    best_gain, best_index = float("-inf"), -1
    features, bins = counts.shape
    for f in range(features):
        n = int(counts[f].sum())
        g_total = np.float64(0.0)
        h_total = np.float64(0.0)
        for b in range(bins):
            g_total += grad[f, b]
            h_total += hess[f, b]
        for b in range(bins):
            gl = hl = np.float64(0.0)
            for k in range(b + 1):
                gl += grad[f, k]
                hl += hess[f, k]
            gr, hr = g_total - gl, h_total - hl
            left_rows = int(counts[f, : b + 1].sum())
            if not (counts[f, b] > 0 and left_rows < n
                    and hl >= min_child_weight and hr >= min_child_weight):
                continue
            parent = (g_total * g_total) / (h_total + reg_lambda)
            gain = float(
                0.5 * ((gl * gl) / (hl + reg_lambda) + (gr * gr) / (hr + reg_lambda) - parent)
                - gamma
            )
            first_nan = math.isnan(gain) and not math.isnan(best_gain)
            if best_index < 0 or first_nan or gain > best_gain:
                best_gain, best_index = gain, f * bins + b
    return best_gain, best_index


def block(*features):
    """A (features, bins) histogram from per-feature (count, grad, hess) lists."""
    counts, grad, hess = (np.array([f[i] for f in features], dtype=float) for i in range(3))
    return counts.astype(np.intp), grad, hess


def same_result(got, want):
    assert got[1] == want[1]
    assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


# Four rows, one per bin: g = -0.5, -0.5, 0.5, 0.5 and h = 0.25 each.
FOUR_ROWS = ([1, 1, 1, 1], [-0.5, -0.5, 0.5, 0.5], [0.25] * 4)


def test_scan_split_no_candidates():
    # one occupied bin: the only cut would leave the right child empty
    counts, grad, hess = block(([0, 3, 0], [0.0, 0.2, 0.0], [0.0, 0.6, 0.0]))
    assert _kernels.scan_split(counts, grad, hess, 1.0, 0.0, 0.0) == (float("-inf"), -1)


def test_scan_split_min_child_weight_filters():
    # each child must carry >= 0.5 hessian mass: only the middle cut survives
    hist = block(FOUR_ROWS)
    gain, index = _kernels.scan_split(*hist, 1.0, 0.0, 0.5)
    assert index == 1
    assert _kernels.scan_split(*hist, 1.0, 0.0, 10.0) == (float("-inf"), -1)


def test_gamma_penalty_shifts_gain():
    hist = block(FOUR_ROWS)
    g0, i0 = _kernels.scan_split(*hist, 1.0, 0.0, 0.0)
    g1, i1 = _kernels.scan_split(*hist, 1.0, 0.25, 0.0)
    assert i0 == i1 == 1
    assert abs((g0 - g1) - 0.25) < 1e-12
    # G_L = -1, H_L = 0.5 on both sides of the cut, G = 0
    assert abs(g0 - 0.5 * (2 * 1.0 / 1.5)) < 1e-12


def test_absent_bins_are_never_cuts():
    # With lambda = 0 the empty leading bin's gain is 0/0 (NaN), which would
    # win as a maximum; the empty bin 2 ties bin 1, and bin 3 leaves the
    # right child empty. Feature 1 has fewer bins than the block is wide.
    counts, grad, hess = block(
        ([0, 1, 0, 1], [0.0, -0.5, 0.0, 0.5], [0.0, 0.25, 0.0, 0.25]),
        ([1, 1, 0, 0], [0.5, -0.5, 0.0, 0.0], [0.25, 0.25, 0.0, 0.0]),
    )
    assert _kernels.scan_split(counts, grad, hess, 0.0, 0.0, 0.0) == (1.0, 1)


def test_ties_go_to_the_lowest_feature_then_the_lowest_bin():
    # both features split the same rows the same way, at bins 1 and 3 of 5
    same = ([1, 1, 0, 1, 1], [-0.5, -0.5, 0.0, 0.5, 0.5], [0.25, 0.25, 0.0, 0.25, 0.25])
    _, index = _kernels.scan_split(*block(same, same), 1.0, 0.0, 0.0)
    assert index == 1
    # a mirror-image feature: the cuts at bins 0 and 2 have equal gains
    mirror = ([1, 1, 1, 1], [-0.5, 0.5, 0.5, -0.5], [0.25] * 4)
    gain, index = _kernels.scan_split(*block(mirror), 1.0, 0.0, 0.0)
    assert index == 0
    assert gain == 0.5 * (0.25 / 1.25 + 0.25 / 1.75) == 0.5 * (0.25 / 1.75 + 0.25 / 1.25)


@st.composite
def histograms(draw):
    features = draw(st.integers(1, 4))
    bins = draw(st.integers(1, 8))
    size = features * bins
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
    # Few distinct gradients/hessians make equal gains (ties) common; zero
    # hessians with lambda = 0 reach 0/0 and x/0 gains.
    grad = np.array(
        draw(st.lists(st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5]), min_size=size, max_size=size))
    )
    hess = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.1875, 0.25]), min_size=size, max_size=size))
    )
    shape = (features, bins)
    params = (
        draw(st.sampled_from([0.0, 0.5, 1.0])),
        draw(st.sampled_from([0.0, 0.1, 1.0])),
        draw(st.sampled_from([0.0, 0.25, 1.0])),
    )
    return (counts.reshape(shape), grad.reshape(shape), hess.reshape(shape)), params


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference divides by 0
@settings(max_examples=400, deadline=None)
@given(histograms())
def test_block_scan_matches_brute_force(case):
    hist, params = case
    same_result(_kernels.scan_split(*hist, *params), brute_force_scan(*hist, *params))


def test_block_scan_matches_brute_force_fuzzed():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 40)))
        counts = rng.integers(0, 4, size=shape) * (rng.random(shape) < 0.7)
        p = rng.uniform(0.02, 0.98, size=shape)
        grad = (p - (rng.random(shape) < 0.5)) * counts
        hess = p * (1 - p) * counts
        params = (
            float(rng.choice([0.0, 0.5, 1.0, 3.0])),
            float(rng.choice([0.0, 0.1, 1.0])),
            float(rng.choice([0.0, 0.25, 1.0])),
        )
        same_result(
            _kernels.scan_split(counts, grad, hess, *params),
            brute_force_scan(counts, grad, hess, *params),
        )
