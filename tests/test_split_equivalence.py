"""The presorted split search against the per-node-argsort search it replaced.

The references below are the trainer's previous split search, kept verbatim:
every node argsorts each feature of its rows, and the NumPy scan evaluates
the gain formula at every row before masking inadmissible cuts. The current
trainer must produce byte-identical models, and the current fallback scan
the same ``(gain, cut)``, on tie-heavy inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventureval import gbdt
from ventureval._kernels import fallback


def reference_scan_split(values, grad, hess, reg_lambda, gamma, min_child_weight):
    n = values.shape[0]
    if n < 2:
        return float("-inf"), -1
    gcum = np.cumsum(grad)
    hcum = np.cumsum(hess)
    g_total = gcum[-1]
    h_total = hcum[-1]

    gl = gcum[:-1]
    hl = hcum[:-1]
    gr = g_total - gl
    hr = h_total - hl

    boundary = values[:-1] != values[1:]
    valid = boundary & (hl >= min_child_weight) & (hr >= min_child_weight)
    if not valid.any():
        return float("-inf"), -1

    parent = (g_total * g_total) / (h_total + reg_lambda)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = (
            0.5 * ((gl * gl) / (hl + reg_lambda) + (gr * gr) / (hr + reg_lambda) - parent)
            - gamma
        )
    gains = np.where(valid, gains, float("-inf"))
    cut = int(np.argmax(gains))
    return float(gains[cut]), cut


def reference_best_split(X, g, h, rows, cfg):
    best_gain = 0.0
    best = None
    for feature in range(X.shape[1]):
        values = X[rows, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = np.ascontiguousarray(values[order])
        sorted_g = np.ascontiguousarray(g[rows][order])
        sorted_h = np.ascontiguousarray(h[rows][order])
        gain, cut = reference_scan_split(
            sorted_values,
            sorted_g,
            sorted_h,
            cfg.reg_lambda,
            cfg.gamma,
            cfg.min_child_weight,
        )
        if cut >= 0 and gain > best_gain:
            best_gain = gain
            best = (gain, feature, float(sorted_values[cut]))
    return best


def reference_build_node(X, g, h, rows, depth, cfg, margin_out):
    split = reference_best_split(X, g, h, rows, cfg) if depth < cfg.max_depth else None
    if split is None:
        weight = gbdt._leaf_weight(float(g[rows].sum()), float(h[rows].sum()), cfg)
        margin_out[rows] += weight
        return gbdt.TreeNode(weight=weight)
    _, feature, threshold = split
    goes_left = X[rows, feature] <= threshold
    left = reference_build_node(X, g, h, rows[goes_left], depth + 1, cfg, margin_out)
    right = reference_build_node(X, g, h, rows[~goes_left], depth + 1, cfg, margin_out)
    return gbdt.TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def reference_fit(X, y, config):
    """gbdt.fit's boosting loop around the reference tree builder."""
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    prior = float(y.mean())
    base_score = math.log(prior / (1.0 - prior))
    margin = np.full(X.shape[0], base_score, dtype=np.float64)
    rows = np.arange(X.shape[0])
    trees = []
    losses = []
    for _ in range(config.n_rounds):
        p = gbdt._clip_proba(gbdt._sigmoid(margin))
        g = p - y
        h = p * (1.0 - p)
        tree_margin = np.zeros(X.shape[0], dtype=np.float64)
        trees.append(reference_build_node(X, g, h, rows, 0, config, tree_margin))
        margin += tree_margin
        losses.append(gbdt.log_loss(y, gbdt._sigmoid(margin)))
    return gbdt.GbdtModel(
        base_score=base_score,
        trees=trees,
        config=config,
        n_features=X.shape[1],
        train_loss=losses,
    )


@st.composite
def training_problems(draw):
    """Small integer-valued matrices with few levels, so ties are everywhere."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=n * d, max_size=n * d))
    X = np.array(cells, dtype=np.float64).reshape(n, d)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[0], labels[1] = 0, 1  # both classes present
    config = gbdt.GbdtConfig(
        n_rounds=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 5)),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        reg_lambda=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        gamma=draw(st.sampled_from([0.0, 0.01, 0.5])),
        min_child_weight=draw(st.sampled_from([0.0, 0.1, 1.0])),
    )
    return X, np.array(labels, dtype=np.float64), config


@settings(max_examples=150, deadline=None)
@given(training_problems())
def test_presorted_fit_matches_per_node_argsort(problem):
    X, y, config = problem
    got = gbdt.fit(X, y, config)
    want = reference_fit(X, y, config)
    assert gbdt.to_json(got) == gbdt.to_json(want)
    assert got.train_loss == want.train_loss


def test_presorted_fit_matches_on_continuous_and_tied_columns():
    rng = np.random.default_rng(5)
    X = np.column_stack([
        rng.normal(size=400),
        rng.integers(0, 3, size=400),
        rng.integers(0, 13, size=400),
        np.round(rng.exponential(size=400), 1),
    ])
    y = (X[:, 0] + 0.3 * X[:, 1] - 0.1 * X[:, 2] + rng.normal(size=400) > 0).astype(float)
    for depth in (1, 4, 6):
        config = gbdt.GbdtConfig(n_rounds=8, max_depth=depth)
        got = gbdt.fit(X, y, config)
        want = reference_fit(X, y, config)
        assert gbdt.to_json(got) == gbdt.to_json(want)
        assert got.train_loss == want.train_loss


def _same_scan_result(got, want):
    assert got[1] == want[1]
    assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


@st.composite
def scan_cases(draw):
    n = draw(st.integers(0, 40))
    levels = draw(st.integers(1, 8))
    values = np.sort(np.array(
        draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)), dtype=np.float64
    ))
    # Few distinct gradients/hessians make equal gains (ties) common; zero
    # hessians with lambda = 0 reach 0/0 and x/0 gains.
    grad = np.array(
        draw(st.lists(st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5]), min_size=n, max_size=n))
    )
    hess = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.1875, 0.25]), min_size=n, max_size=n))
    )
    params = (
        draw(st.sampled_from([0.0, 0.5, 1.0])),
        draw(st.sampled_from([0.0, 0.1, 1.0])),
        draw(st.sampled_from([0.0, 0.25, 1.0])),
    )
    return values, grad, hess, params


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference divides by 0
@settings(max_examples=400, deadline=None)
@given(scan_cases())
def test_cut_only_scan_matches_full_scan(case):
    values, grad, hess, params = case
    _same_scan_result(
        fallback.scan_split(values, grad, hess, *params),
        reference_scan_split(values, grad, hess, *params),
    )


def test_cut_only_scan_matches_full_scan_fuzzed():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        n = int(rng.integers(2, 80))
        values = np.sort(rng.choice(rng.normal(size=int(rng.integers(1, n + 1))), size=n))
        p = rng.uniform(0.02, 0.98, size=n)
        grad = p - (rng.random(n) < 0.5)
        hess = p * (1 - p)
        params = (
            float(rng.choice([0.0, 0.5, 1.0, 3.0])),
            float(rng.choice([0.0, 0.1, 1.0])),
            float(rng.choice([0.0, 0.25, 1.0])),
        )
        _same_scan_result(
            fallback.scan_split(values, grad, hess, *params),
            reference_scan_split(values, grad, hess, *params),
        )


def test_fit_calls_the_scan_through_the_module_attribute(monkeypatch):
    calls = []

    def counting_scan(*args):
        calls.append(len(args[0]))
        return fallback.scan_split(*args)

    monkeypatch.setattr(gbdt._kernels, "scan_split", counting_scan)
    X = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]])
    gbdt.fit(X, np.array([1, 1, 0, 0]), gbdt.GbdtConfig(n_rounds=1, max_depth=1))
    assert calls == [4, 4]
