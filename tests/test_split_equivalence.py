"""The histogram trainer against a plain-loop histogram trainer.

The reference below bins with Python sorting and counting, builds each
node's histogram by adding one row at a time in row order, gives the larger
child the parent's histogram minus the smaller child's, and scans with
running sums and the same gain expression, in NumPy float64 scalars so that
division by zero behaves as in the vectorised scan. Its arithmetic runs in
the same order as gbdt.fit's, so the models must be byte-identical.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ventureval import _kernels, gbdt


def reference_bins(column):
    """Per-row bin and per-bin threshold of one feature, by the binning rule."""
    n = len(column)
    counts = {}
    for value in column.tolist():
        counts[value] = counts.get(value, 0) + 1
    values = sorted(counts)
    if len(values) <= gbdt.MAX_BINS:
        groups = list(range(len(values)))
    else:
        groups, below = [], 0
        for value in values:
            below += counts[value]
            groups.append((below - 1) * gbdt.MAX_BINS // n)
    thresholds, bin_of = [], {}
    for i, value in enumerate(values):
        if i > 0 and groups[i] != groups[i - 1]:
            thresholds.append(values[i - 1])
        bin_of[value] = len(thresholds)
    thresholds.append(values[-1])
    return [bin_of[value] for value in column.tolist()], thresholds


def reference_histogram(codes, g, h, rows, widths):
    hist = [([0] * w, [0.0] * w, [0.0] * w) for w in widths]
    for r in rows:
        for f, (count, grad, hess) in enumerate(hist):
            b = codes[f][r]
            count[b] += 1
            grad[b] += g[r]
            hess[b] += h[r]
    return hist


def reference_subtract(parent, child):
    return [
        tuple([p - c for p, c in zip(ps, cs)] for ps, cs in zip(pf, cf))
        for pf, cf in zip(parent, child)
    ]


def reference_scan(hist, cfg):
    """First maximum in (feature, bin) order, a NaN gain counting as one."""
    lam = np.float64(cfg.reg_lambda)
    best = None
    for f, (count, grad, hess) in enumerate(hist):
        n = sum(count)
        g_total = h_total = np.float64(0.0)
        for gb, hb in zip(grad, hess):
            g_total += gb
            h_total += hb
        seen, gl, hl = 0, np.float64(0.0), np.float64(0.0)
        for b in range(len(count)):
            seen += count[b]
            gl += grad[b]
            hl += hess[b]
            gr, hr = g_total - gl, h_total - hl
            if not (count[b] > 0 and seen < n
                    and hl >= cfg.min_child_weight and hr >= cfg.min_child_weight):
                continue
            parent = (g_total * g_total) / (h_total + lam)
            gain = (
                0.5 * ((gl * gl) / (hl + lam) + (gr * gr) / (hr + lam) - parent) - cfg.gamma
            )
            if best is None or (math.isnan(gain) and not math.isnan(best[0])) or gain > best[0]:
                best = (gain, f, b)
    return best


def reference_build_node(tree, rows, hist, depth):
    X, codes, thresholds, g, h, cfg, gains, margin_out = tree
    split = reference_scan(hist, cfg) if hist is not None else None
    if split is None or not split[0] > 0.0:
        weight = gbdt._leaf_weight(float(g[rows].sum()), float(h[rows].sum()), cfg)
        margin_out[rows] += weight
        return gbdt.TreeNode(weight=weight)
    gain, feature, b = split
    gains[feature] += float(gain)
    threshold = thresholds[feature][b]
    left = [r for r in rows if X[r, feature] <= threshold]
    right = [r for r in rows if not X[r, feature] <= threshold]
    left_hist = right_hist = None
    if depth + 1 < cfg.max_depth:
        widths = [len(t) for t in thresholds]
        if len(left) <= len(right):
            left_hist = reference_histogram(codes, g, h, left, widths)
            right_hist = reference_subtract(hist, left_hist)
        else:
            right_hist = reference_histogram(codes, g, h, right, widths)
            left_hist = reference_subtract(hist, right_hist)
    return gbdt.TreeNode(
        feature=feature,
        threshold=float(threshold),
        left=reference_build_node(tree, np.array(left, dtype=np.intp), left_hist, depth + 1),
        right=reference_build_node(tree, np.array(right, dtype=np.intp), right_hist, depth + 1),
    )


def reference_fit(X, y, config):
    """gbdt.fit's boosting loop around the reference tree builder."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    prior = float(y.mean())
    base_score = math.log(prior / (1.0 - prior))
    margin = np.full(X.shape[0], base_score, dtype=np.float64)
    rows = np.arange(X.shape[0])
    codes, thresholds = zip(*(reference_bins(X[:, f]) for f in range(X.shape[1])))
    widths = [len(t) for t in thresholds]
    gains = [0.0] * X.shape[1]
    trees = []
    losses = []
    for _ in range(config.n_rounds):
        p = gbdt._clip_proba(gbdt._sigmoid(margin))
        g = p - y
        h = p * (1.0 - p)
        tree_margin = np.zeros(X.shape[0], dtype=np.float64)
        tree = (X, codes, thresholds, g, h, config, gains, tree_margin)
        hist = reference_histogram(codes, g, h, rows, widths)
        trees.append(reference_build_node(tree, rows, hist, 0))
        margin += tree_margin
        losses.append(gbdt.log_loss(y, gbdt._sigmoid(margin)))
    return gbdt.GbdtModel(
        base_score=base_score,
        trees=trees,
        config=config,
        n_features=X.shape[1],
        train_loss=losses,
        feature_gain=gains,
    )


def assert_same_model(got, want):
    assert gbdt.to_json(got) == gbdt.to_json(want)
    assert got.train_loss == want.train_loss
    assert got.feature_gain == want.feature_gain


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
def test_histogram_fit_matches_plain_loop_trainer(problem):
    X, y, config = problem
    assert_same_model(gbdt.fit(X, y, config), reference_fit(X, y, config))


def test_histogram_fit_matches_on_continuous_and_tied_columns():
    # 700 rows: the normal and exponential columns exceed MAX_BINS distinct
    # values and are grouped; the integer columns get one bin per value.
    rng = np.random.default_rng(5)
    n = 700
    X = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, 3, size=n),
        rng.integers(0, 13, size=n),
        np.round(rng.exponential(size=n), 3),
    ])
    y = (X[:, 0] + 0.3 * X[:, 1] - 0.1 * X[:, 2] + rng.normal(size=n) > 0).astype(float)
    for depth in (1, 4, 6):
        config = gbdt.GbdtConfig(n_rounds=6, max_depth=depth)
        assert_same_model(gbdt.fit(X, y, config), reference_fit(X, y, config))


def test_fit_calls_the_scan_through_the_module_attribute(monkeypatch):
    calls = []
    scan_split = _kernels.scan_split

    def counting_scan(*args):
        calls.append(len(args[0]))
        return scan_split(*args)

    monkeypatch.setattr(gbdt._kernels, "scan_split", counting_scan)
    X = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]])
    gbdt.fit(X, np.array([1, 1, 0, 0]), gbdt.GbdtConfig(n_rounds=1, max_depth=1))
    # one scan of the root's (features, bins) block; its children are leaves
    assert calls == [2]
