"""Boosted-tree trainer: hand-checked numerics, invariants, serialization."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventureval import gbdt
from ventureval.errors import DataError
from ventureval.gbdt import (
    GbdtConfig, fit, from_json, gain_shares, predict_many, predict_proba_many, to_json,
)

HAND_X = np.array([[1.0], [2.0], [3.0], [4.0]])
HAND_Y = np.array([1, 1, 0, 0])
HAND_CONFIG = GbdtConfig(
    n_rounds=1, max_depth=1, learning_rate=1.0, reg_lambda=1.0, gamma=0.0,
    min_child_weight=0.0,
)


def test_hand_fixture_first_round_leaf_weight():
    # p = 0.5 everywhere, g = +-0.5, h = 0.25; left child (x <= 2):
    # G_L = -1.0, H_L = 0.5 -> weight = 1.0 / 1.5
    model = fit(HAND_X, HAND_Y, HAND_CONFIG)
    root = model.trees[0]
    assert root.feature == 0 and root.threshold == 2.0
    assert abs(root.left.weight - (1.0 / 1.5)) < 1e-9
    assert abs(root.right.weight - (-1.0 / 1.5)) < 1e-9


# The saved hand model, pinned byte for byte: a renamed or missing config key
# changes it.
HAND_MODEL_JSON = (
    '{"base_score": 0.0, "config": {"gamma": 0.0, "learning_rate": 1.0, "max_depth": 1, '
    '"min_child_weight": 0.0, "n_rounds": 1, "reg_lambda": 1.0}, "format_version": 1, '
    '"n_features": 1, "trees": [{"feature": 0, "left": {"weight": 0.6666666666666666}, '
    '"right": {"weight": -0.6666666666666666}, "threshold": 2.0}]}'
)


def test_hand_fixture_serializes_to_the_pinned_json():
    assert to_json(fit(HAND_X, HAND_Y, HAND_CONFIG)) == HAND_MODEL_JSON


def test_hand_fixture_probability_after_one_round():
    model = fit(HAND_X, HAND_Y, HAND_CONFIG)
    (proba,) = predict_proba_many(model, np.array([[1.5]]))
    assert abs(proba - 1.0 / (1.0 + math.exp(-2.0 / 3.0))) < 1e-12
    assert abs(proba - 0.6608) < 1e-3


def test_identical_features_give_prior_only():
    X = np.ones((8, 3))
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0])
    model = fit(X, y, GbdtConfig(n_rounds=5))
    prior = y.mean()
    assert np.all(np.abs(predict_proba_many(model, X) - prior) < 1e-12)


def test_linearly_separable_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 6))
    y = (X[:, 2] > 0.25).astype(float)  # oracle: exact threshold rule
    assert 0 < y.sum() < 200
    model = fit(X, y, GbdtConfig(n_rounds=20, learning_rate=0.5))
    preds = predict_many(model, X)
    assert (preds == y).all()


def test_predict_is_thresholded_proba():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 4))
    y = (X[:, 0] + rng.normal(scale=0.3, size=50) > 0).astype(float)
    model = fit(X, y, GbdtConfig(n_rounds=10))
    grid = rng.normal(size=(25, 4))
    probas = predict_proba_many(model, grid)
    for threshold in (0.5, float(np.median(probas))):
        expected = [1 if p >= threshold else 0 for p in probas]
        assert predict_many(model, grid, threshold=threshold).tolist() == expected


def test_single_class_rejected():
    with pytest.raises(ValueError):
        fit(np.ones((4, 2)), np.ones(4))


def test_no_training_rows_rejected():
    with pytest.raises(ValueError, match="^no training rows$"):
        fit(np.ones((0, 2)), np.ones(0))


@pytest.mark.parametrize("n", [1, 4])
def test_single_class_is_a_data_error(n):
    with pytest.raises(DataError, match="^training labels contain a single class$"):
        fit(np.ones((n, 2)), np.zeros(n))


def test_nan_feature_rejected():
    X = np.ones((4, 2))
    X[1, 0] = float("nan")
    with pytest.raises(ValueError):
        fit(X, np.array([0, 1, 0, 1]))


def test_nan_prediction_input_rejected():
    model = fit(HAND_X, HAND_Y, HAND_CONFIG)
    with pytest.raises(ValueError):
        predict_proba_many(model, np.array([[float("nan")]]))


def test_probabilities_strictly_inside_unit_interval():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 3)) * 10
    y = (X[:, 0] > 0).astype(float)
    model = fit(X, y, GbdtConfig(n_rounds=60, learning_rate=0.3))
    probas = predict_proba_many(model, X)
    assert np.all(probas > 0.0) and np.all(probas < 1.0)


def _tree_structure(node):
    if node.is_leaf:
        return ("leaf",)
    return ("split", node.feature, _tree_structure(node.left), _tree_structure(node.right))


def _model_structure(model):
    return [_tree_structure(t) for t in model.trees]


def test_monotone_transform_leaves_structure_unchanged():
    rng = np.random.default_rng(12)
    n = 80
    # unique values per column so ranks are unambiguous
    X = np.stack([rng.permutation(n).astype(float) for _ in range(3)], axis=1)
    y = (X[:, 0] + 0.5 * X[:, 1] > n * 0.7).astype(float)
    config = GbdtConfig(n_rounds=10)
    base = fit(X, y, config)

    X2 = X.copy()
    X2[:, 1] = np.exp(X2[:, 1] / n * 4.0)  # strictly monotone transform
    transformed = fit(X2, y, config)
    assert _model_structure(base) == _model_structure(transformed)


def test_determinism_and_serialization_round_trip():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(100, 6))
    y = (X[:, 1] - X[:, 4] > 0).astype(float)
    config = GbdtConfig(n_rounds=15)
    a = fit(X, y, config)
    b = fit(X, y, config)
    assert to_json(a) == to_json(b)

    restored = from_json(to_json(a))
    grid = rng.normal(size=(40, 6))
    assert np.allclose(predict_proba_many(a, grid), predict_proba_many(restored, grid))


def test_train_loss_non_increasing_fuzz():
    rng = random.Random(77)
    for _ in range(10):
        np_rng = np.random.default_rng(rng.randrange(10**6))
        n = rng.randrange(30, 120)
        d = rng.randrange(1, 5)
        X = np_rng.normal(size=(n, d))
        logits = X @ np_rng.normal(size=d)
        y = (np_rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
        if y.sum() in (0, n):
            continue
        config = GbdtConfig(
            n_rounds=25, learning_rate=rng.choice([0.05, 0.1, 0.3]), gamma=0.0
        )
        model = fit(X, y, config)
        losses = model.train_loss
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        GbdtConfig(n_rounds=0).validate()
    with pytest.raises(ValueError):
        GbdtConfig(learning_rate=1.5).validate()
    with pytest.raises(ValueError):
        GbdtConfig(reg_lambda=-1.0).validate()


# A model.json as written when the config still carried an unused "seed".
SEEDED_MODEL = (
    '{"base_score": 0.0, "config": {"gamma": 0.0, "learning_rate": 1.0, '
    '"max_depth": 1, "min_child_weight": 0.0, "n_rounds": 1, "reg_lambda": 1.0, '
    '"seed": 1234}, "format_version": 1, "n_features": 1, "trees": [{"feature": 0, '
    '"left": {"weight": 0.6666666666666666}, "right": {"weight": -0.6666666666666666}, '
    '"threshold": 2.0}]}'
)


def test_model_with_a_seed_loads_and_saves_without_it():
    model = from_json(SEEDED_MODEL)
    assert model.config == HAND_CONFIG
    assert predict_many(model, HAND_X).tolist() == HAND_Y.tolist()
    expected = json.loads(SEEDED_MODEL)
    del expected["config"]["seed"]
    assert json.loads(to_json(model)) == expected
    assert to_json(fit(HAND_X, HAND_Y, HAND_CONFIG)) == to_json(model)


def test_model_format_version_checked():
    with pytest.raises(ValueError):
        from_json('{"format_version": 99}')


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("base_score", "nan", "^base_score is not a finite number: 'nan'$"),
        ("threshold", True, r"^trees\[0\]\.threshold is not a finite number: True$"),
        ("feature", 9, r"^trees\[0\]\.feature is not below n_features 1: 9$"),
    ],
)
def test_malformed_model_field_is_named(field, value, message):
    obj = json.loads(HAND_MODEL_JSON)
    if field == "base_score":
        obj["base_score"] = value
    else:
        obj["trees"][0][field] = value
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps(obj))


# ------------------------------------------------------------------ binning


@st.composite
def feature_matrices(draw):
    """Columns with few or many distinct values, heavy ties and signed zeros."""
    n = draw(st.integers(1, 1500))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        levels = draw(st.sampled_from([1, 2, 7, 256, 257, 400, 5000]))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=levels) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
        pool[0] = draw(st.sampled_from([0.0, -0.0]))
        columns.append(rng.choice(pool, size=n))
    return np.column_stack(columns)


@settings(max_examples=120, deadline=None)
@given(feature_matrices())
def test_binning_properties(X):
    codes, thresholds = gbdt._bin_features(X)
    width = thresholds.shape[1]
    assert codes.shape == X.shape and thresholds.shape[0] == X.shape[1]
    for f in range(X.shape[1]):
        column = X[:, f]
        bins = codes[:, f] - f * width
        used = thresholds[f][np.isfinite(thresholds[f])]
        assert 1 <= used.shape[0] <= gbdt.MAX_BINS
        assert set(bins.tolist()) == set(range(used.shape[0]))  # every bin holds rows
        distinct = np.unique(column)
        if distinct.shape[0] <= gbdt.MAX_BINS:
            assert used.tolist() == distinct.tolist()
        assert np.all(used[:-1] < used[1:])
        assert np.isin(used, column).all()
        assert np.all(column <= used[bins])
        assert not np.any(column[bins > 0] <= used[bins[bins > 0] - 1])


def test_many_valued_feature_bins_hold_about_equal_rows():
    X = np.arange(10_000, dtype=np.float64)[:, None]
    codes, thresholds = gbdt._bin_features(X)
    assert thresholds.shape == (1, gbdt.MAX_BINS)
    sizes = np.bincount(codes[:, 0])
    assert sizes.min() >= 39 and sizes.max() <= 40  # 10,000 / 256 = 39.06


# ------------------------------------------------------------ feature gain


def test_hand_fixture_gain_is_the_split_gain():
    # G_L = -1, H_L = 0.5, G_R = 1, H_R = 0.5, G = 0:
    # 0.5 * (1 / 1.5 + 1 / 1.5 - 0) = 2/3
    model = fit(HAND_X, HAND_Y, HAND_CONFIG)
    assert abs(model.feature_gain[0] - 2.0 / 3.0) < 1e-12
    assert gain_shares(model) == [1.0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 5.0]),
)
def test_gain_shares_are_a_distribution(n, d, seed, gamma):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    y = (rng.random(n) < 0.5).astype(np.float64)
    y[0], y[1] = 0.0, 1.0
    model = fit(X, y, GbdtConfig(n_rounds=3, max_depth=2, gamma=gamma, min_child_weight=0.0))
    shares = gain_shares(model)
    assert len(shares) == d and all(share >= 0.0 for share in shares)
    splits = any(not tree.is_leaf for tree in model.trees)
    assert abs(sum(shares) - 1.0) < 1e-12 if splits else shares == [0.0] * d
