"""Gradient-boosted decision trees for binary classification.

Second-order boosting on logistic loss: per round, gradients g = p - y and
hessians h = p(1-p) feed a histogram split search; leaf weights are the
damped Newton step -lr * G / (H + lambda). Splits must clear a positive gain
after the gamma penalty and give each child the minimum hessian mass. Ties
resolve to the lowest feature index, then the lowest threshold.

Each feature is binned once per fit (XGBoost's histogram method, Chen &
Guestrin 2016): one bin per distinct value when it has at most MAX_BINS,
else runs of sorted distinct values, a value with k training rows at or
below it joining group (k - 1) * MAX_BINS // rows. A bin's threshold is its
largest training value. Only the root's and the smaller child's histograms
are built from rows, the larger child's is the parent's minus the smaller's
(LightGBM, Ke et al. 2017). The scan is ventureval._kernels.scan_split.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .config import GbdtConfig
from .errors import DataError
from .features import check_count, check_number
from .ingest import output_file

MODEL_FORMAT_VERSION = 1

MAX_BINS = 256

_PROB_EPS = 1e-15


@dataclass
class TreeNode:
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class GbdtModel:
    base_score: float
    trees: list
    config: GbdtConfig
    n_features: int
    train_loss: list = field(default_factory=list, repr=False)
    feature_gain: list = field(default_factory=list, repr=False)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _clip_proba(p: np.ndarray) -> np.ndarray:
    return np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = _clip_proba(np.asarray(p, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def _leaf_weight(g_sum: float, h_sum: float, cfg: GbdtConfig) -> float:
    return -cfg.learning_rate * g_sum / (h_sum + cfg.reg_lambda)


def _bin_features(X):
    """``(codes, thresholds)``: ``codes[r, f]`` is row ``r``'s bin of feature
    ``f`` plus ``f * MAX_BINS``, so one ``np.bincount`` over ``codes[rows]``
    fills a ``(features, MAX_BINS)`` block; ``thresholds[f, b]`` is bin
    ``b``'s threshold (``inf`` past the last bin)."""
    codes = np.empty(X.shape, dtype=np.intp)
    thresholds = np.full((X.shape[1], MAX_BINS), np.inf)
    for f, column in enumerate(X.T):
        values, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
        if values.shape[0] > MAX_BINS:
            group = (np.cumsum(counts) - 1) * MAX_BINS // X.shape[0]
            ends = np.append(np.flatnonzero(group[:-1] != group[1:]), values.shape[0] - 1)
            values, inverse = values[ends], np.searchsorted(ends, inverse)
        thresholds[f, : values.shape[0]] = values
        codes[:, f] = inverse + f * MAX_BINS
    return codes, thresholds


def _histogram(codes, g, h, rows):
    """Row counts, gradient sums and hessian sums of ``rows`` per (feature,
    bin), each bin summed in row order."""
    cells, d = codes[rows].ravel(), codes.shape[1]
    return tuple(
        np.bincount(cells, weights, d * MAX_BINS).reshape(d, MAX_BINS)
        for weights in (None, np.repeat(g[rows], d), np.repeat(h[rows], d))
    )


def _build_node(tree, rows, hist, depth) -> TreeNode:
    """Grow the subtree over ``rows`` (ascending) with histogram ``hist``,
    None at ``max_depth``. ``tree`` is what all its nodes share: ``(codes,
    thresholds, g, h, cfg, gains, margin_out)``."""
    codes, thresholds, g, h, cfg, gains, margin_out = tree
    gain, index = (
        _kernels.scan_split(*hist, cfg.reg_lambda, cfg.gamma, cfg.min_child_weight)
        if hist else (0.0, -1)
    )
    if not gain > 0.0:
        weight = _leaf_weight(float(g[rows].sum()), float(h[rows].sum()), cfg)
        margin_out[rows] += weight
        return TreeNode(weight=weight)
    feature = index // MAX_BINS
    gains[feature] += gain
    goes_left = codes[rows, feature] <= index
    children = [rows[goes_left], rows[~goes_left]]
    hists = [None, None]
    if depth + 1 < cfg.max_depth:  # the smaller child from rows, the larger by subtraction
        small = 0 if children[0].shape[0] <= children[1].shape[0] else 1
        hists[small] = _histogram(codes, g, h, children[small])
        hists[1 - small] = tuple(p - s for p, s in zip(hist, hists[small]))
    return TreeNode(
        feature=feature,
        threshold=float(thresholds.flat[index]),
        left=_build_node(tree, children[0], hists[0], depth + 1),
        right=_build_node(tree, children[1], hists[1], depth + 1),
    )


def fit(X, y, config: GbdtConfig = GbdtConfig()) -> GbdtModel:
    """Train the additive tree ensemble.

    Requires at least two samples, both classes present (DataError
    otherwise) and fully finite features. The base score is the log-odds of
    the training prior; each round adds one tree fitted to the current
    gradients/hessians. The per-round training log-loss and each feature's
    total split gain are recorded on the returned model.
    """
    config.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError("X and y row counts differ")
    if X.shape[0] == 0:  # one sample is a single class, reported below
        raise ValueError("no training rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("y must be binary 0/1")
    prior = float(y.mean())
    if prior in (0.0, 1.0):
        raise DataError("training labels contain a single class")

    base_score = math.log(prior / (1.0 - prior))
    margin = np.full(X.shape[0], base_score, dtype=np.float64)
    rows = np.arange(X.shape[0])
    codes, thresholds = _bin_features(X)
    gains = [0.0] * X.shape[1]

    trees = []
    losses = []
    for _ in range(config.n_rounds):
        p = _clip_proba(_sigmoid(margin))
        g = p - y
        h = p * (1.0 - p)
        tree_margin = np.zeros(X.shape[0], dtype=np.float64)
        tree = (codes, thresholds, g, h, config, gains, tree_margin)
        trees.append(_build_node(tree, rows, _histogram(codes, g, h, rows), 0))
        margin += tree_margin
        losses.append(log_loss(y, _sigmoid(margin)))

    return GbdtModel(
        base_score=base_score,
        trees=trees,
        config=config,
        n_features=X.shape[1],
        train_loss=losses,
        feature_gain=gains,
    )


def _apply_tree(node: TreeNode, X, idx, out) -> None:
    if node.is_leaf:
        out[idx] = node.weight
        return
    goes_left = X[idx, node.feature] <= node.threshold
    _apply_tree(node.left, X, idx[goes_left], out)
    _apply_tree(node.right, X, idx[~goes_left], out)


def predict_margin(model: GbdtModel, X) -> np.ndarray:
    """Raw additive score (log-odds) for a matrix of feature rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected shape (n, {model.n_features}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    margin = np.full(X.shape[0], model.base_score, dtype=np.float64)
    idx = np.arange(X.shape[0])
    scratch = np.empty(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        _apply_tree(tree, X, idx, scratch)
        margin += scratch
    return margin


def predict_proba_many(model: GbdtModel, X) -> np.ndarray:
    return _clip_proba(_sigmoid(predict_margin(model, X)))


def predict_many(model: GbdtModel, X, threshold: float = 0.5) -> np.ndarray:
    return (predict_proba_many(model, X) >= threshold).astype(np.int64)


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


# The value rule of each GbdtConfig field in a saved model.
_CONFIG_RULES = {
    "n_rounds": check_count,
    "max_depth": check_count,
    "learning_rate": check_number,
    "reg_lambda": check_number,
    "gamma": check_number,
    "min_child_weight": check_number,
}


def _object(name: str, value) -> dict:
    if type(value) is not dict:
        raise ValueError(f"{name} is not an object: {value!r}")
    return value


def _node_from_dict(obj, name: str, n_features: int) -> TreeNode:
    _object(name, obj)
    if "weight" in obj:
        check_number(f"{name}.weight", obj["weight"])
        return TreeNode(weight=float(obj["weight"]))
    feature, threshold = obj.get("feature"), obj.get("threshold")
    check_count(f"{name}.feature", feature)
    if feature >= n_features:
        raise ValueError(f"{name}.feature is not below n_features {n_features}: {feature!r}")
    check_number(f"{name}.threshold", threshold)
    return TreeNode(
        feature=feature,
        threshold=float(threshold),
        left=_node_from_dict(obj.get("left"), f"{name}.left", n_features),
        right=_node_from_dict(obj.get("right"), f"{name}.right", n_features),
    )


def to_json(model: GbdtModel) -> str:
    """Versioned JSON serialization, identical across runs."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "base_score": model.base_score,
        "n_features": model.n_features,
        "config": asdict(model.config),
        "trees": [_node_to_dict(t) for t in model.trees],
    }
    return json.dumps(payload, sort_keys=True)


def from_json(text: str) -> GbdtModel:
    """Inverse of ``to_json``, or ValueError naming the first bad field.

    Numbers must be finite, counts non-negative integers, a split's
    ``feature`` below ``n_features``, and the config must validate. A
    ``config.seed``, which older models carry although training never used
    it, is dropped.
    """
    obj = _object("model", json.loads(text))
    version = obj.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {version!r}")
    check_number("base_score", obj.get("base_score"))
    n_features = obj.get("n_features")
    check_count("n_features", n_features)
    config = _object("config", obj.get("config"))
    unknown = sorted(config.keys() - _CONFIG_RULES.keys() - {"seed"})
    if unknown:
        raise ValueError(f"config has unknown fields: {unknown}")
    for key, rule in _CONFIG_RULES.items():
        rule(f"config.{key}", config.get(key))
    config = GbdtConfig(**{key: config[key] for key in _CONFIG_RULES})
    config.validate()
    trees = obj.get("trees")
    if type(trees) is not list:
        raise ValueError(f"trees is not a list: {trees!r}")
    return GbdtModel(
        base_score=float(obj["base_score"]),
        trees=[_node_from_dict(t, f"trees[{i}]", n_features) for i, t in enumerate(trees)],
        config=config,
        n_features=n_features,
    )


def gain_shares(model: GbdtModel) -> list:
    """Each feature's share of the split gain ``fit`` recorded: non-negative
    and summing to 1, or all 0 when no tree split."""
    total = sum(model.feature_gain)
    return [gain / total if total > 0.0 else 0.0 for gain in model.feature_gain]


def save_model(model: GbdtModel, path) -> None:
    with output_file(path) as fh:
        fh.write(to_json(model))

