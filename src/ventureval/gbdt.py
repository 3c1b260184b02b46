"""Gradient-boosted decision trees for binary classification.

Second-order boosting on logistic loss: per round, gradients g = p - y and
hessians h = p(1-p) feed an exact greedy split search over sorted unique
feature values; leaf weights are the damped Newton step -lr * G / (H + lambda).
Splits must clear a positive gain after the gamma penalty and respect the
minimum child hessian mass. Everything is deterministic: ties resolve to the
lowest feature index, then the lowest threshold.

The search works on presorted columns (the exact greedy method of XGBoost,
Chen & Guestrin 2016): each feature is stable-argsorted once per fit, and
every node carries its rows in (value, row) order per feature. A split
hands each child a stable partition of those orders, so no node sorts.
The split scan itself is ventureval._kernels.scan_split.
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
from .ingest import output_file

MODEL_FORMAT_VERSION = 1

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


def _best_split(columns, g, h, sorted_rows, cfg):
    """Scan all features for the highest-gain split of this node's rows.

    ``sorted_rows[f]`` holds the node's rows in (value, row) order of
    feature ``f``. Returns ``(feature, threshold)`` or None. Strictly-greater
    comparisons keep the lowest feature index / lowest threshold on ties.
    """
    best_gain = 0.0
    best = None
    for feature, (column, order) in enumerate(zip(columns, sorted_rows)):
        sorted_values = column[order]
        gain, cut = _kernels.scan_split(
            sorted_values,
            g[order],
            h[order],
            cfg.reg_lambda,
            cfg.gamma,
            cfg.min_child_weight,
        )
        if cut >= 0 and gain > best_gain:
            best_gain = gain
            best = (feature, float(sorted_values[cut]))
    return best


def _build_node(columns, g, h, rows, sorted_rows, depth, cfg, margin_out) -> TreeNode:
    """Grow the subtree over ``rows`` (ascending).

    Children inherit stable partitions of the parent's per-feature orders,
    so no node re-sorts. Children at ``max_depth`` never scan and get none.
    """
    split = _best_split(columns, g, h, sorted_rows, cfg) if depth < cfg.max_depth else None
    if split is None:
        weight = _leaf_weight(float(g[rows].sum()), float(h[rows].sum()), cfg)
        margin_out[rows] += weight
        return TreeNode(weight=weight)
    feature, threshold = split
    goes_left = columns[feature][rows] <= threshold
    left_sorted, right_sorted = [], []
    if depth + 1 < cfg.max_depth:
        for order in sorted_rows:
            mask = columns[feature][order] <= threshold
            left_sorted.append(order[mask])
            right_sorted.append(order[~mask])
    left = _build_node(
        columns, g, h, rows[goes_left], left_sorted, depth + 1, cfg, margin_out
    )
    right = _build_node(
        columns, g, h, rows[~goes_left], right_sorted, depth + 1, cfg, margin_out
    )
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def fit(X, y, config: GbdtConfig = GbdtConfig()) -> GbdtModel:
    """Train the additive tree ensemble.

    Requires at least two samples, both classes present (DataError
    otherwise) and fully finite features. The base score is the log-odds of
    the training prior; each round adds one tree fitted to the current
    gradients/hessians. The per-round training log-loss is recorded on the
    returned model.
    """
    config.validate()
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
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
    columns = [np.ascontiguousarray(X[:, f]) for f in range(X.shape[1])]
    sorted_rows = [np.argsort(column, kind="stable") for column in columns]

    trees = []
    losses = []
    for _ in range(config.n_rounds):
        p = _clip_proba(_sigmoid(margin))
        g = p - y
        h = p * (1.0 - p)
        tree_margin = np.zeros(X.shape[0], dtype=np.float64)
        trees.append(_build_node(columns, g, h, rows, sorted_rows, 0, config, tree_margin))
        margin += tree_margin
        losses.append(log_loss(y, _sigmoid(margin)))

    return GbdtModel(
        base_score=base_score,
        trees=trees,
        config=config,
        n_features=X.shape[1],
        train_loss=losses,
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


def _node_from_dict(obj: dict) -> TreeNode:
    if "weight" in obj:
        return TreeNode(weight=float(obj["weight"]))
    return TreeNode(
        feature=int(obj["feature"]),
        threshold=float(obj["threshold"]),
        left=_node_from_dict(obj["left"]),
        right=_node_from_dict(obj["right"]),
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
    """Inverse of ``to_json``. A ``config.seed``, which older models carry
    although training never used it, is dropped."""
    obj = json.loads(text)
    if obj.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {obj.get('format_version')!r}")
    config = {k: v for k, v in obj["config"].items() if k != "seed"}
    return GbdtModel(
        base_score=float(obj["base_score"]),
        trees=[_node_from_dict(t) for t in obj["trees"]],
        config=GbdtConfig(**config),
        n_features=int(obj["n_features"]),
    )


def save_model(model: GbdtModel, path) -> None:
    with output_file(path) as fh:
        fh.write(to_json(model))

