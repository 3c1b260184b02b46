"""Classification metrics and the greedy embedding-match text score.

The text score consumes per-token embeddings that the caller supplies; no
encoder or embedding provider lives in this package. Precision averages
each candidate token's best cosine match against the reference, recall
mirrors it, and F1 is their harmonic mean. Zero-valued denominators follow
the usual 0-convention throughout.

NumPy is imported where the text score builds arrays, so the
classification metrics, and with them ``eval-endpoint`` and ``score``,
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    precision: float
    recall: float
    f1_positive: float
    f1_macro: float
    support_positive: int
    support_negative: int

    def format_table(self) -> str:
        rows = [
            ("accuracy", self.accuracy),
            ("precision", self.precision),
            ("recall", self.recall),
            ("f1_positive", self.f1_positive),
            ("f1_macro", self.f1_macro),
        ]
        lines = [f"{name:<12} {value:.4f}" for name, value in rows]
        lines.append(f"{'support':<12} {self.support_positive}+ / {self.support_negative}-")
        return "\n".join(lines)


def confusion(preds, labels) -> ConfusionMatrix:
    """Exact confusion counts for binary predictions."""
    if len(preds) != len(labels):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(labels)} labels")
    if not preds:
        raise ValueError("cannot score an empty set")
    tp = fp = tn = fn = 0
    for p, y in zip(preds, labels):
        if p not in (0, 1) or y not in (0, 1):
            raise ValueError(f"non-binary value in inputs: pred={p!r} label={y!r}")
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def report(cm: ConfusionMatrix) -> ClassificationReport:
    """Accuracy, positive-class P/R/F1 and macro-F1 from a confusion matrix."""
    if cm.total <= 0:
        raise ValueError("confusion matrix is empty")
    precision = _safe_div(cm.tp, cm.tp + cm.fp)
    recall = _safe_div(cm.tp, cm.tp + cm.fn)
    f1_pos = _safe_div(2 * precision * recall, precision + recall)
    neg_precision = _safe_div(cm.tn, cm.tn + cm.fn)
    neg_recall = _safe_div(cm.tn, cm.tn + cm.fp)
    f1_neg = _safe_div(2 * neg_precision * neg_recall, neg_precision + neg_recall)
    return ClassificationReport(
        accuracy=(cm.tp + cm.tn) / cm.total,
        precision=precision,
        recall=recall,
        f1_positive=f1_pos,
        f1_macro=(f1_pos + f1_neg) / 2,
        support_positive=cm.tp + cm.fn,
        support_negative=cm.tn + cm.fp,
    )


@dataclass
class TokenEmbeddings:
    """Ordered tokens with one embedding row per token, plus optional idf."""

    tokens: list
    vectors: np.ndarray
    idf: Optional[np.ndarray] = None

    def validate(self) -> None:
        import numpy as np

        if not self.tokens:
            raise ValueError("token list is empty")
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(self.tokens):
            raise ValueError(
                f"vector matrix {vectors.shape} does not match {len(self.tokens)} tokens"
            )
        if not np.all(np.isfinite(vectors)):
            raise ValueError("embedding matrix contains non-finite values")
        if self.idf is not None and len(self.idf) != len(self.tokens):
            raise ValueError("idf weights do not match token count")


@dataclass(frozen=True)
class TextScore:
    precision: float
    recall: float
    f1: float
    idf_used: bool


def _normalized(emb: TokenEmbeddings) -> np.ndarray:
    import numpy as np

    matrix = np.asarray(emb.vectors, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding vector")
    return matrix / norms[:, None]


def _weighted_mean(values: np.ndarray, weights: Optional[np.ndarray]) -> float:
    import numpy as np

    if weights is None:
        return float(values.mean())
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        return float(values.mean())
    return float((values * weights).sum() / total)


def greedy_match_score(candidate: TokenEmbeddings, reference: TokenEmbeddings) -> TextScore:
    """Greedy best-match similarity between two embedded token sequences.

    ``S[i, j]`` is the cosine similarity of candidate token i and reference
    token j. Precision averages row maxima (idf-weighted when the candidate
    carries weights), recall averages column maxima (reference weights),
    and f1 = 2PR/(P+R) with 0 when P+R = 0.
    """
    candidate.validate()
    reference.validate()
    cand = _normalized(candidate)
    ref = _normalized(reference)
    if cand.shape[1] != ref.shape[1]:
        raise ValueError(
            f"embedding dimension mismatch: {cand.shape[1]} vs {ref.shape[1]}"
        )
    similarity = cand @ ref.T
    precision = _weighted_mean(similarity.max(axis=1), candidate.idf)
    recall = _weighted_mean(similarity.max(axis=0), reference.idf)
    f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) > 0 else 0.0
    return TextScore(
        precision=precision,
        recall=recall,
        f1=f1,
        idf_used=candidate.idf is not None or reference.idf is not None,
    )


@dataclass(frozen=True)
class IdfTable:
    """Add-one-smoothed inverse document frequencies over a reference corpus."""

    weights: dict
    n_docs: int

    def weight(self, token: str) -> float:
        # Unseen tokens take the df=0 smoothed value.
        return self.weights.get(token, math.log(self.n_docs + 1))


def idf_table(reference_token_lists) -> IdfTable:
    n_docs = len(reference_token_lists)
    df: dict = {}
    for tokens in reference_token_lists:
        for token in set(tokens):
            df[token] = df.get(token, 0) + 1
    weights = {
        token: math.log((n_docs + 1) / (count + 1)) for token, count in df.items()
    }
    return IdfTable(weights=weights, n_docs=n_docs)


def apply_idf(emb: TokenEmbeddings, table: IdfTable) -> TokenEmbeddings:
    """Attach idf weights to an embedding set."""
    import numpy as np

    weights = np.array([table.weight(t) for t in emb.tokens], dtype=np.float64)
    return TokenEmbeddings(tokens=emb.tokens, vectors=emb.vectors, idf=weights)

