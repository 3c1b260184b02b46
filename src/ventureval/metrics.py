"""Binary classification metrics.

The module imports nothing outside the standard library: ``eval-endpoint``
and ``score`` load it, and they never load NumPy.
"""

from dataclasses import dataclass


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
