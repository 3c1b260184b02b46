"""Classification metrics."""

import random

import pytest

from ventureval.metrics import confusion, report


def test_confusion_hand_fixture():
    cm = confusion([1, 1, 1, 0], [1, 0, 1, 1])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 0)
    r = report(cm)
    assert r.precision == pytest.approx(2 / 3, abs=1e-15)
    assert r.recall == pytest.approx(2 / 3, abs=1e-15)
    assert r.f1_positive == pytest.approx(2 / 3, abs=1e-15)
    assert r.accuracy == 0.5


def test_confusion_perfect_and_inverted():
    assert confusion([1, 0, 1], [1, 0, 1]).fp == 0
    assert confusion([1, 0, 1], [1, 0, 1]).fn == 0
    inverted = confusion([1, 0], [0, 1])
    assert inverted.tp == 0 and inverted.tn == 0


def test_report_perfect():
    r = report(confusion([1, 0, 1, 0], [1, 0, 1, 0]))
    assert (r.accuracy, r.precision, r.recall, r.f1_positive, r.f1_macro) == (
        1.0, 1.0, 1.0, 1.0, 1.0,
    )


def test_report_degenerate_all_true_negatives():
    r = report(confusion([0, 0, 0], [0, 0, 0]))
    assert r.f1_positive == 0.0
    assert r.accuracy == 1.0


def test_confusion_validates_inputs():
    with pytest.raises(ValueError):
        confusion([1, 0], [1])
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([2, 0], [1, 0])


def brute_force_metrics(preds, labels):
    """Independent recount used as the oracle."""
    tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
    tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
    fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
    accuracy = (tp + tn) / len(preds)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return accuracy, precision, recall, f1


def test_report_matches_brute_force_recount():
    rng = random.Random(2024)
    preds = [rng.randint(0, 1) for _ in range(1000)]
    labels = [rng.randint(0, 1) for _ in range(1000)]
    r = report(confusion(preds, labels))
    accuracy, precision, recall, f1 = brute_force_metrics(preds, labels)
    assert r.accuracy == accuracy
    assert r.precision == precision
    assert r.recall == recall
    assert r.f1_positive == f1

