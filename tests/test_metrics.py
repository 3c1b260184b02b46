"""Classification metrics and the greedy embedding-match score."""

import math
import random

import numpy as np
import pytest

from ventureval.metrics import (
    TokenEmbeddings,
    apply_idf,
    confusion,
    greedy_match_score,
    idf_table,
    report,
)


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


# ------------------------------------------------------- embedding score


def emb(vectors, tokens=None, idf=None):
    vectors = np.asarray(vectors, dtype=np.float64)
    tokens = tokens or [f"t{i}" for i in range(vectors.shape[0])]
    return TokenEmbeddings(tokens=tokens, vectors=vectors, idf=idf)


def test_identity_scores_one():
    rng = np.random.default_rng(5)
    e = emb(rng.normal(size=(7, 16)))
    score = greedy_match_score(e, e)
    assert abs(score.precision - 1.0) < 1e-9
    assert abs(score.recall - 1.0) < 1e-9
    assert abs(score.f1 - 1.0) < 1e-9


def test_orthogonal_scores_zero():
    cand = emb([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ref = emb([[0.0, 0.0, 1.0]])
    score = greedy_match_score(cand, ref)
    assert score.precision == 0.0 and score.recall == 0.0 and score.f1 == 0.0


def test_hand_two_by_two_case():
    # similarity matrix [[1, 0], [0, 0.5]] via unit vectors
    cand = emb([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ref = emb([[1.0, 0.0, 0.0], [0.0, 0.5, math.sqrt(0.75)]])
    score = greedy_match_score(cand, ref)
    assert abs(score.precision - 0.75) < 1e-9
    assert abs(score.recall - 0.75) < 1e-9
    assert abs(score.f1 - 0.75) < 1e-9


def test_precision_recall_symmetry_fuzzed():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = emb(rng.normal(size=(int(rng.integers(1, 9)), 8)))
        b = emb(rng.normal(size=(int(rng.integers(1, 9)), 8)))
        assert greedy_match_score(a, b).precision == pytest.approx(
            greedy_match_score(b, a).recall, abs=1e-12
        )


def test_candidate_permutation_invariance():
    rng = np.random.default_rng(13)
    vectors = rng.normal(size=(6, 10))
    ref = emb(rng.normal(size=(4, 10)))
    base = greedy_match_score(emb(vectors), ref)
    perm = rng.permutation(6)
    shuffled = greedy_match_score(emb(vectors[perm]), ref)
    assert base.precision == pytest.approx(shuffled.precision, abs=1e-12)
    assert base.recall == pytest.approx(shuffled.recall, abs=1e-12)


def test_positive_scaling_invariance():
    rng = np.random.default_rng(17)
    vectors = rng.normal(size=(5, 6))
    ref = emb(rng.normal(size=(3, 6)))
    base = greedy_match_score(emb(vectors), ref)
    scaled = greedy_match_score(emb(vectors * 37.5), ref)
    assert base.precision == pytest.approx(scaled.precision, abs=1e-12)


def test_low_similarity_reference_token_cannot_raise_recall():
    rng = np.random.default_rng(19)
    cand_vectors = rng.normal(size=(5, 8))
    ref_vectors = rng.normal(size=(4, 8))
    base = greedy_match_score(emb(cand_vectors), emb(ref_vectors))

    sim = (cand_vectors / np.linalg.norm(cand_vectors, axis=1, keepdims=True)) @ (
        ref_vectors / np.linalg.norm(ref_vectors, axis=1, keepdims=True)
    ).T
    floor = sim.max(axis=0).min()
    assert floor > 0

    # a reference token from the candidates' null space: best match exactly 0
    _, _, vt = np.linalg.svd(cand_vectors)
    extra = vt[-1]
    assert np.allclose(cand_vectors @ extra, 0.0, atol=1e-10)
    appended = greedy_match_score(emb(cand_vectors), emb(np.vstack([ref_vectors, extra])))
    assert appended.recall <= base.recall + 1e-12


def test_embedding_validation_errors():
    with pytest.raises(ValueError):
        greedy_match_score(emb(np.zeros((1, 3))), emb([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        greedy_match_score(emb([[1.0, 0.0]]), emb([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        TokenEmbeddings(tokens=[], vectors=np.zeros((0, 3))).validate()


def test_idf_weighted_precision():
    cand = emb(
        [[1.0, 0.0], [0.0, 1.0]],
        tokens=["rare", "common"],
        idf=np.array([3.0, 1.0]),
    )
    ref = emb([[1.0, 0.0]])
    score = greedy_match_score(cand, ref)
    # row maxima are [1, 0]; weighted mean = 3/(3+1)
    assert score.precision == pytest.approx(0.75)
    assert score.idf_used


def test_idf_table_smoothing():
    table = idf_table([["a", "b"], ["a", "c"]])
    assert table.weight("a") == pytest.approx(math.log(3 / 3))
    assert table.weight("b") == pytest.approx(math.log(3 / 2))
    assert table.weight("unseen") == pytest.approx(math.log(3))
    weighted = apply_idf(emb(np.eye(2), tokens=["a", "unseen"]), table)
    assert weighted.idf[1] > weighted.idf[0]

