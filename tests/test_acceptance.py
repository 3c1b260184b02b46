"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is oracle- or property-based and runs offline; the only
"endpoint" involved is an in-process mock transport. Pinned seeds make
every number reproducible.
"""

import json
import math
import random
import threading
import time

import numpy as np

from conftest import CONFIG_DIR, GOLDEN_DIR, GOLDEN_PROFILE
from ventureval import gbdt, synth
from ventureval.client import EndpointConfig, chat_complete, run_eval
from ventureval.features import (
    CompanyProfile,
    SplitSpec,
    derive_profiles,
    feature_matrix,
    label_vector,
    split_dataset,
)
from ventureval.ingest import (
    FundingRoundRow,
    OrganizationRow,
    build_store,
    load_directory,
)
from ventureval.metrics import confusion, report
from ventureval.prompts import (
    IM_END,
    IM_START,
    LEAKAGE_SUBSTRINGS,
    VARIANTS,
    ChatMessage,
    ChatRecord,
    count_tokens,
    enforce_budget,
    render_prompt,
    sample_fewshot,
    serialize_chat,
    training_manifest,
)

# Best achievable accuracy for configs/synth_logistic.json, computed by an
# independent Monte-Carlo recount of the config's generative process
# (200k samples, numpy default_rng(99991), no package imports). Pinned.
LOGISTIC_BAYES_ACCURACY = 0.7760


def ok(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion} PASS: {detail}")


# --------------------------------------------------------------------- C1


def test_c01_metric_oracle_equivalence():
    rng = random.Random(123456)
    preds = [rng.randint(0, 1) for _ in range(1000)]
    labels = [rng.randint(0, 1) for _ in range(1000)]

    started = time.perf_counter()
    result = report(confusion(preds, labels))

    tp = fp = tn = fn = 0  # independent recount
    for p, y in zip(preds, labels):
        tp += p == 1 and y == 1
        fp += p == 1 and y == 0
        tn += p == 0 and y == 0
        fn += p == 0 and y == 1
    accuracy = (tp + tn) / 1000
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    elapsed = time.perf_counter() - started

    assert result.accuracy == accuracy
    assert result.precision == precision
    assert result.recall == recall
    assert result.f1_positive == f1
    assert elapsed < 1.0
    ok("C1", f"1000-pair recount matches exactly in {elapsed * 1000:.1f} ms")


# --------------------------------------------------------------------- C2


def test_c02_confusion_fixture():
    r = report(confusion([1, 1, 1, 0], [1, 0, 1, 1]))
    assert r.precision == 2 / 3
    assert r.recall == 2 / 3
    assert r.f1_positive == 2 / 3
    assert r.accuracy == 0.5
    ok("C2", "precision = recall = f1 = 2/3, accuracy = 0.5, exact")


# --------------------------------------------------------------------- C4


def test_c04_gbdt_hand_check_and_loss_monotonicity():
    model = gbdt.fit(
        np.array([[1.0], [2.0], [3.0], [4.0]]),
        np.array([1, 1, 0, 0]),
        gbdt.GbdtConfig(
            n_rounds=1, max_depth=1, learning_rate=1.0, reg_lambda=1.0,
            gamma=0.0, min_child_weight=0.0,
        ),
    )
    # manual Newton step: G_L = -1.0, H_L = 0.5 -> -(-1.0)/(0.5 + 1.0),
    # i.e. 0.6667 at four decimals
    assert abs(model.trees[0].left.weight - (1.0 / 1.5)) < 1e-9

    rng = random.Random(404)
    checked = 0
    while checked < 50:
        np_rng = np.random.default_rng(rng.randrange(10**6))
        n = rng.randrange(25, 120)
        d = rng.randrange(1, 6)
        X = np_rng.normal(size=(n, d))
        logits = X @ np_rng.normal(size=d) * rng.choice([0.5, 1.0, 2.0])
        y = (np_rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
        if y.sum() in (0, n):
            continue
        config = gbdt.GbdtConfig(
            n_rounds=25,
            max_depth=rng.choice([2, 3, 4]),
            learning_rate=rng.choice([0.05, 0.1, 0.2, 0.3]),
            gamma=0.0,
        )
        losses = gbdt.fit(X, y, config).train_loss
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-6
        checked += 1
    ok("C4", "leaf weight = 0.6667 within 1e-9; loss monotone on 50 fuzzed sets")


# --------------------------------------------------------------------- C5


def _pipeline_accuracy(config_path, tmp_path, split_seed):
    config = synth.load_config(config_path)
    synth.generate(config, tmp_path)
    store, row_errors = load_directory(tmp_path)
    assert all(not errs for errs in row_errors.values())
    profiles, anomalies = derive_profiles(store)
    assert not anomalies
    train, _, test = split_dataset(
        profiles, SplitSpec(ratios=(0.8, 0.1, 0.1), seed=split_seed, stratified=True)
    )
    model = gbdt.fit(feature_matrix(train), label_vector(train), gbdt.GbdtConfig())
    preds = gbdt.predict_many(model, feature_matrix(test))
    return float((preds == label_vector(test)).mean()), config


def test_c05_end_to_end_learnability(tmp_path):
    started = time.perf_counter()
    accuracy, _ = _pipeline_accuracy(
        CONFIG_DIR / "synth_threshold.json", tmp_path / "threshold", split_seed=101
    )
    elapsed = time.perf_counter() - started
    assert accuracy >= 0.95
    assert elapsed < 30.0

    log_accuracy, log_config = _pipeline_accuracy(
        CONFIG_DIR / "synth_logistic.json", tmp_path / "logistic", split_seed=202
    )
    bayes = LOGISTIC_BAYES_ACCURACY
    estimate = synth.estimate_bayes_accuracy(log_config, n_mc=20000)
    assert abs(estimate.accuracy - bayes) < 0.01  # library agrees with the oracle
    assert bayes - 0.05 <= log_accuracy <= bayes + 0.01
    ok(
        "C5",
        f"threshold acc {accuracy:.3f} in {elapsed:.1f}s; "
        f"logistic acc {log_accuracy:.4f} within [{bayes - 0.05:.4f}, {bayes + 0.01:.4f}]",
    )


# --------------------------------------------------------------------- C6


def test_c06_imputation_conformance(tmp_path):
    config = synth.SynthConfig(n_companies=500, seed=606, noise="threshold")
    synth.generate(config, tmp_path)
    store, _ = load_directory(tmp_path)
    base_profiles, _ = derive_profiles(store)
    base_by_id = {p.org_id: p for p in base_profiles}

    def check_all_total(profiles):
        for p in profiles:
            for field in CompanyProfile._fields:
                value = getattr(p, field)
                assert value is not None
                if isinstance(value, float):
                    assert not math.isnan(value)

    # delete every date
    no_dates = build_store(
        [OrganizationRow(o.org_id, o.name, o.description, None, None)
         for o in store.organizations],
        store.funding_rounds, store.investments, store.ipos,
        store.acquisitions, store.jobs,
    )
    profiles, anomalies = derive_profiles(no_dates)
    assert not anomalies
    check_all_total(profiles)
    for p in profiles:
        base = base_by_id[p.org_id]
        assert p.age_years == -1.0 and p.age_imputed == 1
        assert p.success == base.success
        assert (
            p.total_raised_usd, p.num_funding_rounds, p.num_investors,
            p.num_acquisitions_made, p.num_executives, p.had_ipo, p.was_acquired,
        ) == (
            base.total_raised_usd, base.num_funding_rounds, base.num_investors,
            base.num_acquisitions_made, base.num_executives, base.had_ipo,
            base.was_acquired,
        )

    # delete every funding amount
    no_amounts = build_store(
        store.organizations,
        [FundingRoundRow(r.round_id, r.org_id, r.announced_on, None)
         for r in store.funding_rounds],
        store.investments, store.ipos, store.acquisitions, store.jobs,
    )
    profiles, _ = derive_profiles(no_amounts)
    check_all_total(profiles)
    for p in profiles:
        base = base_by_id[p.org_id]
        assert p.total_raised_usd == 0.0
        assert p.num_funding_rounds == base.num_funding_rounds
        assert p.age_years == base.age_years
        assert p.success == base.success

    # delete every description
    no_desc = build_store(
        [OrganizationRow(o.org_id, o.name, "", o.founded_on, o.created_at)
         for o in store.organizations],
        store.funding_rounds, store.investments, store.ipos,
        store.acquisitions, store.jobs,
    )
    profiles, _ = derive_profiles(no_desc)
    check_all_total(profiles)
    for p in profiles:
        assert p.description == ""
        assert p.success == base_by_id[p.org_id].success
    ok("C6", "500-org deletion fuzz: totality, documented defaults, stable labels")


# --------------------------------------------------------------------- C7


def test_c07_prompt_goldens_budget_and_leakage(tmp_path):
    for variant in VARIANTS:
        rendered = serialize_chat(render_prompt(GOLDEN_PROFILE, variant=variant, mode="sft"))
        golden = (GOLDEN_DIR / f"prompt_{variant.lower()}.txt").read_text(encoding="utf-8")
        assert rendered == golden, f"{variant} drifted from its golden file"

    config = synth.SynthConfig(n_companies=200, seed=707, noise="threshold",
                               leak_phrase_rate=0.3)
    synth.generate(config, tmp_path)
    store, _ = load_directory(tmp_path)
    profiles, _ = derive_profiles(store)
    # add a pathologically long description to force truncation
    long_desc = " ".join(f"word{i}" for i in range(600))
    profiles.append(
        CompanyProfile(
            org_id="long", name="Longform Holdings", description=long_desc,
            age_years=4.0, total_raised_usd=1_000_000.0, num_funding_rounds=1,
            num_investors=1, num_acquisitions_made=0, num_executives=1,
            had_ipo=0, was_acquired=0, success=0, age_imputed=0, raised_imputed=0,
        )
    )

    checked = 0
    for profile in profiles:
        for variant in ("V1", "V4"):
            record = enforce_budget(
                render_prompt(profile, variant=variant, mode="sft"), max_tokens=256
            )
            text = serialize_chat(record)
            assert text.count(IM_START) == text.count(IM_END) == 2
            assert count_tokens(text) <= 256
            lowered = text.lower()
            for banned in LEAKAGE_SUBSTRINGS:
                assert banned not in lowered
            checked += 1
    ok("C7", f"goldens byte-stable; {checked} records within budget, balanced, leak-free")


# --------------------------------------------------------------------- C8


def test_c08_fewshot_sampler_regimes():
    records = []
    for i in range(10_000):
        records.append(
            ChatRecord(
                messages=[ChatMessage("user", f"q{i}")],
                org_id=f"c{i}",
                label=1 if i < 5000 else 0,
            )
        )
    for k in (1000, 2000, 4000):
        subset = sample_fewshot(records, k, seed=808)
        labels = [r.label for r in subset]
        assert len(subset) == k
        assert abs(labels.count(1) - labels.count(0)) <= 1
        again = sample_fewshot(records, k, seed=808)
        assert subset == again
        assert subset != sample_fewshot(records, k, seed=809)
    ok("C8", "k in {1000, 2000, 4000}: exact size, balanced within 1, seed-stable")


# --------------------------------------------------------------------- C9


def _completion(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_c09_harness_against_mocks(tmp_path):
    started = time.perf_counter()
    endpoint = EndpointConfig(base_url="http://mock.local/v1", model="mock")

    # oracle mock on 500 synthetic records -> accuracy exactly 1.0
    config = synth.SynthConfig(n_companies=500, seed=909, noise="threshold")
    synth.generate(config, tmp_path)
    store, _ = load_directory(tmp_path)
    profiles, _ = derive_profiles(store)
    records = [
        enforce_budget(render_prompt(p, variant="V4", mode="inference"))
        for p in profiles
    ]
    truth_by_prompt = {
        r.messages[-1].content: r.label for r in records
    }

    def oracle(url, payload, timeout_s, headers):
        label = truth_by_prompt[payload["messages"][-1]["content"]]
        word = "Successful" if label == 1 else "Unsuccessful"
        return 200, _completion(f"Prediction: {word}\nJustification: observed tiers.")

    result = run_eval(endpoint, records, transport=oracle, sleep=lambda s: None)
    assert result.report.accuracy == 1.0
    assert result.parse_failures == 0

    # constant-label mock on a balanced 400-record set -> 0.5 +- 0.05
    balanced = [
        ChatRecord(
            messages=[ChatMessage("user", f"q{i}")],
            org_id=f"b{i}",
            label=i % 2,
        )
        for i in range(400)
    ]
    constant = run_eval(
        endpoint,
        balanced,
        transport=lambda u, p, t, h: (200, _completion("Prediction: Successful")),
        sleep=lambda s: None,
    )
    assert abs(constant.report.accuracy - 0.5) <= 0.05

    # scripted flaky mock: 503, 503, then 200 -> success with 3 attempts
    calls = {"n": 0}

    def flaky(url, payload, timeout_s, headers):
        calls["n"] += 1
        if calls["n"] <= 2:
            return 503, "busy"
        return 200, _completion("Prediction: Unsuccessful")

    completion = chat_complete(
        endpoint, [{"role": "user", "content": "x"}], transport=flaky,
        sleep=lambda s: None,
    )
    assert completion.attempts == 3

    # concurrency probe: never more than max_in_flight in flight
    probe_endpoint = EndpointConfig(
        base_url="http://mock.local/v1", model="mock", max_in_flight=4
    )
    state = {"current": 0, "max": 0}
    lock = threading.Lock()

    def probe(url, payload, timeout_s, headers):
        with lock:
            state["current"] += 1
            state["max"] = max(state["max"], state["current"])
        time.sleep(0.004)
        with lock:
            state["current"] -= 1
        return 200, _completion("Prediction: Successful")

    run_eval(probe_endpoint, balanced[:80], transport=probe, sleep=lambda s: None)
    assert state["max"] <= 4

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(
        "C9",
        f"oracle 1.0, constant {constant.report.accuracy:.3f}, flaky attempts 3, "
        f"max in-flight {state['max']} <= 4, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------- C10


def test_c10_training_manifest_constants():
    manifest = training_manifest()
    assert manifest["epochs"] == 5
    assert manifest["learning_rate"] == 5e-4
    assert manifest["warmup_steps"] == 20
    assert manifest["weight_decay"] == 0.01
    assert manifest["grad_accumulation"] == 2
    assert manifest["max_length"] == 256
    assert manifest["lora"]["rank"] == 16
    assert manifest["lora"]["alpha"] == 16
    assert manifest["lora"]["dropout"] == 0.1
    assert sorted(manifest["rank_sweep"]) == [8, 16, 32, 64, 128]
    ok("C10", "manifest equals the pinned fine-tuning constants")
