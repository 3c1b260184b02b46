"""Synthetic corpus generator: determinism, schema, labels, estimates."""

import json
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from ventureval import synth
from ventureval.features import derive_profiles, feature_matrix
from ventureval.ingest import TABLE_KINDS, load_directory, parse_iso_date
from ventureval.synth import (
    NOISE_MODES,
    SynthConfig,
    estimate_bayes_accuracy,
    estimate_positive_rate,
    generate,
    latent_score,
    load_config,
    standardization_moments,
)


def small_config(**overrides):
    base = dict(n_companies=300, seed=7, noise="threshold")
    base.update(overrides)
    return SynthConfig(**base)


def read_all_bytes(out_dir):
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.suffix in (".csv", ".jsonl")
    }


def test_zero_companies_yields_header_only_files(tmp_path):
    result = generate(SynthConfig(n_companies=0, seed=1), tmp_path)
    for kind in TABLE_KINDS:
        lines = result.table_paths[kind].read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1  # header only
    assert result.ground_truth == []


def test_generation_is_byte_deterministic(tmp_path):
    config = small_config(n_companies=5)
    generate(config, tmp_path / "a")
    generate(config, tmp_path / "b")
    assert read_all_bytes(tmp_path / "a") == read_all_bytes(tmp_path / "b")


def test_different_seed_changes_output(tmp_path):
    generate(small_config(n_companies=5), tmp_path / "a")
    generate(small_config(n_companies=5, seed=8), tmp_path / "b")
    assert read_all_bytes(tmp_path / "a") != read_all_bytes(tmp_path / "b")


def test_schema_compatible_with_default_mapping(tmp_path):
    generate(small_config(), tmp_path)
    store, row_errors = load_directory(tmp_path)
    assert all(not errs for errs in row_errors.values())
    assert store.integrity["total_dangling"] == 0
    assert len(store.organizations) == 300


def test_labels_round_trip_through_pipeline(tmp_path):
    result = generate(small_config(), tmp_path)
    store, _ = load_directory(tmp_path)
    profiles, anomalies = derive_profiles(store)
    assert not anomalies
    truth = {e["org_id"]: e["label"] for e in result.ground_truth}
    assert all(p.success == truth[p.org_id] for p in profiles)
    lines = result.ground_truth_path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(entry) for entry in result.ground_truth]


def test_exactly_one_event_row_per_positive(tmp_path):
    config = small_config(
        missing_rates={"founded_on": 0.2, "raised_usd": 0.2, "description": 0.1}
    )
    result = generate(config, tmp_path)
    store, _ = load_directory(tmp_path)
    events = {}
    for ipo in store.ipos:
        events[ipo.org_id] = events.get(ipo.org_id, 0) + 1
    for acq in store.acquisitions:
        events[acq.acquiree_id] = events.get(acq.acquiree_id, 0) + 1
    for entry in result.ground_truth:
        assert events.get(entry["org_id"], 0) == (1 if entry["label"] == 1 else 0)


def test_missingness_blanks_fields_without_touching_labels(tmp_path):
    config = small_config(missing_rates={"founded_on": 0.5})
    result = generate(config, tmp_path)
    store, _ = load_directory(tmp_path)
    blanked = sum(1 for o in store.organizations if o.founded_on is None)
    assert 0.35 * 300 < blanked < 0.65 * 300
    profiles, _ = derive_profiles(store)
    truth = {e["org_id"]: e["label"] for e in result.ground_truth}
    assert all(p.success == truth[p.org_id] for p in profiles)
    assert any(p.age_years == -1.0 for p in profiles)


@st.composite
def small_configs(draw):
    """Small valid configs: any noise mode, Poisson rates and ages that may be
    0, missing and leak rates that may be 0. A beta entry whose feature has no
    spread under the config is 0, as validate() requires."""
    rate = st.sampled_from([0.0, 0.7, 3.0])
    config = SynthConfig(
        n_companies=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 2**32)),
        reference_date=draw(st.sampled_from(["2025-06-11", "2000-02-29"])),
        noise=draw(st.sampled_from(NOISE_MODES)),
        intercept=draw(st.floats(-2.0, 2.0)),
        age_range_years=draw(st.sampled_from([(0.0, 0.0), (0.0, 0.01), (0.5, 20.0)])),
        rounds_lambda=draw(rate),
        investors_lambda=draw(rate),
        executives_lambda=draw(rate),
        other_jobs_lambda=draw(rate),
        missing_rates=draw(st.dictionaries(st.sampled_from(synth._MISSING_RATE_FIELDS),
                                           st.sampled_from([0.0, 0.3, 0.9]))),
        leak_phrase_rate=draw(st.sampled_from([0.0, 0.5])),
    )
    _, stds = standardization_moments(config)
    config.beta = tuple(b if s else 0.0 for b, s in zip((0.4, 1.1, 0.3, 0.8, 0.0, 0.6), stds))
    return config


@settings(max_examples=100, deadline=None)
@given(config=small_configs())
def test_generate_keeps_its_contract(config):
    with tempfile.TemporaryDirectory() as out:
        result = generate(config, out)
        store, row_errors = load_directory(out)
    assert not any(row_errors.values()) and store.integrity["total_dangling"] == 0
    truth = {entry["org_id"]: entry for entry in result.ground_truth}
    exits = [ipo.org_id for ipo in store.ipos] + [acq.acquiree_id for acq in store.acquisitions]
    assert sorted(exits) == sorted(org for org, entry in truth.items() if entry["label"] == 1)

    reference = parse_iso_date(config.reference_date)
    founded = {org.org_id: org.founded_on for org in store.organizations}
    dated = ([(r.org_id, r.announced_on) for r in store.funding_rounds]
             + [(ipo.org_id, ipo.went_public_on) for ipo in store.ipos]
             + [(acq.acquiree_id, acq.announced_on) for acq in store.acquisitions])
    for org_id, day in dated:
        if day is not None:
            assert day <= reference + timedelta(days=1)
            assert founded[org_id] is None or founded[org_id] < day

    if not any(config.missing_rates.values()):
        profiles, anomalies = derive_profiles(store, reference)
        assert not anomalies and len(profiles) == config.n_companies
        latents = latent_score(feature_matrix(profiles), config) if profiles else []
        for profile, latent in zip(profiles, latents):
            assert latent == pytest.approx(truth[profile.org_id]["latent"], abs=1e-9)
            if config.noise == "threshold":
                assert truth[profile.org_id]["label"] == int(latent > 0)


def test_class_ratio_tracks_configured_mechanism(tmp_path):
    """The realised class ratio against the Monte-Carlo rate. generate and
    estimate_positive_rate draw features through one function, so this
    compares two uses of it; test_generate_keeps_its_contract checks the
    label mechanism itself: latents re-derived from the written CSVs, and in
    threshold mode each label against its latent."""
    config = SynthConfig(n_companies=2000, seed=13, noise="threshold")
    result = generate(config, tmp_path)
    target = estimate_positive_rate(config, n_mc=40000)
    realized = result.n_positive / config.n_companies
    assert abs(realized - target) <= 0.03


def test_bayes_accuracy_threshold_mode_is_one():
    estimate = estimate_bayes_accuracy(small_config())
    assert estimate.accuracy == 1.0 and estimate.std_error == 0.0


def test_bayes_accuracy_zero_signal_is_half():
    config = SynthConfig(
        n_companies=10, seed=3, noise="logistic",
        beta=(0.0,) * 6, intercept=0.0,
    )
    estimate = estimate_bayes_accuracy(config, n_mc=2000)
    assert abs(estimate.accuracy - 0.5) <= 0.02


def test_nonzero_acquisition_coefficient_rejected():
    with pytest.raises(ValueError, match="acquisitions-made"):
        SynthConfig(beta=(0, 1, 0, 0, 0.5, 0)).validate()


def test_unknown_missing_rate_field_rejected():
    with pytest.raises(ValueError, match="missing-rate"):
        SynthConfig(missing_rates={"bogus": 0.5}).validate()


def test_nonzero_beta_with_zero_spread_rejected():
    with pytest.raises(ValueError, match="zero"):
        SynthConfig(rounds_lambda=0.0, beta=(0, 0, 1.0, 0, 0, 0)).validate()


def test_shipped_configs_load_and_validate():
    threshold = load_config(CONFIG_DIR / "synth_threshold.json")
    logistic = load_config(CONFIG_DIR / "synth_logistic.json")
    assert threshold.noise == "threshold" and threshold.n_companies == 2000
    assert logistic.noise == "logistic"


def test_bayes_estimate_matches_library_for_shipped_logistic_config():
    config = load_config(CONFIG_DIR / "synth_logistic.json")
    estimate = estimate_bayes_accuracy(config, n_mc=20000)
    assert 0.5 <= estimate.accuracy <= 1.0
    assert estimate.std_error < 0.005


def test_descriptions_sometimes_carry_leak_phrases(tmp_path):
    config = small_config(leak_phrase_rate=0.5)
    generate(config, tmp_path)
    store, _ = load_directory(tmp_path)
    lowered = [o.description.lower() for o in store.organizations]
    assert any(
        any(term in d for term in ("ipo", "acquired", "acquisition")) for d in lowered
    )
