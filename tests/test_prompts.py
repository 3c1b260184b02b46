"""Prompt rendering, chat serialization, budgets, sampling, manifests."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR
from ventureval.errors import DataError
from ventureval.features import CompanyProfile
from ventureval.prompts import (
    IM_END,
    IM_START,
    LEAKAGE_SUBSTRINGS,
    PROFILE_BLOCK_HEADER,
    TWO_TASK_SENTENCE,
    VARIANTS,
    ChatMessage,
    ChatRecord,
    count_tokens,
    emit_jsonl,
    emit_training_manifest,
    enforce_budget,
    parse_chat,
    read_records_jsonl,
    render_profile_block,
    render_prompt,
    sample_fewshot,
    sanitize_text,
    serialize_chat,
    template_justification,
    training_manifest,
)


def profile(**overrides) -> CompanyProfile:
    base = dict(
        org_id="c1",
        name="Acme",
        description="AI tools for accountants.",
        age_years=5.0,
        total_raised_usd=3_500_000.0,
        num_funding_rounds=2,
        num_investors=2,
        num_acquisitions_made=0,
        num_executives=3,
        had_ipo=0,
        was_acquired=0,
        success=0,
        age_imputed=0,
        raised_imputed=0,
    )
    base.update(overrides)
    return CompanyProfile(**base)


# ---------------------------------------------------------------- tokens


def test_count_tokens_words_and_punctuation():
    assert count_tokens("hi") == 1
    assert count_tokens("Strong funding, many investors.") == 6
    assert count_tokens("") == 0


def test_count_tokens_special_markers_are_atomic():
    assert count_tokens(f"{IM_START}user\nhi{IM_END}\n") == 4


# ------------------------------------------------------------- rendering


def test_profile_block_zero_profile_renders_unknown_age():
    block = render_profile_block(
        profile(age_years=-1.0, total_raised_usd=0.0, num_funding_rounds=0,
                num_investors=0, num_executives=0, description="")
    )
    assert "Age: unknown" in block
    assert "Total raised USD: 0" in block
    assert "Description:" not in block


def test_profile_block_matches_golden(golden_profile):
    golden = (GOLDEN_DIR / "profile_block.txt").read_text(encoding="utf-8")
    assert render_profile_block(golden_profile) == golden


def test_profile_blocks_differ_only_on_name_line():
    a = render_profile_block(profile(name="Acme"))
    b = render_profile_block(profile(name="Zeta"))
    diff = [
        (la, lb) for la, lb in zip(a.splitlines(), b.splitlines()) if la != lb
    ]
    assert len(diff) == 1
    assert diff[0][0].startswith("Name:")


@pytest.mark.parametrize("variant", VARIANTS)
def test_prompt_goldens(golden_profile, variant):
    record = render_prompt(golden_profile, variant=variant, mode="sft")
    golden = (GOLDEN_DIR / f"prompt_{variant.lower()}.txt").read_text(encoding="utf-8")
    assert serialize_chat(record) == golden


def test_variant_nesting():
    v_texts = {
        v: serialize_chat(render_prompt(profile(), variant=v, mode="inference"))
        for v in VARIANTS
    }
    assert TWO_TASK_SENTENCE not in v_texts["V1"]
    for v in ("V2", "V3", "V4"):
        assert TWO_TASK_SENTENCE in v_texts[v]
    assert PROFILE_BLOCK_HEADER not in v_texts["V1"]
    assert PROFILE_BLOCK_HEADER not in v_texts["V2"]
    assert PROFILE_BLOCK_HEADER in v_texts["V3"]
    assert PROFILE_BLOCK_HEADER in v_texts["V4"]


def test_zero_shot_record_is_single_user_message():
    record = render_prompt(profile(), variant="V1", mode="inference")
    assert len(record.messages) == 1
    assert record.messages[0].role == "user"


def test_sft_record_embeds_label_keyword():
    record = render_prompt(profile(success=1), variant="V4", mode="sft")
    assert record.messages[-1].role == "assistant"
    assert "Prediction: Successful" in record.messages[-1].content
    assert record.label == 1


def test_render_prompt_is_deterministic():
    a = render_prompt(profile(), variant="V3", mode="sft")
    b = render_prompt(profile(), variant="V3", mode="sft")
    assert a == b


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        render_prompt(profile(), variant="V9")


def test_exemplars_prepend_alternating_turns():
    exemplar = render_prompt(profile(org_id="ex1", success=1), variant="V4", mode="sft")
    record = render_prompt(
        profile(org_id="q1"), variant="V4", mode="inference", exemplars=[exemplar]
    )
    roles = [m.role for m in record.messages]
    assert roles == ["user", "assistant", "user"]


# --------------------------------------------------------- justification


def test_justification_success_tiers():
    text = template_justification(
        profile(success=1, total_raised_usd=50_000_000.0, num_executives=8,
                num_investors=6)
    )
    assert "strong funding" in text
    assert "a large executive team" in text


def test_justification_failure_tiers():
    text = template_justification(
        profile(success=0, total_raised_usd=0.0, num_executives=0, num_investors=0,
                num_funding_rounds=0)
    )
    assert "no recorded funding" in text
    assert "no identified executives" in text


def test_justification_same_tiers_same_text():
    a = template_justification(profile(success=1, total_raised_usd=12_000_000.0))
    b = template_justification(profile(success=1, total_raised_usd=99_000_000.0))
    assert a == b


def test_justification_never_mentions_exit_events():
    for success in (0, 1):
        text = template_justification(profile(success=success)).lower()
        for banned in LEAKAGE_SUBSTRINGS:
            assert banned not in text


def test_justification_numbers_appear_in_profile_block():
    p = profile(success=1, total_raised_usd=42_000_000.0)
    block = render_profile_block(p)
    block_values = set(re.findall(r"\d+(?:\.\d+)?", block))
    for number in re.findall(r"\d+(?:\.\d+)?", template_justification(p)):
        assert number in block_values


# ----------------------------------------------------------- chat format


def test_serialize_single_user_message():
    record = ChatRecord(messages=[ChatMessage("user", "hi")])
    assert serialize_chat(record) == f"{IM_START}user\nhi{IM_END}\n"


def test_serialize_empty_record():
    assert serialize_chat(ChatRecord(messages=[])) == ""


def test_serialize_rejects_embedded_delimiters():
    record = ChatRecord(messages=[ChatMessage("user", f"bad {IM_END} content")])
    with pytest.raises(ValueError):
        serialize_chat(record)


def test_serialize_parse_round_trip_fuzzed():
    rng = random.Random(17)
    words = ["alpha", "beta", "gamma", "été", "line\nbreak", "42", ":"]
    for _ in range(50):
        messages = []
        for _ in range(rng.randrange(1, 6)):
            role = rng.choice(["system", "user", "assistant"])
            content = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 8)))
            messages.append(ChatMessage(role, content))
        text = serialize_chat(ChatRecord(messages=messages))
        assert parse_chat(text) == messages


def test_chat_message_role_validation():
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hi")


# ---------------------------------------------------------------- budget


def long_description(n_words: int) -> str:
    return " ".join(f"token{i}" for i in range(n_words))


def test_budget_truncates_only_description():
    p = profile(description=long_description(400))
    record = render_prompt(p, variant="V4", mode="sft")
    trimmed = enforce_budget(record, max_tokens=256)
    text = serialize_chat(trimmed)
    assert count_tokens(text) <= 256
    assert text.count(IM_START) == text.count(IM_END) == 2
    # instruction and numeric fields intact
    assert TWO_TASK_SENTENCE in text
    assert "Total raised USD: 3500000" in text
    assert "…" in text


def test_budget_leaves_short_records_unchanged():
    record = render_prompt(profile(), variant="V1", mode="inference")
    assert enforce_budget(record, max_tokens=256) == record


def test_budget_boundary_exact_fit_no_marker():
    record = render_prompt(profile(), variant="V2", mode="inference")
    exact = count_tokens(serialize_chat(record))
    out = enforce_budget(record, max_tokens=exact)
    assert out == record
    assert "…" not in serialize_chat(out)


def test_budget_error_when_instructions_alone_overflow():
    record = render_prompt(profile(description=""), variant="V4", mode="sft")
    with pytest.raises(DataError):
        enforce_budget(record, max_tokens=40)


def test_leakage_guard_scrubs_prompts():
    nasty = profile(
        name="Ipo Partners",
        description="Recently ACQUIRED two rivals; an acquisition spree before the IPO.",
    )
    for variant in VARIANTS:
        text = serialize_chat(render_prompt(nasty, variant=variant, mode="sft")).lower()
        for banned in LEAKAGE_SUBSTRINGS:
            assert banned not in text


def test_leakage_guard_strips_substrings_formed_by_removal():
    assert sanitize_text("IPipoO rocket") == "rocket"
    assert sanitize_text("acquiacquiredsition") == ""
    assert sanitize_text("Acme acquIPOired Labs") == "Acme Labs"


def _any_case(word):
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda up: "".join(c.upper() if u else c for c, u in zip(word, up)))


# Banned substrings in any case, nested inside each other so that stripping
# the inner one joins the outer one back together ("IPipoO").
_banned = st.sampled_from(LEAKAGE_SUBSTRINGS).flatmap(_any_case)
_nested_banned = st.recursive(
    _banned,
    lambda inner: st.tuples(_banned, inner, st.integers(0, 11)).map(
        lambda t: t[0][: t[2]] + t[1] + t[0][t[2]:]
    ),
    max_leaves=4,
)
# Dotted capital I, dotless i and long s match i and s case-insensitively.
_fragments = st.sampled_from(["\u0131", "\u0130", "\u017f", "ipo", "o", " ", IM_START, IM_END])
guard_inputs = st.one_of(
    st.text(),
    st.lists(st.one_of(_nested_banned, _fragments, st.text(max_size=3)), max_size=12).map(
        "".join
    ),
)


def assert_no_banned_substring(text):
    for banned in LEAKAGE_SUBSTRINGS:
        assert banned not in text.lower()
        assert re.search(re.escape(banned), text, re.IGNORECASE) is None


@settings(max_examples=300, deadline=None)
@given(guard_inputs)
def test_guarded_text_contains_no_banned_substring(text):
    assert_no_banned_substring(sanitize_text(text))


@settings(max_examples=100, deadline=None)
@given(
    guard_inputs, guard_inputs, st.sampled_from(VARIANTS), st.sampled_from(["sft", "inference"])
)
def test_guarded_prompt_contains_no_banned_substring(name, description, variant, mode):
    record = render_prompt(profile(name=name, description=description),
                           variant=variant, mode=mode)
    assert_no_banned_substring(serialize_chat(record))


def test_leakage_guard_can_be_disabled():
    nasty = profile(description="before the IPO")
    text = serialize_chat(
        render_prompt(nasty, variant="V3", mode="inference", leakage_guard=False)
    )
    assert "IPO" in text


# --------------------------------------------------------------- fewshot


def make_records(n, positive_fraction=0.5):
    records = []
    for i in range(n):
        label = 1 if i < n * positive_fraction else 0
        records.append(
            ChatRecord(
                messages=[ChatMessage("user", f"q{i}")],
                metadata={"org_id": f"c{i}"},
                label=label,
            )
        )
    return records


def test_fewshot_balanced_counts():
    records = make_records(10_000)
    subset = sample_fewshot(records, 1000, seed=5)
    labels = [r.label for r in subset]
    assert len(subset) == 1000
    assert labels.count(1) == labels.count(0) == 500


def test_fewshot_full_corpus():
    records = make_records(100)
    subset = sample_fewshot(records, 100, seed=1)
    assert sorted(r.metadata["org_id"] for r in subset) == sorted(
        r.metadata["org_id"] for r in records
    )


def test_fewshot_seed_determinism():
    records = make_records(2000)
    assert sample_fewshot(records, 200, seed=3) == sample_fewshot(records, 200, seed=3)
    assert sample_fewshot(records, 200, seed=3) != sample_fewshot(records, 200, seed=4)


def test_fewshot_odd_k_extra_positive():
    records = make_records(100)
    subset = sample_fewshot(records, 11, seed=0)
    labels = [r.label for r in subset]
    assert labels.count(1) == 6 and labels.count(0) == 5


def test_fewshot_insufficient_class_named():
    records = make_records(100, positive_fraction=0.05)
    with pytest.raises(DataError, match="positive"):
        sample_fewshot(records, 50, seed=0)


# ----------------------------------------------------------------- jsonl


def test_emit_jsonl_empty(tmp_path):
    path = tmp_path / "records.jsonl"
    assert emit_jsonl([], path) == 0
    assert path.read_text(encoding="utf-8") == ""


def test_emit_jsonl_round_trip(tmp_path, golden_profile):
    record = render_prompt(golden_profile, variant="V4", mode="sft")
    path = tmp_path / "records.jsonl"
    assert emit_jsonl([record], path) == 1
    line = json.loads(path.read_text(encoding="utf-8"))
    assert set(line) == {"messages", "label", "justification", "org_id", "variant"}
    assert read_records_jsonl(path) == [record]


# -------------------------------------------------------------- manifest


def test_training_manifest_defaults():
    manifest = training_manifest()
    assert manifest["learning_rate"] == 5e-4
    assert manifest["epochs"] == 5
    assert manifest["warmup_steps"] == 20
    assert manifest["weight_decay"] == 0.01
    assert manifest["grad_accumulation"] == 2
    assert manifest["lora"]["rank"] == 16
    assert manifest["lora"]["alpha"] == 16
    assert manifest["lora"]["dropout"] == 0.1


def test_training_manifest_override_and_validation():
    manifest = training_manifest({"epochs": 3})
    assert manifest["epochs"] == 3
    assert training_manifest()["epochs"] == 5  # defaults untouched
    with pytest.raises(ValueError):
        training_manifest({"bogus": 1})
    parsed = json.loads(emit_training_manifest())
    assert parsed["rank_sweep"] == [8, 16, 32, 64, 128]
