"""Chat prompt compilation: templates, budgets, targets and JSONL output.

Profiles render into chat records under four instruction variants of
increasing structure: V1 is a bare prediction request, V2 separates the
prediction and justification tasks, V3 presents the company as a
field-per-line profile block, and V4 additionally demands grounded
justifications and a strict output format. Training targets pair the label
keyword with a templated justification that only cites observable profile
tiers, never exit events.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .errors import DataError
from .features import CompanyProfile

IM_START = "<|im_start|>"
IM_END = "<|im_end|>"

VARIANTS = ("V1", "V2", "V3", "V4")

# Variants that render the structured profile block (the earlier ones get a
# single inline sentence).
_BLOCK_VARIANTS = {"V3", "V4"}

PROFILE_BLOCK_HEADER = "Company profile:"

# Appears verbatim in V2, V3 and V4; pinned so tests can assert the
# variant-nesting property.
TWO_TASK_SENTENCE = (
    "Your tasks are: (1) predict whether the company will be Successful or "
    "Unsuccessful, and (2) provide a brief justification for your prediction."
)

LABEL_WORDS = {1: "Successful", 0: "Unsuccessful"}

# Label-revealing substrings removed from free text when the guard is on.
LEAKAGE_SUBSTRINGS = ("acquisition", "acquired", "ipo")

# Tier thresholds quoted by templated justifications.
STRONG_FUNDING_USD = 10_000_000
MODERATE_FUNDING_USD = 1_000_000
BROAD_INVESTOR_COUNT = 5
SOME_INVESTOR_COUNT = 2
LARGE_TEAM_EXECUTIVES = 5

MAX_PROMPT_TOKENS = 256
TRUNCATION_MARKER = "…"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SPECIAL_RE = re.compile(re.escape(IM_START) + "|" + re.escape(IM_END))
_LEAKAGE_RE = re.compile(
    "|".join(re.escape(needle) for needle in LEAKAGE_SUBSTRINGS), re.IGNORECASE
)


def count_tokens(text: str) -> int:
    """Deterministic token count: chat delimiters are single tokens, the
    rest segments into word runs and individual punctuation marks.

    An approximation of model tokenizers that keeps budgeting reproducible
    without a tokenizer dependency; swap in an external counter via the
    ``token_counter`` arguments where exact counts matter.
    """
    count = 0
    pos = 0
    for m in _SPECIAL_RE.finditer(text):
        count += len(_TOKEN_RE.findall(text, pos, m.start())) + 1
        pos = m.end()
    count += len(_TOKEN_RE.findall(text, pos))
    return count


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role {self.role!r}")


@dataclass
class ChatRecord:
    """A role-tagged message sequence plus metadata and optional targets.

    Inference records carry only messages; supervised records additionally
    hold the target label/justification and end with the assistant turn
    embedding both.
    """

    messages: list
    metadata: dict = field(default_factory=dict)
    label: Optional[int] = None
    justification: Optional[str] = None


def load_template(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown prompt variant {variant!r}")
    return (
        resources.files("ventureval")
        .joinpath(f"templates/{variant.lower()}.txt")
        .read_text(encoding="utf-8")
    )


def sanitize_text(text: str, leakage_guard: bool = True) -> str:
    """Collapse whitespace, drop chat delimiters and (optionally) strip
    label-revealing substrings."""
    text = _SPECIAL_RE.sub(" ", text)
    if leakage_guard:
        # A removal can join its neighbours into a new match ("IPipoO"), so
        # strip until nothing matches.
        removed = 1
        while removed:
            text, removed = _LEAKAGE_RE.subn("", text)
    return " ".join(text.split())


def format_usd(amount: float) -> str:
    return str(int(round(amount)))


def format_age(age_years: float) -> str:
    if age_years < 0:
        return "unknown"
    return f"{age_years:.1f} years"


def render_profile_block(
    profile: CompanyProfile, include_description: bool = True, leakage_guard: bool = True
) -> str:
    """Field-per-line profile block, byte-deterministic for a given profile."""
    name = sanitize_text(profile.name, leakage_guard)
    lines = [
        PROFILE_BLOCK_HEADER,
        f"Name: {name}",
        f"Age: {format_age(profile.age_years)}",
        f"Total raised USD: {format_usd(profile.total_raised_usd)}",
        f"Funding rounds: {profile.num_funding_rounds}",
        f"Distinct investors: {profile.num_investors}",
        # "Takeovers", not "acquisitions": the guarded-prompt contract bans
        # that substring anywhere in the serialized record.
        f"Takeovers made: {profile.num_acquisitions_made}",
        f"Executives: {profile.num_executives}",
    ]
    if include_description:
        description = sanitize_text(profile.description, leakage_guard)
        if description:
            lines.append(f"Description: {description}")
    return "\n".join(lines)


def render_profile_inline(
    profile: CompanyProfile, include_description: bool = True, leakage_guard: bool = True
) -> str:
    """One-sentence profile used by the unstructured variants (V1, V2)."""
    name = sanitize_text(profile.name, leakage_guard)
    parts = (
        f"{name}: age {format_age(profile.age_years)}, "
        f"total raised {format_usd(profile.total_raised_usd)} USD, "
        f"{profile.num_funding_rounds} funding rounds, "
        f"{profile.num_investors} distinct investors, "
        f"{profile.num_acquisitions_made} takeovers made, "
        f"{profile.num_executives} executives."
    )
    if include_description:
        description = sanitize_text(profile.description, leakage_guard)
        if description:
            parts += f" Description: {description}"
    return parts


def _funding_phrase(profile: CompanyProfile) -> str:
    raised = profile.total_raised_usd
    if raised >= STRONG_FUNDING_USD:
        return "strong funding"
    if raised >= MODERATE_FUNDING_USD:
        return "moderate funding"
    if raised > 0:
        return "limited funding"
    return "no recorded funding"


def _investor_phrase(profile: CompanyProfile) -> str:
    n = profile.num_investors
    if n >= BROAD_INVESTOR_COUNT:
        return "a broad investor base"
    if n >= SOME_INVESTOR_COUNT:
        return "several investors"
    if n == 1:
        return "a single investor"
    return "no recorded investors"


def _team_phrase(profile: CompanyProfile) -> str:
    n = profile.num_executives
    if n >= LARGE_TEAM_EXECUTIVES:
        return "a large executive team"
    if n >= 1:
        return "a small executive team"
    return "no identified executives"


def template_justification(profile: CompanyProfile) -> str:
    """Label-aligned justification built from observable feature tiers.

    Quotes tier language only (no raw numbers) and never mentions exit
    events, so identical tiers give identical text and nothing in the
    sentence can leak the label source.
    """
    clauses = f"{_funding_phrase(profile)}, {_investor_phrase(profile)}, and {_team_phrase(profile)}"
    if profile.success == 1:
        return f"The company shows {clauses}, a profile consistent with a successful outcome."
    return f"The company shows {clauses}, which gives little indication of a successful outcome."


def render_target(profile: CompanyProfile) -> str:
    return (
        f"Prediction: {LABEL_WORDS[profile.success]}\n"
        f"Justification: {template_justification(profile)}"
    )


def render_prompt(
    profile: CompanyProfile,
    variant: str = "V4",
    mode: str = "inference",
    exemplars=(),
    include_description: bool = True,
    leakage_guard: bool = True,
    split: str = "",
) -> ChatRecord:
    """Compile one profile into a chat record.

    ``mode='sft'`` appends the assistant target turn; ``exemplars`` (already
    compiled supervised records) are prepended as alternating user/assistant
    turns for in-context evaluation. The true label rides along in both
    modes so downstream scoring never needs a side channel.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown prompt variant {variant!r}")
    if mode not in ("inference", "sft"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sft" and exemplars:
        raise ValueError("exemplars are only supported in inference mode")

    if variant in _BLOCK_VARIANTS:
        profile_text = render_profile_block(profile, include_description, leakage_guard)
    else:
        profile_text = render_profile_inline(profile, include_description, leakage_guard)
    user_text = load_template(variant).format(profile=profile_text).rstrip("\n")

    messages = []
    for ex in exemplars:
        turns = [m for m in ex.messages if m.role in ("user", "assistant")]
        if not turns or turns[-1].role != "assistant":
            raise ValueError("exemplars must be completed supervised records")
        messages.extend(turns)
    messages.append(ChatMessage("user", user_text))

    metadata = {"org_id": profile.org_id, "variant": variant}
    if split:
        metadata["split"] = split

    if mode == "sft":
        justification = template_justification(profile)
        messages.append(ChatMessage("assistant", render_target(profile)))
        return ChatRecord(
            messages=messages,
            metadata=metadata,
            label=profile.success,
            justification=justification,
        )
    return ChatRecord(messages=messages, metadata=metadata, label=profile.success)


def serialize_chat(record: ChatRecord) -> str:
    """Frame each message as ``<|im_start|>{role}\\n{content}<|im_end|>\\n``."""
    parts = []
    for msg in record.messages:
        if IM_START in msg.content or IM_END in msg.content:
            raise ValueError("message content contains a chat delimiter marker")
        parts.append(f"{IM_START}{msg.role}\n{msg.content}{IM_END}\n")
    return "".join(parts)


_CHAT_RE = re.compile(
    re.escape(IM_START) + r"(system|user|assistant)\n(.*?)" + re.escape(IM_END) + "\n",
    re.DOTALL,
)


def parse_chat(text: str) -> list:
    """Inverse of serialize_chat."""
    messages = []
    pos = 0
    for m in _CHAT_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unexpected text outside delimiters at offset {pos}")
        messages.append(ChatMessage(m.group(1), m.group(2)))
        pos = m.end()
    if pos != len(text):
        raise ValueError(f"unexpected trailing text at offset {pos}")
    return messages


_DESCRIPTION_RE = re.compile(r"Description: (.*)$", re.MULTILINE)


def enforce_budget(
    record: ChatRecord, max_tokens: int = MAX_PROMPT_TOKENS, token_counter=None
) -> ChatRecord:
    """Fit the serialized record inside the token budget.

    Only the description region of the final user message is cut, rightmost
    tokens first, with a truncation marker appended. Instructions, numeric
    fields and delimiters are never touched; if the record still exceeds
    the budget with the description emptied, that's an unmeetable budget
    and a DataError.
    """
    counter = token_counter or count_tokens
    if counter(serialize_chat(record)) <= max_tokens:
        return record

    user_idx = max(
        (i for i, m in enumerate(record.messages) if m.role == "user"), default=None
    )
    content = record.messages[user_idx].content if user_idx is not None else ""
    match = _DESCRIPTION_RE.search(content) if content else None
    if match is None:
        raise DataError(
            f"record exceeds {max_tokens} tokens and has no description to truncate"
        )

    description = match.group(1)
    spans = [m.span() for m in _TOKEN_RE.finditer(description)]

    def candidate(keep: int) -> ChatRecord:
        if keep >= len(spans):
            truncated = description
        elif keep == 0:
            truncated = TRUNCATION_MARKER
        else:
            truncated = description[: spans[keep - 1][1]] + TRUNCATION_MARKER
        new_content = content[: match.start(1)] + truncated + content[match.end(1) :]
        messages = list(record.messages)
        messages[user_idx] = ChatMessage("user", new_content)
        return ChatRecord(
            messages=messages,
            metadata=dict(record.metadata),
            label=record.label,
            justification=record.justification,
        )

    # Largest kept prefix that fits: binary search over prefix length.
    lo, hi = 0, len(spans)
    if counter(serialize_chat(candidate(0))) > max_tokens:
        raise DataError(
            f"record exceeds {max_tokens} tokens even with an empty description"
        )
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if counter(serialize_chat(candidate(mid))) <= max_tokens:
            lo = mid
        else:
            hi = mid - 1
    return candidate(lo)


def sample_fewshot(records, k: int, seed: int):
    """Class-balanced subset of exactly ``k`` supervised records.

    Uniform seeded sampling within each class; for odd ``k`` the positive
    class receives the extra record. Raises DataError naming the deficient
    class when a class cannot supply its share.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(records):
        raise DataError(f"k={k} exceeds corpus size {len(records)}")
    positives = [r for r in records if r.label == 1]
    negatives = [r for r in records if r.label == 0]
    need_pos = math.ceil(k / 2)
    need_neg = k - need_pos
    if len(positives) < need_pos:
        raise DataError(
            f"positive class has {len(positives)} records, need {need_pos}"
        )
    if len(negatives) < need_neg:
        raise DataError(
            f"negative class has {len(negatives)} records, need {need_neg}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(positives, need_pos) + rng.sample(negatives, need_neg)
    rng.shuffle(chosen)
    return chosen


def record_to_dict(record: ChatRecord) -> dict:
    return {
        "messages": [{"role": m.role, "content": m.content} for m in record.messages],
        "label": record.label,
        "justification": record.justification,
        "org_id": record.metadata.get("org_id"),
        "variant": record.metadata.get("variant"),
    }


def record_from_dict(obj: dict) -> ChatRecord:
    metadata = {}
    if obj.get("org_id") is not None:
        metadata["org_id"] = obj["org_id"]
    if obj.get("variant") is not None:
        metadata["variant"] = obj["variant"]
    return ChatRecord(
        messages=[ChatMessage(m["role"], m["content"]) for m in obj["messages"]],
        metadata=metadata,
        label=obj.get("label"),
        justification=obj.get("justification"),
    )


def emit_jsonl(records, path) -> int:
    """Write one JSON object per record; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")
            count += 1
    return count


def read_records_jsonl(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(record_from_dict(json.loads(line)))
    return records


# Fine-tuning configuration exported for any external trainer. Values are
# constants of this artifact; override individual keys per run if needed.
TRAINING_MANIFEST_DEFAULTS = {
    "epochs": 5,
    "optimizer": "adamw",
    "lr_schedule": "cosine",
    "learning_rate": 5e-4,
    "warmup_steps": 20,
    "weight_decay": 0.01,
    "per_device_batch": 1,
    "grad_accumulation": 2,
    "precision": "bf16",
    "quantization": "nf4",
    "lora": {
        "rank": 16,
        "alpha": 16,
        "dropout": 0.1,
        "target_modules": {
            "qwen": ["q_proj", "v_proj"],
            "llama": ["q_proj", "v_proj"],
            "gpt2": ["c_attn"],
        },
    },
    "max_length": 256,
    "rank_sweep": [8, 16, 32, 64, 128],
}


def training_manifest(overrides=None) -> dict:
    manifest = json.loads(json.dumps(TRAINING_MANIFEST_DEFAULTS))
    for key, value in (overrides or {}).items():
        if key not in manifest:
            raise ValueError(f"unknown manifest key {key!r}")
        manifest[key] = value
    return manifest


def emit_training_manifest(overrides=None) -> str:
    return json.dumps(training_manifest(overrides), indent=2, sort_keys=False) + "\n"
