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

import functools
import json
import math
import random
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Optional

from .config import VARIANTS
from .errors import DataError
from .features import CompanyProfile, check_flag, check_text, read_jsonl, write_jsonl

IM_START = "<|im_start|>"
IM_END = "<|im_end|>"

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
    without a tokenizer dependency.
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
    """A role-tagged message sequence plus its company, variant and
    optional targets, in the order of its JSON line.

    Inference records carry only messages; supervised records additionally
    hold the target label/justification and end with the assistant turn
    embedding both.
    """

    messages: list
    label: Optional[int] = None
    justification: Optional[str] = None
    org_id: Optional[str] = None
    variant: Optional[str] = None
    # Offset in the last user message at which the description that
    # render_prompt wrote begins; it runs to the end of that message. None
    # when no description was written. Only enforce_budget reads it, and it
    # is not serialised.
    description_start: Optional[int] = field(default=None, compare=False)
    # count_tokens(serialize_chat(self)) as render_prompt and enforce_budget
    # worked it out from the record's parts; None when unknown. Not an
    # __init__ argument, so that dataclasses.replace cannot carry it over to
    # other messages. Only enforce_budget reads it, and it is not serialised.
    token_count: Optional[int] = field(default=None, init=False, compare=False, repr=False)


@functools.cache
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
    if leakage_guard:
        # A removal can join its neighbours into a new match ("IPipoO"), so
        # strip until nothing matches.
        removed = 1
        while removed:
            text, removed = _LEAKAGE_RE.subn("", text)
    # After the guard, which can join a delimiter ("<|im_stipoart|>"); a
    # space in its place joins nothing.
    text = _SPECIAL_RE.sub(" ", text)
    return " ".join(text.split())


def format_usd(amount: float) -> str:
    return str(int(round(amount)))


def format_age(age_years: float) -> str:
    if age_years < 0:
        return "unknown"
    return f"{age_years:.1f} years"


def _description(profile: CompanyProfile, include_description: bool, leakage_guard: bool) -> str:
    return sanitize_text(profile.description, leakage_guard) if include_description else ""


# The renderers below end with the sanitized description, when it is not
# empty; render_prompt relies on that to record where it starts.
def _render_block(profile: CompanyProfile, description: str, leakage_guard: bool) -> str:
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
    if description:
        lines.append(f"Description: {description}")
    return "\n".join(lines)


def _render_inline(profile: CompanyProfile, description: str, leakage_guard: bool) -> str:
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


def render_prompt(
    profile: CompanyProfile,
    variant: str = "V4",
    mode: str = "inference",
    include_description: bool = True,
    leakage_guard: bool = True,
) -> ChatRecord:
    """Compile one profile into a chat record.

    ``mode='sft'`` appends the assistant target turn. The true label rides
    along in both modes so downstream scoring never needs a side channel.
    """
    template = load_template(variant)
    if mode not in ("inference", "sft"):
        raise ValueError(f"unknown mode {mode!r}")

    description = _description(profile, include_description, leakage_guard)
    render = _render_block if variant in _BLOCK_VARIANTS else _render_inline
    profile_text = render(profile, description, leakage_guard)
    # Every template ends with its profile, so the description ends the text.
    user_text = template.format(profile=profile_text).rstrip("\n")
    description_start = len(user_text) - len(description) if description else None

    messages = [ChatMessage("user", user_text)]
    # The record's tokens are the sum of its parts' (see _FRAMING_TOKENS):
    # each template puts a blank line before {profile}, so no token joins
    # the template text to the profile text.
    tokens = template_tokens(variant) + count_tokens(profile_text)

    record = ChatRecord(messages=messages, label=profile.success, org_id=profile.org_id,
                        variant=variant, description_start=description_start)
    if mode == "sft":
        record.justification = justification = template_justification(profile)
        target = f"Prediction: {LABEL_WORDS[profile.success]}\nJustification: {justification}"
        messages.append(ChatMessage("assistant", target))
        tokens += _FRAMING_TOKENS + _target_tokens(target)
    record.token_count = tokens
    return record


def exemplar_turns(exemplars) -> list:
    """The user and assistant turns of ``exemplars``, in order, to prepend to
    a prompt for in-context evaluation. Each exemplar must be a completed
    supervised record, ending with its assistant turn; otherwise ValueError."""
    messages = []
    for ex in exemplars:
        turns = [m for m in ex.messages if m.role in ("user", "assistant")]
        if not turns or turns[-1].role != "assistant":
            raise ValueError("exemplars must be completed supervised records")
        messages.extend(turns)
    return messages


def serialize_chat(record: ChatRecord) -> str:
    """Frame each message as ``<|im_start|>{role}\\n{content}<|im_end|>\\n``."""
    parts = []
    for msg in record.messages:
        if IM_START in msg.content or IM_END in msg.content:
            raise ValueError("message content contains a chat delimiter marker")
        parts.append(f"{IM_START}{msg.role}\n{msg.content}{IM_END}\n")
    return "".join(parts)


# The tokens that serialize_chat adds to a message: the two delimiters and
# the role word. None of them joins a token of the content, since a newline
# follows the role and the content cannot hold a delimiter, so a serialised
# record counts the sum of its messages' framing and content tokens.
_FRAMING_TOKENS = count_tokens(f"{IM_START}user\n{IM_END}\n")

# Few distinct SFT targets exist: one per label and tier combination.
_target_tokens = functools.cache(count_tokens)


@functools.cache
def template_tokens(variant: str) -> int:
    """Tokens that every record of ``variant`` carries: its template text and
    the chat framing of the user turn. No smaller budget fits a record."""
    user = ChatMessage("user", load_template(variant).format(profile=""))
    return count_tokens(serialize_chat(ChatRecord(messages=[user])))


def enforce_budget(record: ChatRecord, max_tokens: int = MAX_PROMPT_TOKENS) -> ChatRecord:
    """Fit the serialized record inside the token budget.

    Only the description that render_prompt wrote, at the end of the last
    user message, is cut: it keeps its first ``k`` tokens plus a truncation
    marker, with ``k`` as large as fits. Instructions, names, numeric fields
    and delimiters are never touched; if the record still exceeds the budget
    with the description cut to the marker alone, that's an unmeetable
    budget and a DataError.

    ``k`` is computed, not searched for. The description follows
    ``"Description: "`` and ends its message, and the marker is one token,
    so no token spans either edge of it: the cut record counts the tokens
    outside the description plus ``k + 1``.
    """
    total = record.token_count
    if total is None:
        total = count_tokens(serialize_chat(record))
    if total <= max_tokens:
        return record

    start = record.description_start
    user_idx = max(
        (i for i, m in enumerate(record.messages) if m.role == "user"), default=None
    )
    if start is None or user_idx is None:
        raise DataError(
            f"record exceeds {max_tokens} tokens and has no description to truncate"
        )
    content = record.messages[user_idx].content
    ends = [m.end() for m in _TOKEN_RE.finditer(content, start)]
    keep = max_tokens - (total - len(ends)) - 1
    if keep < 0:
        raise DataError(
            f"record exceeds {max_tokens} tokens even with an empty description"
        )
    cut = ends[keep - 1] if keep else start
    messages = list(record.messages)
    messages[user_idx] = ChatMessage("user", content[:cut] + TRUNCATION_MARKER)
    cut_record = replace(record, messages=messages)
    cut_record.token_count = total - len(ends) + keep + 1
    return cut_record


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


def message_dicts(messages) -> list:
    """The ``{"role", "content"}`` form of ``messages`` that JSON lines and
    chat-completion requests carry."""
    return [{"role": m.role, "content": m.content} for m in messages]


def record_to_dict(record: ChatRecord) -> dict:
    return {
        "messages": message_dicts(record.messages),
        "label": record.label,
        "justification": record.justification,
        "org_id": record.org_id,
        "variant": record.variant,
    }


def record_from_dict(obj: dict) -> ChatRecord:
    messages = obj["messages"]
    # type(), not isinstance: a JSON true is not a label.
    if type(messages) is not list or not messages:
        raise ValueError(f"messages is not a non-empty list: {messages!r}")
    chat = []
    for message in messages:
        if type(message) is not dict:
            raise ValueError(f"message is not an object: {message!r}")
        check_text("message content", message["content"])
        chat.append(ChatMessage(message["role"], message["content"]))
    label = obj.get("label")
    if label is not None:
        check_flag("label", label)
    texts = {name: obj.get(name) for name in ("justification", "org_id", "variant")}
    for name, value in texts.items():
        if value is not None:
            check_text(name, value)
    return ChatRecord(messages=chat, label=label, **texts)


def emit_jsonl(records, path) -> int:
    """Write one JSON object per record; returns the count written."""
    return write_jsonl(map(record_to_dict, records), path)


def read_records_jsonl(path):
    return read_jsonl(path, record_from_dict)


# Fine-tuning configuration exported for any external trainer. Values are
# constants of this artifact.
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


def training_manifest() -> dict:
    """A deep copy of TRAINING_MANIFEST_DEFAULTS."""
    return json.loads(json.dumps(TRAINING_MANIFEST_DEFAULTS))
