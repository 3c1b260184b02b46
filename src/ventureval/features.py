"""Per-company engineered features, labels, corpus statistics and splits.

Derivation is total by construction: missing numeric inputs contribute 0,
a missing founding/creation date yields the age sentinel -1, and binary
event flags default to 0, so no profile field is ever null. The positive
label marks an exit: the company either went public or was acquired
(acquiree role only; acquiring another company is not an exit).
"""

from __future__ import annotations

import bisect
import json
import operator
import random
import re
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, Optional

from .config import DEFAULT_REFERENCE_DATE
from .errors import DataError
from .ingest import SURROGATE_RE, CompanyStore, output_file, undecodable, write_csv

AGE_SENTINEL = -1.0
DAYS_PER_YEAR = 365.25

# Editable ruleset for counting executive-level jobs; matched
# case-insensitively on word boundaries within the job title.
EXECUTIVE_TITLE_KEYWORDS = (
    "chief",
    "ceo",
    "cfo",
    "cto",
    "coo",
    "founder",
    "president",
    "vp",
    "vice president",
)

# The model/prompt feature set. Event flags (had_ipo, was_acquired) are
# label material and deliberately excluded.
FEATURE_COLUMNS = (
    "age_years",
    "total_raised_usd",
    "num_funding_rounds",
    "num_investors",
    "num_acquisitions_made",
    "num_executives",
)

# A profile holds three strings, the six FEATURE_COLUMNS numbers and five
# 0/1 flags.
TEXT_PROFILE_FIELDS = ("org_id", "name", "description")
FLAG_PROFILE_FIELDS = ("had_ipo", "was_acquired", "success", "age_imputed", "raised_imputed")

DESC_TOKEN_BUCKETS = (0, 8, 16, 32, 64, 128, 256, 512)


class CompanyProfile(NamedTuple):
    org_id: str
    name: str
    description: str
    age_years: float
    total_raised_usd: float
    num_funding_rounds: int
    num_investors: int
    num_acquisitions_made: int
    num_executives: int
    had_ipo: int
    was_acquired: int
    success: int
    # Provenance: whether the value above came from an imputation default.
    age_imputed: int
    raised_imputed: int


PROFILE_FIELDS = CompanyProfile._fields


_EXECUTIVE_RE = re.compile(
    r"\b(?:" + "|".join(re.escape(k) for k in EXECUTIVE_TITLE_KEYWORDS) + r")\b", re.IGNORECASE
)


def compute_age(founded_on: Optional[date], reference_date: date) -> float:
    """Fractional years between founding and the reference date.

    Returns the sentinel -1 when no date is available. A founding date in
    the future of the reference date is a data anomaly and raises rather
    than being clamped.
    """
    if founded_on is None:
        return AGE_SENTINEL
    if founded_on > reference_date:
        raise DataError(
            f"founding date {founded_on.isoformat()} is after the reference "
            f"date {reference_date.isoformat()}"
        )
    return (reference_date - founded_on).days / DAYS_PER_YEAR


def derive_profiles(store: CompanyStore, reference_date: date = DEFAULT_REFERENCE_DATE):
    """Derive profiles for every organization, in load order.

    Each table is read once and counted per organization id. Age prefers the
    founding date and falls back to the record-creation date; both absent
    gives the -1 sentinel. All other numeric features impute missing inputs
    with zero. The label marks an IPO or an appearance as acquiree.

    Returns ``(profiles, anomalies)`` where anomalies lists
    ``(org_id, message)`` pairs for organizations skipped due to data
    anomalies (e.g. future-dated founding).
    """
    n_rounds, amounts, orgs_by_round = {}, {}, {}
    for r in store.funding_rounds:
        n_rounds[r.org_id] = n_rounds.get(r.org_id, 0) + 1
        # Listed in row order and added by sum(), whose float result a
        # running total need not match (Python 3.12 compensates).
        if r.raised_usd is not None:
            amounts.setdefault(r.org_id, []).append(r.raised_usd)
        orgs_by_round.setdefault(r.round_id, []).append(r.org_id)
    # A round id shared by two organizations counts its investors for both.
    investor_pairs = {
        (org_id, inv.investor_id)
        for inv in store.investments
        for org_id in orgs_by_round.get(inv.round_id, ())
    }
    investors = Counter(org_id for org_id, _ in investor_pairs)
    executives = Counter(job.org_id for job in store.jobs if _EXECUTIVE_RE.search(job.title))
    public = {ipo.org_id for ipo in store.ipos}
    acquired = {acq.acquiree_id for acq in store.acquisitions}
    acquisitions_made = Counter(acq.acquirer_id for acq in store.acquisitions)

    profiles, anomalies = [], []
    for org in store.organizations:
        org_id = org.org_id
        date_source = org.founded_on if org.founded_on is not None else org.created_at
        try:
            age = compute_age(date_source, reference_date)
        except DataError as exc:
            anomalies.append((org_id, str(exc)))
            continue
        rounds = n_rounds.get(org_id, 0)
        raised = amounts.get(org_id, ())
        had_ipo = 1 if org_id in public else 0
        was_acquired = 1 if org_id in acquired else 0
        profiles.append(
            CompanyProfile(
                org_id=org_id,
                name=org.name,
                description=org.description,
                age_years=age,
                total_raised_usd=float(sum(raised)),
                num_funding_rounds=rounds,
                num_investors=investors.get(org_id, 0),
                num_acquisitions_made=acquisitions_made.get(org_id, 0),
                num_executives=executives.get(org_id, 0),
                had_ipo=had_ipo,
                was_acquired=was_acquired,
                success=had_ipo | was_acquired,
                age_imputed=1 if date_source is None else 0,
                raised_imputed=1 if (rounds and not raised) else 0,
            )
        )
    return profiles, anomalies


def feature_vector(profile: CompanyProfile) -> list:
    return [float(getattr(profile, name)) for name in FEATURE_COLUMNS]


# NumPy is imported where arrays are built, so that the stages that never
# build one do not load it.
def feature_matrix(profiles):
    """``float64`` array of shape ``(len(profiles), len(FEATURE_COLUMNS))``."""
    import numpy as np

    return np.array([feature_vector(p) for p in profiles], dtype=np.float64)


def label_vector(profiles):
    """``float64`` array of the profiles' ``success`` labels."""
    import numpy as np

    return np.array([p.success for p in profiles], dtype=np.float64)


def _bucket_label(edges, i) -> str:
    if i == len(edges) - 1:
        return f"{edges[i]}+"
    return f"{edges[i]}-{edges[i + 1] - 1}"


@dataclass
class CorpusStats:
    n_total: int
    n_positive: int
    n_negative: int
    positive_ratio: float
    desc_token_histogram: dict
    feature_summary: dict


def corpus_stats(profiles) -> CorpusStats:
    """Class balance, description-length histogram (in prompt-budget tokens)
    and per-feature summary."""
    from .prompts import count_tokens  # no module-level cycle

    edges = DESC_TOKEN_BUCKETS
    labels = [_bucket_label(edges, i) for i in range(len(edges))]
    counts = [0] * len(edges)
    for p in profiles:
        # The last edge at or below the count; the first edge is 0.
        counts[bisect.bisect_right(edges, count_tokens(p.description)) - 1] += 1
    histogram = dict(zip(labels, counts))

    n_total = len(profiles)
    n_pos = sum(p.success for p in profiles)

    summary = {}
    for name in FEATURE_COLUMNS:
        values = [float(getattr(p, name)) for p in profiles]
        if name == "age_years":
            missing = [p.age_imputed for p in profiles]
        elif name == "total_raised_usd":
            missing = [p.raised_imputed for p in profiles]
        else:
            missing = []
        summary[name] = {
            "min": min(values) if values else 0.0,
            "median": statistics.median(values) if values else 0.0,
            "max": max(values) if values else 0.0,
            "missing_rate": (sum(missing) / n_total) if (missing and n_total) else 0.0,
        }

    return CorpusStats(
        n_total=n_total,
        n_positive=int(n_pos),
        n_negative=n_total - int(n_pos),
        positive_ratio=(n_pos / n_total) if n_total else 0.0,
        desc_token_histogram=histogram,
        feature_summary=summary,
    )


def balance_dataset(profiles, seed: int):
    """Undersample the majority class to the minority count (seeded, uniform).

    Keeps the original corpus order among retained profiles; an already
    balanced input comes back unchanged.
    """
    pos_idx = [i for i, p in enumerate(profiles) if p.success == 1]
    neg_idx = [i for i, p in enumerate(profiles) if p.success == 0]
    if not pos_idx or not neg_idx:
        raise DataError("both classes must be non-empty to balance")
    if len(pos_idx) == len(neg_idx):
        return list(profiles)

    major, minor = (pos_idx, neg_idx) if len(pos_idx) > len(neg_idx) else (neg_idx, pos_idx)
    rng = random.Random(seed)
    keep = set(rng.sample(major, len(minor))) | set(minor)
    return [p for i, p in enumerate(profiles) if i in keep]


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple = (0.8, 0.1, 0.1)
    seed: int = 0
    stratified: bool = True

    def validate(self) -> None:
        if len(self.ratios) != 3 or not all(r > 0 for r in self.ratios):  # NaN too
            raise ValueError("ratios must be three positive numbers")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(self.ratios)}")


def _largest_remainder(n: int, ratios) -> list:
    quotas = [n * r for r in ratios]
    base = [int(q) for q in quotas]
    remainder = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return base


def split_dataset(profiles, spec: SplitSpec):
    """Partition profiles into (train, val, test) by the spec's ratios.

    Stratified mode applies largest-remainder sizing within each class, so
    class ratios are preserved to within one company per split. The split
    is a true partition: disjoint, exhaustive, deterministic per seed.
    """
    spec.validate()
    if len(profiles) < 3:
        raise DataError(f"need at least 3 profiles to split, got {len(profiles)}")

    rng = random.Random(spec.seed)
    groups = (
        [
            [p for p in profiles if p.success == 1],
            [p for p in profiles if p.success == 0],
        ]
        if spec.stratified
        else [list(profiles)]
    )

    parts = ([], [], [])
    for group in groups:
        shuffled = list(group)
        rng.shuffle(shuffled)
        sizes = _largest_remainder(len(shuffled), spec.ratios)
        start = 0
        for i, size in enumerate(sizes):
            parts[i].extend(shuffled[start : start + size])
            start += size
    for part in parts:
        rng.shuffle(part)
    return parts


def write_profiles_csv(profiles, path) -> None:
    write_csv(path, PROFILE_FIELDS, profiles)


def decode_json(text):
    """``json.loads(text)``, with nesting too deep for the decoder raised as
    the ValueError that any other malformed JSON raises."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nesting too deep") from None


# json.dumps(obj, ensure_ascii=False), without the new encoder that
# json.dumps builds for every call that passes an argument.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(objs, path) -> int:
    """Write each object of ``objs`` as one JSON line; returns the count."""
    count = 0
    with output_file(path) as fh:
        for obj in objs:
            fh.write(encode_json(obj) + "\n")
            count += 1
    return count


def write_profiles_jsonl(profiles, path) -> int:
    return write_jsonl(map(CompanyProfile._asdict, profiles), path)


def read_jsonl(path, build, torn_tail=False) -> list:
    """``build(obj)`` for each JSON object line of ``path``; blank lines are
    skipped. A line that is not UTF-8, not a JSON object, or whose object
    ``build`` rejects (KeyError, TypeError, ValueError), raises DataError
    naming the file and line. With ``torn_tail``, a last line that has no
    newline and is not UTF-8 JSON is a write cut short, and is skipped."""
    out = []
    # surrogateescape defers decode errors to the line that holds them.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            reason = undecodable(line)
            if reason is None:
                try:
                    obj = decode_json(line)
                except ValueError as exc:
                    reason = f"not JSON: {exc}"
            if reason:
                if torn_tail and not line.endswith("\n"):
                    break
                raise DataError(f"{path}:{lineno}: {reason}")
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
            try:
                out.append(build(obj))
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: missing field {exc}")
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}")
    return out


# The value rules of every JSON reader: profiles, prompt records, audit
# lines, the synth config. type(), not isinstance: a JSON true or false is
# neither a number nor a flag nor a count.
_FLOAT_MAX = sys.float_info.max


def check_text(name: str, value) -> None:
    """Reject a field that should be text but is not a string, or that holds
    a lone surrogate."""
    if type(value) is not str:
        raise ValueError(f"{name} is not a string: {value!r}")
    if not value.isascii() and SURROGATE_RE.search(value):
        raise ValueError(f"{name} holds a lone surrogate: {value!r}")


def is_number(value) -> bool:
    """An int or float within the float range: JSON's NaN and Infinity, and
    integers too large for a float, are not numbers."""
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def check_number(name: str, value) -> None:
    if not is_number(value):
        raise ValueError(f"{name} is not a finite number: {value!r}")


def check_flag(name: str, value) -> None:
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"{name} is not 0 or 1: {value!r}")


def check_count(name: str, value) -> None:
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} is not a count: {value!r}")


_dict_values = operator.itemgetter(*PROFILE_FIELDS)
_PROFILE_RULES = tuple(
    zip(
        PROFILE_FIELDS,
        [check_text] * len(TEXT_PROFILE_FIELDS)
        + [check_number] * len(FEATURE_COLUMNS)
        + [check_flag] * len(FLAG_PROFILE_FIELDS),
    )
)


def _profile_from_dict(obj: dict) -> CompanyProfile:
    """The profile ``obj`` holds, or ValueError naming its first bad field.
    Other keys are ignored."""
    values = _dict_values(obj)  # a KeyError names the first missing field
    for (name, check), value in zip(_PROFILE_RULES, values):
        check(name, value)
    return tuple.__new__(CompanyProfile, values)  # CompanyProfile._make less its checks


def read_profiles_jsonl(path):
    return read_jsonl(path, _profile_from_dict)
