"""Synthetic relational company tables with a known success mechanism.

Every per-company quantity is drawn first, one vector draw per quantity
in a fixed order; the ones the latent score reads come from
``_draw_companies``, which the Monte-Carlo estimators call too. The
latent score is a linear function of the standardized *realized*
features, so labels computed downstream from the written CSVs agree with
the recorded ground truth. Success events are then realized as
an IPO row or an acquisition row (acquiree role) per positive company,
with a 50/50 seeded choice, and optional-field blanking happens last so
missingness can never corrupt a label.

The acquisitions-made count is emergent (acquirers are drawn uniformly, so
it carries no label signal) and its coefficient must therefore be zero;
the config validator enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from itertools import islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ingest
from .config import DEFAULT_REFERENCE_DATE
from .features import DAYS_PER_YEAR, FEATURE_COLUMNS, decode_json, is_number, write_jsonl

NOISE_MODES = ("threshold", "logistic")

_MISSING_RATE_FIELDS = ("founded_on", "raised_usd", "announced_on", "description")

_NAME_PREFIXES = (
    "Nimbus", "Vertex", "Atlas", "Crimson", "Luminous", "Arcadia",
    "Solstice", "Beacon", "Cobalt", "Meridian", "Halcyon", "Juniper",
)
_NAME_SUFFIXES = (
    "Analytics", "Robotics", "Dynamics", "Systems", "Networks",
    "Biotech", "Labs", "Logistics", "Security", "Mobility",
)
_DESC_QUALIFIERS = (
    "cloud-based", "privacy-first", "real-time", "modular",
    "AI-assisted", "low-latency",
)
_DESC_DOMAINS = (
    "workflow automation tools", "supply-chain analytics",
    "clinical data platforms", "edge computing hardware",
    "payments infrastructure", "developer tooling",
    "fleet management software", "energy optimization systems",
)
_DESC_AUDIENCES = (
    "mid-market retailers", "hospital networks", "logistics operators",
    "independent developers", "regional banks", "manufacturing teams",
    "public agencies", "subscription businesses",
)
_DESC_EXTRAS = (
    "The platform integrates with existing systems and reports outcomes in real time.",
    "Customers cite fast onboarding and predictable pricing.",
    "A usage-based tier serves smaller teams.",
    "The roadmap focuses on reliability and compliance tooling.",
    "Deployments run on-premise or in the cloud.",
)
# Injected at a configurable rate to exercise the prompt leakage guard.
_LEAK_SENTENCES = (
    "The team recently completed an acquisition of a smaller rival.",
    "Trade press speculates about IPO plans.",
    "It acquired several patents last year.",
)
_EXEC_TITLES = (
    "CEO", "CTO", "CFO", "COO", "Founder", "President",
    "VP of Engineering", "VP of Sales", "Chief Product Officer",
    "Chief Revenue Officer",
)
_OTHER_TITLES = (
    "Software Engineer", "Data Analyst", "Account Manager", "Designer",
    "Recruiter", "Support Specialist", "Marketing Associate",
)


# The largest Poisson rate NumPy draws from; it refuses anything above.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.iinfo(np.int64).max ** 0.5


# What a JSON value must be, by the type of the field's default.
_FIELD_TYPES = {
    str: ("a string", lambda v: type(v) is str),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", is_number),
    tuple: ("a list of numbers", lambda v: type(v) in (list, tuple) and all(map(is_number, v))),
    dict: ("an object of numbers", lambda v: type(v) is dict and all(map(is_number, v.values()))),
}


@dataclass
class SynthConfig:
    n_companies: int = 1000
    seed: int = 0
    reference_date: str = DEFAULT_REFERENCE_DATE.isoformat()
    noise: str = "threshold"
    # Coefficients over standardized (age, raised, rounds, investors,
    # acquisitions_made, executives); index 4 must stay 0, see module doc.
    beta: tuple = (0.0, 1.4, 0.0, 0.9, 0.0, 0.7)
    intercept: float = -0.7
    age_range_years: tuple = (0.5, 20.0)
    funding_mu: float = 14.5
    funding_sigma: float = 1.0
    rounds_lambda: float = 2.0
    investors_lambda: float = 3.0
    executives_lambda: float = 2.5
    other_jobs_lambda: float = 1.5
    missing_rates: dict = field(default_factory=dict)
    leak_phrase_rate: float = 0.05

    def validate(self) -> None:
        if self.n_companies < 0:
            raise ValueError("n_companies must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        try:
            reference = ingest.parse_iso_date(self.reference_date)
        except ValueError:
            reference = None
        if reference is None:
            raise ValueError(f"reference_date must be an ISO date, got {self.reference_date!r}")
        if reference >= date.max:  # an event date can fall one day after it
            raise ValueError(f"reference_date must be before {date.max}")
        if self.noise not in NOISE_MODES:
            raise ValueError(f"noise must be one of {NOISE_MODES}")
        if len(self.beta) != 6:
            raise ValueError("beta must have 6 entries")
        if self.beta[4] != 0.0:
            raise ValueError(
                "the acquisitions-made coefficient must be 0: that feature is "
                "realized from success events, so a nonzero weight would make "
                "the mechanism circular"
            )
        lo, hi = self.age_range_years
        if not (0 <= lo <= hi):
            raise ValueError("age_range_years must satisfy 0 <= lo <= hi")
        if hi * DAYS_PER_YEAR > (reference - date.min).days:
            raise ValueError(f"age_range_years reaches before {date.min} from reference_date "
                             f"{self.reference_date}")
        for name in ("rounds_lambda", "investors_lambda", "executives_lambda", "other_jobs_lambda"):
            if not 0 <= getattr(self, name) <= _POISSON_LAM_MAX:
                raise ValueError(f"{name} must be in [0, {_POISSON_LAM_MAX:.6g}]")
        if self.funding_sigma < 0:
            raise ValueError("funding_sigma must be >= 0")
        for key, rate in self.missing_rates.items():
            if key not in _MISSING_RATE_FIELDS:
                raise ValueError(
                    f"unknown missing-rate field {key!r}; known: {_MISSING_RATE_FIELDS}"
                )
            if not (0 <= rate < 1):
                raise ValueError(f"missing rate for {key} must be in [0, 1)")
        if not (0 <= self.leak_phrase_rate < 1):
            raise ValueError("leak_phrase_rate must be in [0, 1)")
        try:
            means, stds = standardization_moments(self)
        except OverflowError:
            stds = [math.inf]
        if not np.isfinite(stds).all():
            raise ValueError("funding_mu, funding_sigma and rounds_lambda make the funding "
                             "moments overflow")
        for i, b in enumerate(self.beta):
            if b != 0.0 and stds[i] == 0.0:
                raise ValueError(
                    f"beta[{i}] is nonzero but feature {FEATURE_COLUMNS[i]} has zero "
                    "spread under this config"
                )

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthConfig":
        if type(obj) is not dict:
            raise ValueError(f"a synth config is a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown synth config keys: {sorted(unknown)}")
        defaults = cls()
        for name, value in obj.items():
            kind, check = _FIELD_TYPES[type(getattr(defaults, name))]
            if not check(value):
                raise ValueError(f"synth config field {name!r} must be {kind}, got {value!r}")
        cfg = cls(**obj)
        cfg.beta = tuple(cfg.beta)
        cfg.age_range_years = tuple(cfg.age_range_years)
        cfg.validate()
        return cfg


def load_config(path) -> SynthConfig:
    with open(path, encoding="utf-8") as fh:
        return SynthConfig.from_dict(decode_json(fh.read()))


def standardization_moments(config: SynthConfig):
    """Analytic means/stds that make the coefficient vector scale-free.

    Uses the reference moments of the underlying draws: uniform age,
    compound-Poisson funding total, Poisson counts. The emergent
    acquisitions-made feature gets (0, 1) as a placeholder; its
    coefficient is pinned to zero.
    """
    lo, hi = config.age_range_years
    age_mean = (lo + hi) / 2.0
    age_std = (hi - lo) / math.sqrt(12.0)

    m1 = math.exp(config.funding_mu + config.funding_sigma**2 / 2.0)
    m2 = math.exp(2.0 * config.funding_mu + 2.0 * config.funding_sigma**2)
    raised_mean = config.rounds_lambda * m1
    raised_std = math.sqrt(config.rounds_lambda * m2)

    means = np.array(
        [
            age_mean,
            raised_mean,
            config.rounds_lambda,
            config.investors_lambda,
            0.0,
            config.executives_lambda,
        ]
    )
    stds = np.array(
        [
            age_std,
            raised_std,
            math.sqrt(config.rounds_lambda),
            math.sqrt(config.investors_lambda),
            1.0,
            math.sqrt(config.executives_lambda),
        ]
    )
    return means, stds


def latent_score(features, config: SynthConfig) -> np.ndarray:
    """beta . z(features) + intercept for rows of realized feature vectors."""
    means, stds = standardization_moments(config)
    safe_stds = np.where(stds == 0.0, 1.0, stds)
    z = (np.asarray(features, dtype=np.float64) - means) / safe_stds
    return z @ np.asarray(config.beta, dtype=np.float64) + config.intercept


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class GeneratedCorpus:
    table_paths: dict
    ground_truth_path: Path
    ground_truth: list
    n_positive: int


class _Companies(NamedTuple):
    """The drawn quantities behind the latent score, one column each."""

    age_days: np.ndarray
    n_rounds: np.ndarray
    amounts: np.ndarray  # every round's amount, company by company
    investors: np.ndarray
    executives: np.ndarray
    features: np.ndarray  # (n, 6), in FEATURE_COLUMNS order


def _draw_companies(config: SynthConfig, n: int, rng) -> _Companies:
    """Draw ``n`` companies' ages, rounds, investors and executives, one
    vector draw per quantity. ``generate`` and the Monte-Carlo estimators
    both call this, so they sample one feature process."""
    lo, hi = config.age_range_years
    age_days = np.round(rng.uniform(lo, hi, n) * DAYS_PER_YEAR).astype(np.int64)
    n_rounds = rng.poisson(config.rounds_lambda, n)
    amounts = np.round(rng.lognormal(config.funding_mu, config.funding_sigma, int(n_rounds.sum())))
    # bincount adds each company's amounts in round order, as a sum over its rows does.
    raised = np.bincount(np.repeat(np.arange(n), n_rounds), weights=amounts, minlength=n)
    investors = rng.poisson(config.investors_lambda, n)
    investors[n_rounds == 0] = 0
    executives = rng.poisson(config.executives_lambda, n)
    features = np.zeros((n, 6), dtype=np.float64)
    features[:, 0] = age_days / DAYS_PER_YEAR
    features[:, 1] = raised
    features[:, 2] = n_rounds
    features[:, 3] = investors
    features[:, 5] = executives
    return _Companies(age_days, n_rounds, amounts, investors, executives, features)


def _blanks(rng, rate, count):
    """Which of ``count`` rows to blank, one draw per row; None, with no
    draw, when the rate is unset or 0."""
    return rng.random(count) < rate if rate else None


def _blanked(values, blanks, empty=None):
    """``values``, with ``empty`` in place of each one that ``blanks`` marks."""
    return values if blanks is None else (empty if b else v for v, b in zip(values, blanks.tolist()))


def _pick(choices, indices):
    """An iterator over ``choices[i]`` for each drawn index ``i``."""
    return map(choices.__getitem__, indices.tolist())


def generate(config: SynthConfig, out_dir) -> GeneratedCorpus:
    """Write the six CSV tables plus a ground-truth JSONL into ``out_dir``.

    Fully deterministic for a given config (byte-identical across runs).
    The tables use the package's default column mapping, so they feed
    straight into ingestion with no flags. Every quantity is drawn as one
    column, in a fixed order; the rows are then built from the columns
    while each table is written.
    """
    config.validate()
    out_dir = Path(out_dir)
    n = config.n_companies
    rng = np.random.default_rng(config.seed)
    drawn = _draw_companies(config, n, rng)
    n_other = rng.poisson(config.other_jobs_lambda, n)
    # A round or exit falls 1 .. max_offset - 1 days after founding, so at
    # most one day after the reference date.
    max_offsets = np.maximum(drawn.age_days, 2)
    round_offsets = rng.integers(1, np.repeat(max_offsets, drawn.n_rounds))
    prefixes = rng.integers(len(_NAME_PREFIXES), size=n)
    suffixes = rng.integers(len(_NAME_SUFFIXES), size=n)
    qualifiers = rng.integers(len(_DESC_QUALIFIERS), size=n)
    domains = rng.integers(len(_DESC_DOMAINS), size=n)
    audiences = rng.integers(len(_DESC_AUDIENCES), size=n)
    n_extras = rng.poisson(1.0, n)
    extras = rng.integers(len(_DESC_EXTRAS), size=int(n_extras.sum()))
    leaky = rng.random(n) < config.leak_phrase_rate
    leaks = rng.integers(len(_LEAK_SENTENCES), size=int(leaky.sum()))
    exec_titles = rng.integers(len(_EXEC_TITLES), size=int(drawn.executives.sum()))
    other_titles = rng.integers(len(_OTHER_TITLES), size=int(n_other.sum()))

    latents = latent_score(drawn.features, config)
    if config.noise == "threshold":
        labels = (latents > 0).astype(np.int64)
    else:
        labels = (rng.random(n) < _sigmoid(latents)).astype(np.int64)

    # Event realization: exactly one exit row per positive company.
    positives = np.flatnonzero(labels)
    event_offsets = rng.integers(1, max_offsets[positives])
    ipo = (rng.random(len(positives)) < 0.5) | (n < 2)  # a lone company has no acquirer
    acquirees = positives[~ipo]
    acquirers = rng.integers(n - 1, size=len(acquirees))
    acquirers += acquirers >= acquirees  # never the acquiree itself

    # Missingness last: blanking optional fields cannot change any label.
    rates = config.missing_rates
    no_founded = _blanks(rng, rates.get("founded_on"), n)
    no_description = _blanks(rng, rates.get("description"), n)
    no_raised = _blanks(rng, rates.get("raised_usd"), len(round_offsets))
    no_announced = _blanks(rng, rates.get("announced_on"), len(round_offsets))

    # The rows, built from the columns while each table is written.
    founded = ingest.parse_iso_date(config.reference_date).toordinal() - drawn.age_days
    round_company = np.repeat(np.arange(n), drawn.n_rounds)
    event_days = founded[positives] + event_offsets
    n_rounds = drawn.n_rounds.tolist()
    org_ids = [f"org_{i:05d}" for i in range(n)]
    names = [f"{p} {s} {i}" for i, (p, s) in
             enumerate(zip(_pick(_NAME_PREFIXES, prefixes), _pick(_NAME_SUFFIXES, suffixes)))]
    extra_sentences, leak_sentences = _pick(_DESC_EXTRAS, extras), _pick(_LEAK_SENTENCES, leaks)
    descriptions = (
        " ".join([f"{name} builds {q} {d} for {a}.",
                  *islice(extra_sentences, k), *islice(leak_sentences, leak)])
        for name, q, d, a, k, leak in zip(
            names, _pick(_DESC_QUALIFIERS, qualifiers), _pick(_DESC_DOMAINS, domains),
            _pick(_DESC_AUDIENCES, audiences), n_extras.tolist(), leaky.tolist())
    )
    exec_names, other_names = _pick(_EXEC_TITLES, exec_titles), _pick(_OTHER_TITLES, other_titles)
    staff = (  # each company's job titles, executives first
        [*islice(exec_names, e), *islice(other_names, o)]
        for e, o in zip(drawn.executives.tolist(), n_other.tolist())
    )
    tables = {
        "organizations": map(
            ingest.OrganizationRow, org_ids, names, _blanked(descriptions, no_description, ""),
            _blanked(map(date.fromordinal, founded.tolist()), no_founded),
            repeat(None)),  # created_at stays empty
        "funding_rounds": map(
            ingest.FundingRoundRow,
            (f"rnd_{i:05d}_{k:02d}" for i, r in enumerate(n_rounds) for k in range(r)),
            map(org_ids.__getitem__, round_company.tolist()),
            _blanked(map(date.fromordinal, (founded[round_company] + round_offsets).tolist()),
                     no_announced),
            _blanked(drawn.amounts.tolist(), no_raised)),
        "investments": (
            ingest.InvestmentRow(f"rnd_{i:05d}_{j % r:02d}", f"inv_{i:05d}_{j:02d}")
            for i, (r, v) in enumerate(zip(n_rounds, drawn.investors.tolist())) for j in range(v)),
        "ipos": (
            ingest.IpoRow(org_ids[i], date.fromordinal(day))
            for i, day in zip(positives[ipo].tolist(), event_days[ipo].tolist())),
        "acquisitions": (
            ingest.AcquisitionRow(org_ids[i], org_ids[j], date.fromordinal(day))
            for i, j, day in zip(acquirees.tolist(), acquirers.tolist(), event_days[~ipo].tolist())),
        "jobs": (
            ingest.JobRow(org_ids[i], f"per_{i:05d}_{k:02d}", title)
            for i, titles in enumerate(staff) for k, title in enumerate(titles)),
    }
    mapping = ingest.default_mapping()
    table_paths = {}
    for kind, rows in tables.items():
        table_paths[kind] = out_dir / f"{kind}.csv"
        ingest.write_table(rows, table_paths[kind], kind, mapping=mapping)

    ground_truth = [
        {"org_id": org_id, "latent": latent, "label": label}
        for org_id, latent, label in zip(org_ids, latents.tolist(), labels.tolist())
    ]
    gt_path = out_dir / "ground_truth.jsonl"
    write_jsonl(ground_truth, gt_path)
    return GeneratedCorpus(
        table_paths=table_paths,
        ground_truth_path=gt_path,
        ground_truth=ground_truth,
        n_positive=int(labels.sum()),
    )


@dataclass(frozen=True)
class BayesEstimate:
    accuracy: float
    std_error: float
    n_mc: int


def estimate_bayes_accuracy(config: SynthConfig, n_mc: int = 20000, seed: int = None) -> BayesEstimate:
    """Monte-Carlo estimate of the best achievable accuracy for the config.

    In threshold mode labels are a deterministic function of the features,
    so the answer is exactly 1. In logistic mode the estimate averages
    max(p, 1-p) over freshly simulated feature vectors.
    """
    config.validate()
    if config.noise == "threshold":
        return BayesEstimate(accuracy=1.0, std_error=0.0, n_mc=0)
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1000 for a stable estimate")
    rng = np.random.default_rng(config.seed + 1 if seed is None else seed)
    features = _draw_companies(config, n_mc, rng).features
    p = _sigmoid(latent_score(features, config))
    per_sample = np.maximum(p, 1.0 - p)
    return BayesEstimate(
        accuracy=float(per_sample.mean()),
        std_error=float(per_sample.std(ddof=1) / math.sqrt(n_mc)),
        n_mc=n_mc,
    )


def estimate_positive_rate(config: SynthConfig, n_mc: int = 20000, seed: int = None) -> float:
    """Monte-Carlo estimate of the positive-class rate the config implies."""
    config.validate()
    rng = np.random.default_rng(config.seed + 2 if seed is None else seed)
    features = _draw_companies(config, n_mc, rng).features
    latents = latent_score(features, config)
    if config.noise == "threshold":
        return float((latents > 0).mean())
    return float(_sigmoid(latents).mean())
