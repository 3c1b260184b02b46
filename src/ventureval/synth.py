"""Synthetic relational company tables with a known success mechanism.

Feature rows (rounds, investments, jobs, founding dates) are generated
first; the latent score is a linear function of the standardized
*realized* features, so labels computed downstream from the written CSVs
agree with the recorded ground truth. Success events are then realized as
an IPO row or an acquisition row (acquiree role) per positive company,
with a 50/50 seeded choice, and optional-field blanking happens last so
missingness can never corrupt a label.

The acquisitions-made count is emergent (acquirers are drawn uniformly, so
it carries no label signal) and its coefficient must therefore be zero;
the config validator enforces this.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import ingest
from .config import DEFAULT_REFERENCE_DATE
from .features import DAYS_PER_YEAR, FEATURE_COLUMNS, compute_age, write_jsonl

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


def _is_number(value) -> bool:
    # type(), not isinstance: a JSON true is not a number.
    return type(value) in (int, float)


# What a JSON value must be, by the type of the field's default.
_FIELD_TYPES = {
    str: ("a string", lambda v: type(v) is str),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", _is_number),
    tuple: ("a list of numbers", lambda v: type(v) in (list, tuple) and all(map(_is_number, v))),
    dict: ("an object of numbers", lambda v: type(v) is dict and all(map(_is_number, v.values()))),
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
            date.fromisoformat(self.reference_date)
        except ValueError:
            raise ValueError(f"reference_date must be an ISO date, got {self.reference_date!r}")
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
        for name in ("rounds_lambda", "investors_lambda", "executives_lambda", "other_jobs_lambda"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
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
        means, stds = standardization_moments(self)
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
        return SynthConfig.from_dict(json.load(fh))


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


def _round_amounts(rng, config, count: int):
    if count == 0:
        return []
    draws = rng.lognormal(config.funding_mu, config.funding_sigma, count)
    return [max(0.0, float(np.round(a))) for a in draws]


def _blank(rows, column, rate, rng, empty=None):
    """Set ``column`` to ``empty`` in each row with probability ``rate``,
    one draw per row in order; no draws when the rate is unset or 0."""
    if not rate:
        return rows
    return [row._replace(**{column: empty}) if rng.random() < rate else row for row in rows]


def generate(config: SynthConfig, out_dir) -> GeneratedCorpus:
    """Write the six CSV tables plus a ground-truth JSONL into ``out_dir``.

    Fully deterministic for a given config (byte-identical across runs).
    The tables use the package's default column mapping, so they feed
    straight into ingestion with no flags.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    reference = date.fromisoformat(config.reference_date)
    lo, hi = config.age_range_years

    orgs, rounds, investments, jobs = [], [], [], []
    ipos, acquisitions = [], []
    features = np.zeros((config.n_companies, 6), dtype=np.float64)
    founded_dates = []

    for i in range(config.n_companies):
        org_id = f"org_{i:05d}"
        name = (
            f"{_NAME_PREFIXES[int(rng.integers(len(_NAME_PREFIXES)))]} "
            f"{_NAME_SUFFIXES[int(rng.integers(len(_NAME_SUFFIXES)))]} {i}"
        )
        age_draw = float(rng.uniform(lo, hi))
        founded = reference - timedelta(days=int(round(age_draw * DAYS_PER_YEAR)))
        founded_dates.append(founded)

        n_rounds = int(rng.poisson(config.rounds_lambda))
        amounts = _round_amounts(rng, config, n_rounds)
        max_offset = max((reference - founded).days, 2)
        for k in range(n_rounds):
            rounds.append(
                ingest.FundingRoundRow(
                    round_id=f"rnd_{i:05d}_{k:02d}",
                    org_id=org_id,
                    announced_on=founded + timedelta(days=int(rng.integers(1, max_offset))),
                    raised_usd=amounts[k],
                )
            )

        n_investors = int(rng.poisson(config.investors_lambda)) if n_rounds > 0 else 0
        for j in range(n_investors):
            investments.append(
                ingest.InvestmentRow(
                    round_id=f"rnd_{i:05d}_{j % n_rounds:02d}",
                    investor_id=f"inv_{i:05d}_{j:02d}",
                )
            )

        n_execs = int(rng.poisson(config.executives_lambda))
        for k in range(n_execs):
            jobs.append(
                ingest.JobRow(
                    org_id=org_id,
                    person_id=f"per_{i:05d}_{k:02d}",
                    title=_EXEC_TITLES[int(rng.integers(len(_EXEC_TITLES)))],
                )
            )
        n_other = int(rng.poisson(config.other_jobs_lambda))
        for k in range(n_other):
            jobs.append(
                ingest.JobRow(
                    org_id=org_id,
                    person_id=f"per_{i:05d}_{n_execs + k:02d}",
                    title=_OTHER_TITLES[int(rng.integers(len(_OTHER_TITLES)))],
                )
            )

        sentences = [
            f"{name} builds "
            f"{_DESC_QUALIFIERS[int(rng.integers(len(_DESC_QUALIFIERS)))]} "
            f"{_DESC_DOMAINS[int(rng.integers(len(_DESC_DOMAINS)))]} for "
            f"{_DESC_AUDIENCES[int(rng.integers(len(_DESC_AUDIENCES)))]}."
        ]
        for _ in range(int(rng.poisson(1.0))):
            sentences.append(_DESC_EXTRAS[int(rng.integers(len(_DESC_EXTRAS)))])
        if rng.random() < config.leak_phrase_rate:
            sentences.append(_LEAK_SENTENCES[int(rng.integers(len(_LEAK_SENTENCES)))])
        description = " ".join(sentences)

        orgs.append(
            ingest.OrganizationRow(
                org_id=org_id,
                name=name,
                description=description,
                founded_on=founded,
                created_at=None,
            )
        )
        features[i] = [
            compute_age(founded, reference),
            float(sum(amounts)),
            n_rounds,
            n_investors,
            0.0,
            n_execs,
        ]

    latents = latent_score(features, config) if config.n_companies else np.zeros(0)
    if config.noise == "threshold":
        labels = (latents > 0).astype(np.int64)
    else:
        labels = (rng.random(config.n_companies) < _sigmoid(latents)).astype(np.int64)

    # Event realization: exactly one exit row per positive company.
    for i in range(config.n_companies):
        if labels[i] != 1:
            continue
        founded = founded_dates[i]
        max_offset = max((reference - founded).days, 2)
        event_date = founded + timedelta(days=int(rng.integers(1, max_offset)))
        use_ipo = bool(rng.random() < 0.5) or config.n_companies < 2
        if use_ipo:
            ipos.append(ingest.IpoRow(org_id=f"org_{i:05d}", went_public_on=event_date))
        else:
            j = int(rng.integers(config.n_companies - 1))
            if j >= i:
                j += 1
            acquisitions.append(
                ingest.AcquisitionRow(
                    acquiree_id=f"org_{i:05d}",
                    acquirer_id=f"org_{j:05d}",
                    announced_on=event_date,
                )
            )

    # Missingness last: blanking optional fields cannot change any label.
    rates = config.missing_rates
    orgs = _blank(orgs, "founded_on", rates.get("founded_on"), rng)
    orgs = _blank(orgs, "description", rates.get("description"), rng, empty="")
    rounds = _blank(rounds, "raised_usd", rates.get("raised_usd"), rng)
    rounds = _blank(rounds, "announced_on", rates.get("announced_on"), rng)

    tables = {
        "organizations": orgs,
        "funding_rounds": rounds,
        "investments": investments,
        "ipos": ipos,
        "acquisitions": acquisitions,
        "jobs": jobs,
    }
    mapping = ingest.default_mapping()
    table_paths = {}
    for kind, rows in tables.items():
        table_paths[kind] = out_dir / f"{kind}.csv"
        ingest.write_table(rows, table_paths[kind], kind, mapping=mapping)

    ground_truth = [
        {
            "org_id": f"org_{i:05d}",
            "latent": float(latents[i]),
            "label": int(labels[i]),
        }
        for i in range(config.n_companies)
    ]
    gt_path = out_dir / "ground_truth.jsonl"
    write_jsonl(ground_truth, gt_path)
    return GeneratedCorpus(
        table_paths=table_paths,
        ground_truth_path=gt_path,
        ground_truth=ground_truth,
        n_positive=int(labels.sum()),
    )


def _simulate_realized_features(config: SynthConfig, n: int, rng) -> np.ndarray:
    """Fresh draws from the same realized-feature process generate() uses."""
    lo, hi = config.age_range_years
    age = np.round(rng.uniform(lo, hi, n) * DAYS_PER_YEAR) / DAYS_PER_YEAR
    n_rounds = rng.poisson(config.rounds_lambda, n)
    total = n_rounds.sum()
    amounts = np.round(rng.lognormal(config.funding_mu, config.funding_sigma, int(total)))
    boundaries = np.cumsum(n_rounds)[:-1]
    raised = np.array([chunk.sum() for chunk in np.split(amounts, boundaries)])
    investors = rng.poisson(config.investors_lambda, n).astype(np.float64)
    investors[n_rounds == 0] = 0.0
    execs = rng.poisson(config.executives_lambda, n).astype(np.float64)
    features = np.zeros((n, 6), dtype=np.float64)
    features[:, 0] = age
    features[:, 1] = raised
    features[:, 2] = n_rounds
    features[:, 3] = investors
    features[:, 5] = execs
    return features


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
    features = _simulate_realized_features(config, n_mc, rng)
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
    features = _simulate_realized_features(config, n_mc, rng)
    latents = latent_score(features, config)
    if config.noise == "threshold":
        return float((latents > 0).mean())
    return float(_sigmoid(latents).mean())
