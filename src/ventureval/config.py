"""Run configuration: defaults < config file < CLI flags.

The config file is the same flat ``key = value`` format as the column
mapping. The endpoint and baseline settings are the fields of
``EndpointConfig`` and ``GbdtConfig``, named by dotted keys
(``endpoint.base_url``, ``baseline.n_rounds``). All stage seeds derive
from the single root seed, so a whole pipeline run is reproducible from
one integer.
"""

from __future__ import annotations

import math
import urllib.parse
from dataclasses import dataclass, field, fields, replace
from datetime import date

from .ingest import parse_kv_file

# Snapshot date the age feature is measured against; override per run.
DEFAULT_REFERENCE_DATE = date(2025, 6, 11)

# The prompt variants, from bare (V1) to most structured (V4); see prompts.
VARIANTS = ("V1", "V2", "V3", "V4")

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def derive_seed(root_seed: int, stage: str) -> int:
    """Stable per-stage seed derived from the root seed."""
    import hashlib  # only the stages that draw a seed pay for its import

    digest = hashlib.blake2b(f"{root_seed}:{stage}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**31)


@dataclass(frozen=True)
class GbdtConfig:
    n_rounds: int = 100
    max_depth: int = 4
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0

    def validate(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (self.reg_lambda >= 0 and self.gamma >= 0 and self.min_child_weight >= 0):  # NaN too
            raise ValueError("reg_lambda, gamma and min_child_weight must be >= 0")


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str = ""
    model: str = ""
    api_key_env: str = ""
    temperature: float = 0.0
    max_completion_tokens: int = 128
    timeout_s: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 4

    def validate(self) -> None:
        try:
            url = urllib.parse.urlsplit(self.base_url)
            url.port  # raises ValueError for a non-numeric or out-of-range port
        except ValueError:
            url = None
        if not (url and url.scheme in ("http", "https") and url.hostname):
            raise ValueError(f"base_url must be an http(s) URL with a valid host and port, got {self.base_url!r}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError(f"timeout_s must be finite and > 0, got {self.timeout_s!r}")
        if self.max_completion_tokens < 1:
            raise ValueError("max_completion_tokens must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    reference_date: str = DEFAULT_REFERENCE_DATE.isoformat()
    variant: str = "V4"
    budget: int = 256
    seed: int = 0
    ratios: str = "0.8,0.1,0.1"
    stratified: bool = True
    include_description: bool = True
    leakage_guard: bool = True
    strict_ingest: bool = False
    mapping: str = ""
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    baseline: GbdtConfig = field(default_factory=GbdtConfig)


# The nested configs: "endpoint.base_url" names the base_url of endpoint.
_SECTIONS = ("endpoint", "baseline")


def _parsed(config, name: str, raw: str, key: str):
    """``raw`` converted to the type of ``config``'s field ``name``."""
    if name not in {f.name for f in fields(config)}:
        raise ValueError(f"unknown config key {key!r}")
    current = getattr(config, name)
    if isinstance(current, bool):
        return _to_bool(raw)
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def load_run_config(path=None) -> RunConfig:
    """Build a RunConfig from defaults, optionally updated by a kv file."""
    config = RunConfig()
    if path is None:
        return config
    for key, raw in parse_kv_file(path).items():
        section, dot, name = key.rpartition(".")
        if not dot and key not in _SECTIONS:
            setattr(config, key, _parsed(config, key, raw, key))
        elif section in _SECTIONS:
            nested = getattr(config, section)
            setattr(config, section, replace(nested, **{name: _parsed(nested, name, raw, key)}))
        else:
            raise ValueError(f"unknown config key {key!r}")
    return config
