"""Run configuration: defaults < config file < CLI flags.

The config file is the same flat ``key = value`` format as the column
mapping; endpoint and baseline settings use dotted keys
(``endpoint.base_url``, ``baseline.n_rounds``). All stage seeds derive
from the single root seed, so a whole pipeline run is reproducible from
one integer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .ingest import parse_kv_file

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


@dataclass
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    reference_date: str = "2025-06-11"
    variant: str = "V4"
    budget: int = 256
    seed: int = 0
    ratios: str = "0.8,0.1,0.1"
    stratified: bool = True
    include_description: bool = True
    leakage_guard: bool = True
    strict_ingest: bool = False
    mapping: str = ""

    endpoint_base_url: str = ""
    endpoint_model: str = ""
    endpoint_api_key_env: str = ""
    endpoint_temperature: float = 0.0
    endpoint_max_completion_tokens: int = 128
    endpoint_timeout_s: float = 60.0
    endpoint_max_retries: int = 3
    endpoint_max_in_flight: int = 4

    baseline_n_rounds: int = 100
    baseline_max_depth: int = 4
    baseline_learning_rate: float = 0.1
    baseline_reg_lambda: float = 1.0
    baseline_gamma: float = 0.0
    baseline_min_child_weight: float = 1.0


# Dotted spellings of the endpoint and baseline fields: "endpoint.base_url"
# names endpoint_base_url.
_KEY_ALIASES = {
    f.name.replace("_", ".", 1): f.name
    for f in fields(RunConfig)
    if f.name.startswith(("endpoint_", "baseline_"))
}


def load_run_config(path=None) -> RunConfig:
    """Build a RunConfig from defaults, optionally updated by a kv file."""
    config = RunConfig()
    if path is None:
        return config
    flat = parse_kv_file(path)
    by_name = {f.name: f for f in fields(RunConfig)}
    for key, raw in flat.items():
        name = _KEY_ALIASES.get(key, key)
        if name not in by_name:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(config, name)
        if isinstance(current, bool):
            value = _to_bool(raw)
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw
        setattr(config, name, value)
    return config
