"""Pipeline command-line interface.

Subcommands compose into the full flow:

    synth -> ingest -> features -> (stats) -> split -> prompts
          -> train-baseline | eval-endpoint -> score

Each subcommand reads declared inputs and writes declared outputs under
the run's out directory, so any stage can be re-run in isolation. Exit
codes: 0 success, 2 usage/config problems, 3 data errors, 4 transport
errors. Structured JSONL progress lines go to stderr (or --log-file).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from datetime import date, datetime, timezone
from pathlib import Path

import click

# The data stages need none of the modules that load NumPy (client,
# gbdt, metrics, synth), so the commands that use those import them.
from . import config as config_mod
from . import features as features_mod
from . import ingest as ingest_mod
from . import prompts as prompts_mod
from .errors import DataError, ProtocolError, TransportError

EXIT_DATA = 3
EXIT_TRANSPORT = 4


def _log(ctx, stage: str, **fields) -> None:
    entry = {"ts": datetime.now(timezone.utc).isoformat(), "stage": stage}
    entry.update(fields)
    line = json.dumps(entry, ensure_ascii=False)
    log_file = ctx.obj.get("log_file")
    if log_file:
        with open(log_file, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    else:
        click.echo(line, err=True)


def _stage(name):
    """Wrap a command body: timing, structured logging, exit-code mapping."""

    def decorator(fn):
        @functools.wraps(fn)
        @click.pass_context
        def wrapper(ctx, *args, **kwargs):
            started = time.monotonic()
            try:
                counts = fn(ctx, *args, **kwargs) or {}
            except click.ClickException:
                raise
            except (ValueError, FileNotFoundError) as exc:
                raise click.UsageError(str(exc))
            except DataError as exc:
                _log(ctx, name, status="error", error=str(exc))
                click.echo(f"data error: {exc}", err=True)
                sys.exit(EXIT_DATA)
            except (TransportError, ProtocolError) as exc:
                _log(ctx, name, status="error", error=str(exc))
                click.echo(f"transport error: {exc}", err=True)
                sys.exit(EXIT_TRANSPORT)
            _log(
                ctx,
                name,
                status="ok",
                duration_s=round(time.monotonic() - started, 3),
                **counts,
            )

        return wrapper

    return decorator


def _eval_summary(result) -> dict:
    """The scoring keys shared by eval-endpoint's and score's reports, from
    a ``client.EvalResult``.

    ``latency_ms`` holds p50/p95/p99 of per-record latency (inclusive-method
    quantiles); ``parse_status`` counts records by parse status.
    """
    from . import client as client_mod

    latencies = [o.latency_ms for o in result.outcomes]
    if len(latencies) == 1:
        cuts = latencies * 99
    else:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    statuses = [o.response.parse_status for o in result.outcomes]
    return {
        "report": result.report.to_dict(),
        "parse_failures": result.parse_failures,
        "transport_failures": result.transport_failures,
        "n_records": len(result.outcomes),
        "attempts": sum(o.attempts for o in result.outcomes),
        "latency_ms": {f"p{q}": round(cuts[q - 1], 3) for q in (50, 95, 99)},
        "parse_status": {
            status: statuses.count(status)
            for status in (client_mod.PARSED, client_mod.FALLBACK_PARSED, client_mod.UNPARSEABLE)
        },
    }


def _cfg(ctx) -> config_mod.RunConfig:
    return ctx.obj["config"]


def _require_file(path, hint: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise click.UsageError(f"missing input {path} ({hint})")
    return path


def _write_json(path, payload) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Flat key=value run config; CLI flags take precedence.")
@click.option("--log-file", type=click.Path(), default=None,
              help="Append structured JSONL progress lines here instead of stderr.")
@click.pass_context
def main(ctx, config_path, log_file):
    """Company-data pipeline: synthesize, ingest, featurize, prompt, evaluate."""
    try:
        run_config = config_mod.load_run_config(config_path)
    except (ValueError, DataError) as exc:
        raise click.UsageError(f"bad config file: {exc}")
    ctx.obj = {"config": run_config, "log_file": log_file}


@main.command("synth")
@click.option("--synth-config", "synth_config_path", type=click.Path(exists=True),
              required=True, help="JSON generator config.")
@click.option("--out", "out_dir", default=None, help="Directory for the CSV tables.")
@click.option("--n", "n_companies", type=int, default=None, help="Override company count.")
@click.option("--seed", type=int, default=None, help="Override generator seed.")
@_stage("synth")
def synth_cmd(ctx, synth_config_path, out_dir, n_companies, seed):
    """Generate synthetic relational tables plus ground-truth labels."""
    from . import synth as synth_mod

    cfg = _cfg(ctx)
    out_dir = Path(out_dir or cfg.data_dir)
    synth_config = synth_mod.load_config(synth_config_path)
    if n_companies is not None:
        synth_config.n_companies = n_companies
    if seed is not None:
        synth_config.seed = seed
    synth_config.validate()
    result = synth_mod.generate(synth_config, out_dir)
    _write_json(
        out_dir / "synth_summary.json",
        {
            "n_companies": synth_config.n_companies,
            "n_positive": result.n_positive,
            "positive_ratio": (
                result.n_positive / synth_config.n_companies
                if synth_config.n_companies
                else 0.0
            ),
            "noise": synth_config.noise,
            "seed": synth_config.seed,
            "tables": {k: str(p) for k, p in result.table_paths.items()},
            "ground_truth": str(result.ground_truth_path),
        },
    )
    return {"n_companies": synth_config.n_companies, "n_positive": result.n_positive}


@main.command("ingest")
@click.option("--data-dir", default=None, help="Directory holding the six CSV tables.")
@click.option("--mapping", "mapping_path", type=click.Path(exists=True), default=None,
              help="Column mapping file (defaults to the built-in mapping).")
@click.option("--strict", is_flag=True, default=False,
              help="Promote per-row parse errors to a fatal data error.")
@click.option("--out", "out_dir", default=None)
@_stage("ingest")
def ingest_cmd(ctx, data_dir, mapping_path, strict, out_dir):
    """Load and validate the raw tables; write canonical copies."""
    cfg = _cfg(ctx)
    data_dir = Path(data_dir or cfg.data_dir)
    out_dir = Path(out_dir or cfg.out_dir)
    mapping_path = mapping_path or (cfg.mapping or None)
    mapping = ingest_mod.load_mapping_file(mapping_path) if mapping_path else None
    for kind in ingest_mod.TABLE_KINDS:
        _require_file(data_dir / f"{kind}.csv", "run `ventureval synth` or point --data-dir at your tables")

    store, row_errors = ingest_mod.load_directory(
        data_dir, mapping=mapping, strict=strict or cfg.strict_ingest
    )
    ingested_dir = out_dir / "ingested"
    ingested_dir.mkdir(parents=True, exist_ok=True)
    for kind in ingest_mod.TABLE_KINDS:
        ingest_mod.write_table(getattr(store, kind), ingested_dir / f"{kind}.csv", kind)
    n_errors = sum(len(v) for v in row_errors.values())
    _write_json(
        out_dir / "ingest_summary.json",
        {
            "integrity": store.integrity,
            "row_errors": {
                kind: [{"line": e.line, "reason": e.reason} for e in errs]
                for kind, errs in row_errors.items()
            },
            "n_row_errors": n_errors,
        },
    )
    return {
        "organizations": len(store.organizations),
        "row_errors": n_errors,
        "dangling": store.integrity["total_dangling"],
    }


@main.command("features")
@click.option("--ingested", "ingested_dir", default=None,
              help="Canonical tables from `ingest` (default: <out>/ingested).")
@click.option("--reference-date", default=None, help="Snapshot date for the age feature.")
@click.option("--out", "out_dir", default=None)
@_stage("features")
def features_cmd(ctx, ingested_dir, reference_date, out_dir):
    """Derive engineered company profiles from the ingested tables."""
    cfg = _cfg(ctx)
    out_dir = Path(out_dir or cfg.out_dir)
    ingested_dir = Path(ingested_dir or (out_dir / "ingested"))
    for kind in ingest_mod.TABLE_KINDS:
        _require_file(ingested_dir / f"{kind}.csv", "run `ventureval ingest` first")
    reference = date.fromisoformat(reference_date or cfg.reference_date)

    store, _ = ingest_mod.load_directory(
        ingested_dir, mapping=ingest_mod.identity_mapping()
    )
    profiles, anomalies = features_mod.derive_profiles(store, reference)
    features_mod.write_profiles_csv(profiles, out_dir / "profiles.csv")
    features_mod.write_profiles_jsonl(profiles, out_dir / "profiles.jsonl")
    n_positive = sum(p.success for p in profiles)
    _write_json(
        out_dir / "features_summary.json",
        {
            "n_profiles": len(profiles),
            "n_positive": n_positive,
            "n_negative": len(profiles) - n_positive,
            "reference_date": reference.isoformat(),
            "anomalies": [{"org_id": o, "reason": r} for o, r in anomalies],
        },
    )
    return {"profiles": len(profiles), "anomalies": len(anomalies)}


@main.command("stats")
@click.option("--profiles", "profiles_path", default=None)
@click.option("--out", "out_path", default=None)
@_stage("stats")
def stats_cmd(ctx, profiles_path, out_path):
    """Corpus statistics: class balance, description lengths, feature ranges."""
    cfg = _cfg(ctx)
    out_dir = Path(cfg.out_dir)
    profiles_path = _require_file(
        profiles_path or out_dir / "profiles.jsonl", "run `ventureval features` first"
    )
    profiles = features_mod.read_profiles_jsonl(profiles_path)
    stats = features_mod.corpus_stats(profiles)
    _write_json(out_path or out_dir / "stats.json", stats.to_dict())
    return {"profiles": stats.n_total, "positive_ratio": round(stats.positive_ratio, 4)}


@main.command("split")
@click.option("--profiles", "profiles_path", default=None)
@click.option("--out-dir", "splits_dir", default=None)
@click.option("--ratios", default=None, help="train,val,test ratios summing to 1.")
@click.option("--seed", type=int, default=None)
@click.option("--stratified/--no-stratified", default=None)
@_stage("split")
def split_cmd(ctx, profiles_path, splits_dir, ratios, seed, stratified):
    """Partition profiles into train/val/test JSONL files."""
    cfg = _cfg(ctx)
    out_dir = Path(cfg.out_dir)
    profiles_path = _require_file(
        profiles_path or out_dir / "profiles.jsonl", "run `ventureval features` first"
    )
    splits_dir = Path(splits_dir or out_dir / "splits")
    splits_dir.mkdir(parents=True, exist_ok=True)
    profiles = features_mod.read_profiles_jsonl(profiles_path)
    spec = features_mod.SplitSpec(
        ratios=tuple(float(p) for p in (ratios or cfg.ratios).split(",")),
        seed=seed if seed is not None else config_mod.derive_seed(cfg.seed, "split"),
        stratified=cfg.stratified if stratified is None else stratified,
    )
    train, val, test = features_mod.split_dataset(profiles, spec)
    counts = {}
    for name, part in (("train", train), ("val", val), ("test", test)):
        features_mod.write_profiles_jsonl(part, splits_dir / f"{name}.jsonl")
        counts[name] = len(part)
    _write_json(
        splits_dir / "split_summary.json",
        {"counts": counts, "seed": spec.seed, "ratios": list(spec.ratios),
         "stratified": spec.stratified},
    )
    return counts


@main.command("prompts")
@click.option("--profiles", "profiles_path", default=None,
              help="Profile JSONL to render (e.g. a split file).")
@click.option("--out", "out_path", default=None)
@click.option("--variant", default=None, type=click.Choice(prompts_mod.VARIANTS))
@click.option("--mode", default="sft", type=click.Choice(["sft", "inference"]))
@click.option("--budget", type=int, default=None, help="Token budget per record.")
@click.option("--balance/--no-balance", default=None,
              help="Class-balance before rendering (default: on for sft).")
@click.option("--balance-seed", type=int, default=None)
@click.option("--fewshot-k", type=int, default=None,
              help="Emit a balanced subset of exactly k records.")
@click.option("--fewshot-seed", type=int, default=None)
@click.option("--include-description/--no-include-description", default=None)
@click.option("--leakage-guard/--no-leakage-guard", default=None)
@click.option("--manifest", "manifest_path", default=None,
              help="Also write the fine-tuning config manifest here.")
@_stage("prompts")
def prompts_cmd(ctx, profiles_path, out_path, variant, mode, budget, balance,
                balance_seed, fewshot_k, fewshot_seed, include_description,
                leakage_guard, manifest_path):
    """Compile profiles into chat records (supervised or inference)."""
    cfg = _cfg(ctx)
    out_dir = Path(cfg.out_dir)
    profiles_path = _require_file(
        profiles_path or out_dir / "profiles.jsonl", "run `ventureval features` first"
    )
    out_path = Path(out_path or out_dir / "prompts.jsonl")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    variant = variant or cfg.variant
    budget = budget if budget is not None else cfg.budget
    include_description = (
        cfg.include_description if include_description is None else include_description
    )
    leakage_guard = cfg.leakage_guard if leakage_guard is None else leakage_guard
    if balance is None:
        balance = mode == "sft"

    profiles = features_mod.read_profiles_jsonl(profiles_path)
    if balance:
        profiles = features_mod.balance_dataset(
            profiles,
            balance_seed
            if balance_seed is not None
            else config_mod.derive_seed(cfg.seed, "balance"),
        )
    records = [
        prompts_mod.enforce_budget(
            prompts_mod.render_prompt(
                profile,
                variant=variant,
                mode=mode,
                include_description=include_description,
                leakage_guard=leakage_guard,
            ),
            max_tokens=budget,
        )
        for profile in profiles
    ]
    if fewshot_k is not None:
        records = prompts_mod.sample_fewshot(
            records,
            fewshot_k,
            fewshot_seed
            if fewshot_seed is not None
            else config_mod.derive_seed(cfg.seed, "fewshot"),
        )
    count = prompts_mod.emit_jsonl(records, out_path)
    if manifest_path or mode == "sft":
        manifest_path = Path(manifest_path or out_path.parent / "training_manifest.json")
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(prompts_mod.emit_training_manifest(), encoding="utf-8")
    return {"records": count, "variant": variant, "mode": mode}


@main.command("train-baseline")
@click.option("--splits", "splits_dir", default=None)
@click.option("--out", "model_dir", default=None)
@click.option("--rounds", "n_rounds", type=int, default=None)
@click.option("--depth", "max_depth", type=int, default=None)
@click.option("--learning-rate", type=float, default=None)
@click.option("--reg-lambda", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--min-child-weight", type=float, default=None)
@click.option("--threshold", type=float, default=0.5)
@_stage("train-baseline")
def train_baseline_cmd(ctx, splits_dir, model_dir, n_rounds, max_depth,
                       learning_rate, reg_lambda, gamma, min_child_weight, threshold):
    """Train the boosted-tree baseline and report on the test split."""
    from . import gbdt as gbdt_mod
    from . import metrics as metrics_mod

    cfg = _cfg(ctx)
    out_dir = Path(cfg.out_dir)
    splits_dir = Path(splits_dir or out_dir / "splits")
    model_dir = Path(model_dir or out_dir / "baseline")
    model_dir.mkdir(parents=True, exist_ok=True)
    for name in ("train", "test"):
        _require_file(splits_dir / f"{name}.jsonl", "run `ventureval split` first")

    train = features_mod.read_profiles_jsonl(splits_dir / "train.jsonl")
    test = features_mod.read_profiles_jsonl(splits_dir / "test.jsonl")
    model_config = gbdt_mod.GbdtConfig(
        n_rounds=n_rounds if n_rounds is not None else cfg.baseline_n_rounds,
        max_depth=max_depth if max_depth is not None else cfg.baseline_max_depth,
        learning_rate=(
            learning_rate if learning_rate is not None else cfg.baseline_learning_rate
        ),
        reg_lambda=reg_lambda if reg_lambda is not None else cfg.baseline_reg_lambda,
        gamma=gamma if gamma is not None else cfg.baseline_gamma,
        min_child_weight=(
            min_child_weight
            if min_child_weight is not None
            else cfg.baseline_min_child_weight
        ),
        seed=config_mod.derive_seed(cfg.seed, "baseline"),
    )
    if not train:
        raise DataError("training split is empty")
    if len({p.success for p in train}) == 1:
        raise DataError("training labels contain a single class")
    model = gbdt_mod.fit(
        features_mod.feature_matrix(train), features_mod.label_vector(train), model_config
    )
    gbdt_mod.save_model(model, model_dir / "model.json")

    preds = gbdt_mod.predict_many(
        model, features_mod.feature_matrix(test), threshold=threshold
    )
    labels = [p.success for p in test]
    metrics_report = metrics_mod.report(metrics_mod.confusion(list(preds), labels))
    _write_json(
        model_dir / "report.json",
        {
            "test": metrics_report.to_dict(),
            "config": {
                "n_rounds": model_config.n_rounds,
                "max_depth": model_config.max_depth,
                "learning_rate": model_config.learning_rate,
                "reg_lambda": model_config.reg_lambda,
                "gamma": model_config.gamma,
                "min_child_weight": model_config.min_child_weight,
                "seed": model_config.seed,
            },
            "final_train_logloss": model.train_loss[-1] if model.train_loss else None,
        },
    )
    click.echo(metrics_report.format_table())
    return {
        "train": len(train),
        "test": len(test),
        "test_accuracy": round(metrics_report.accuracy, 4),
    }


@main.command("eval-endpoint")
@click.option("--dataset", "dataset_path", default=None,
              help="Prompt JSONL with true labels (from `prompts`).")
@click.option("--base-url", default=None)
@click.option("--model", "model_name", default=None)
@click.option("--api-key-env", default=None,
              help="Environment variable holding the bearer key.")
@click.option("--temperature", type=float, default=None)
@click.option("--max-completion-tokens", type=int, default=None)
@click.option("--timeout-s", type=float, default=None)
@click.option("--max-retries", type=int, default=None)
@click.option("--max-in-flight", type=int, default=None)
@click.option("--shots", type=int, default=0,
              help="Prepend this many in-context exemplars per request.")
@click.option("--exemplars", "exemplars_path", default=None,
              help="Supervised JSONL to draw in-context exemplars from.")
@click.option("--out", "eval_dir", default=None)
@_stage("eval-endpoint")
def eval_endpoint_cmd(ctx, dataset_path, base_url, model_name, api_key_env,
                      temperature, max_completion_tokens, timeout_s, max_retries,
                      max_in_flight, shots, exemplars_path, eval_dir):
    """Evaluate a chat-completion endpoint on a compiled prompt dataset."""
    from . import client as client_mod

    cfg = _cfg(ctx)
    out_dir = Path(cfg.out_dir)
    dataset_path = _require_file(
        dataset_path or out_dir / "prompts.jsonl", "run `ventureval prompts` first"
    )
    eval_dir = Path(eval_dir or out_dir / "eval")
    eval_dir.mkdir(parents=True, exist_ok=True)
    base_url = base_url or cfg.endpoint_base_url
    if not base_url:
        raise click.UsageError("--base-url (or endpoint.base_url in the config) is required")

    endpoint = client_mod.EndpointConfig(
        base_url=base_url,
        model=model_name or cfg.endpoint_model or "default",
        api_key_env=api_key_env if api_key_env is not None else cfg.endpoint_api_key_env,
        temperature=temperature if temperature is not None else cfg.endpoint_temperature,
        max_completion_tokens=(
            max_completion_tokens
            if max_completion_tokens is not None
            else cfg.endpoint_max_completion_tokens
        ),
        timeout_s=timeout_s if timeout_s is not None else cfg.endpoint_timeout_s,
        max_retries=max_retries if max_retries is not None else cfg.endpoint_max_retries,
        max_in_flight=(
            max_in_flight if max_in_flight is not None else cfg.endpoint_max_in_flight
        ),
    )

    records = prompts_mod.read_records_jsonl(dataset_path)
    if shots > 0:
        exemplars_path = _require_file(
            exemplars_path or out_dir / "prompts.jsonl",
            "--shots needs --exemplars pointing at a supervised dataset",
        )
        pool = prompts_mod.read_records_jsonl(exemplars_path)
        exemplars = prompts_mod.sample_fewshot(
            pool, shots, config_mod.derive_seed(cfg.seed, "exemplars")
        )
        turns = []
        for ex in exemplars:
            turns.extend(m for m in ex.messages if m.role in ("user", "assistant"))
        records = [
            prompts_mod.ChatRecord(
                messages=turns + rec.messages,
                metadata=dict(rec.metadata),
                label=rec.label,
                justification=rec.justification,
            )
            for rec in records
        ]

    result = client_mod.run_eval(endpoint, records, audit_path=eval_dir / "audit.jsonl")
    summary = _eval_summary(result)
    _write_json(
        eval_dir / "report.json",
        {**summary, "model": endpoint.model, "base_url": endpoint.base_url, "shots": shots},
    )
    with open(eval_dir / "outcomes.jsonl", "w", encoding="utf-8") as fh:
        for outcome in result.outcomes:
            fh.write(
                json.dumps(
                    {
                        "org_id": outcome.org_id,
                        "true_label": outcome.true_label,
                        "predicted_label": outcome.response.label,
                        "parse_status": outcome.response.parse_status,
                        "correct": outcome.correct,
                        "latency_ms": outcome.latency_ms,
                        "attempts": outcome.attempts,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    click.echo(result.report.format_table())
    if result.transport_failures == len(result.outcomes):
        raise TransportError("every request failed at the transport level")
    return {
        "records": len(result.outcomes),
        "accuracy": round(result.report.accuracy, 4),
        "parse_failures": result.parse_failures,
        "transport_failures": result.transport_failures,
        "attempts": summary["attempts"],
        "latency_ms": summary["latency_ms"],
    }


@main.command("score")
@click.option("--audit", "audit_path", default=None)
@click.option("--dataset", "dataset_path", default=None,
              help="Prompt JSONL carrying the true labels (joined on org_id).")
@click.option("--out", "out_path", default=None)
@_stage("score")
def score_cmd(ctx, audit_path, dataset_path, out_path):
    """Re-score a persisted audit log offline (no endpoint access)."""
    from . import client as client_mod

    cfg = _cfg(ctx)
    out_dir = Path(cfg.out_dir)
    audit_path = _require_file(
        audit_path or out_dir / "eval" / "audit.jsonl", "run `ventureval eval-endpoint` first"
    )
    dataset_path = _require_file(
        dataset_path or out_dir / "prompts.jsonl", "the dataset supplies true labels"
    )
    labels_by_org = {}
    for record in prompts_mod.read_records_jsonl(dataset_path):
        org_id = record.metadata.get("org_id")
        if org_id is not None and record.label is not None:
            labels_by_org[org_id] = record.label
    result = client_mod.score_audit_log(audit_path, labels_by_org)
    _write_json(out_path or out_dir / "eval" / "rescore_report.json", _eval_summary(result))
    click.echo(result.report.format_table())
    return {
        "records": len(result.outcomes),
        "accuracy": round(result.report.accuracy, 4),
    }


if __name__ == "__main__":
    main()
