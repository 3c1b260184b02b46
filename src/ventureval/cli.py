"""Pipeline command-line interface.

Subcommands compose into the full flow:

    synth -> ingest -> features -> (stats) -> split -> prompts
          -> train-baseline | eval-endpoint -> score

Each subcommand reads declared inputs and writes declared outputs under
the run's out directory, so any stage can be re-run in isolation. Exit
codes: 0 success; 2 a bad flag, run config or synth config, or a missing
input; 3 a data error; 4 a transport error. Anything else exits 1 with a
traceback, and is a bug. Structured JSONL progress lines go to stderr (or
--log-file); a stage's line carries its ``duration_s``, the seconds of its
sub-steps (``_timed``) and its counts.

An option that falls back to the run config declares that as its default
(``_from_config``), so a flag always wins over the config file, which wins
over the built-in defaults.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click

# The commands import the other modules they use themselves: gbdt and
# synth load NumPy, client speaks HTTP, and features and prompts would cost
# the stages that never call them (ingest calls neither) their import.
from . import config as config_mod
from . import ingest as ingest_mod
from .config import VARIANTS, derive_seed
from .errors import DataError, TransportError

EXIT_DATA = 3
EXIT_TRANSPORT = 4

_PATH = click.Path(path_type=Path)
# A file output: click rejects a directory (exit 2) before any input is read.
_FILE = click.Path(path_type=Path, dir_okay=False)


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
    """Wrap a command body: timing, structured logging, exit-code mapping.

    Usage errors (exit 2) are raised as ``click.ClickException`` by option
    parsing, ``_require_file`` and ``_usage``, and pass through. Any other
    exception is a bug and keeps its traceback.
    """

    def decorator(fn):
        @functools.wraps(fn)
        @click.pass_context
        def wrapper(ctx, *args, **kwargs):
            started = time.monotonic()
            ctx.obj["timings"] = timings = {}
            try:
                counts = fn(ctx, *args, **kwargs) or {}
            except DataError as exc:
                _log(ctx, name, status="error", error=str(exc))
                click.echo(f"data error: {exc}", err=True)
                sys.exit(EXIT_DATA)
            except TransportError as exc:
                _log(ctx, name, status="error", error=str(exc))
                click.echo(f"transport error: {exc}", err=True)
                sys.exit(EXIT_TRANSPORT)
            _log(
                ctx,
                name,
                status="ok",
                duration_s=round(time.monotonic() - started, 3),
                **timings,
                **counts,
            )

        return wrapper

    return decorator


@contextlib.contextmanager
def _timed(ctx, key: str):
    """Add the seconds the block takes to the stage's log line as ``key``."""
    started = time.monotonic()
    yield
    ctx.obj["timings"][key] = round(time.monotonic() - started, 3)


@contextlib.contextmanager
def _usage():
    """Turn a ValueError raised while settings become objects into a usage
    error (exit 2). Read no data inside it."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


@contextlib.contextmanager
def _naming(path):
    """Prefix a DataError about the contents of ``path`` as a whole (too few
    profiles, a missing class) with the file's name."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _from_config(pick):
    """An option default taken from the run config that ``main`` loaded.

    Click calls it while parsing the subcommand, after ``main`` has set
    ``ctx.obj``, and runs the result through the option's type, so a config
    value is checked like the flag.
    """
    return lambda: pick(click.get_current_context().obj["config"])


def _in_out_dir(*parts):
    """An option default under the run config's ``out_dir``."""
    return _from_config(lambda c: Path(c.out_dir, *parts))


def _require_file(path: Path, hint: str) -> Path:
    if not path.exists() or path.is_dir():
        raise click.UsageError(f"missing input {path} ({hint})")
    return path


def _write_json(path, payload) -> None:
    with ingest_mod.output_file(path) as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Flat key=value run config; CLI flags take precedence.")
@click.option("--log-file", type=_FILE, default=None,
              help="Append structured JSONL progress lines here instead of stderr.")
@click.pass_context
def main(ctx, config_path, log_file):
    """Company-data pipeline: synthesize, ingest, featurize, prompt, evaluate."""
    try:
        run_config = config_mod.load_run_config(config_path)
    except ValueError as exc:
        raise click.UsageError(f"bad config file: {exc}")
    ctx.obj = {"config": run_config, "log_file": log_file}


@main.command("synth")
@click.option("--synth-config", "synth_config_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON generator config.")
@click.option("--out", "out_dir", type=_PATH, default=_from_config(lambda c: c.data_dir),
              help="Directory for the CSV tables.")
@click.option("--n", "n_companies", type=int, default=None, help="Override company count.")
@click.option("--seed", type=int, default=None, help="Override generator seed.")
@_stage("synth")
def synth_cmd(ctx, synth_config_path, out_dir, n_companies, seed):
    """Generate synthetic relational tables plus ground-truth labels."""
    from . import synth as synth_mod

    with _usage():
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
@click.option("--data-dir", type=_PATH, default=_from_config(lambda c: c.data_dir),
              help="Directory holding the six CSV tables.")
@click.option("--mapping", "mapping_path", type=click.Path(exists=True, dir_okay=False),
              default=_from_config(lambda c: c.mapping or None),
              help="Column mapping file (defaults to the built-in mapping).")
@click.option("--strict", is_flag=True, flag_value=True, default=_from_config(lambda c: c.strict_ingest),
              help="Promote per-row parse errors to a fatal data error.")
@click.option("--out", "out_dir", type=_PATH, default=_from_config(lambda c: c.out_dir))
@_stage("ingest")
def ingest_cmd(ctx, data_dir, mapping_path, strict, out_dir):
    """Load and validate the raw tables; write canonical copies."""
    for kind in ingest_mod.TABLE_KINDS:
        _require_file(data_dir / f"{kind}.csv", "run `ventureval synth` or point --data-dir at your tables")
    mapping = ingest_mod.load_mapping_file(mapping_path) if mapping_path else None

    with _timed(ctx, "load_s"):
        store, row_errors = ingest_mod.load_directory(data_dir, mapping=mapping, strict=strict)
    n_errors = sum(len(v) for v in row_errors.values())
    with _timed(ctx, "write_s"):
        for kind in ingest_mod.TABLE_KINDS:
            ingest_mod.write_table(getattr(store, kind), out_dir / "ingested" / f"{kind}.csv", kind)
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
@click.option("--ingested", "ingested_dir", type=_PATH, default=None,
              help="Canonical tables from `ingest` (default: <out>/ingested).")
@click.option("--reference-date", default=_from_config(lambda c: c.reference_date),
              help="Snapshot date for the age feature.")
@click.option("--out", "out_dir", type=_PATH, default=_from_config(lambda c: c.out_dir))
@_stage("features")
def features_cmd(ctx, ingested_dir, reference_date, out_dir):
    """Derive engineered company profiles from the ingested tables."""
    from . import features as features_mod

    with _usage():
        reference = ingest_mod.parse_iso_date(reference_date)
        if reference is None:
            raise ValueError(f"not an ISO-8601 date: {reference_date!r}")
    if ingested_dir is None:
        ingested_dir = out_dir / "ingested"
    for kind in ingest_mod.TABLE_KINDS:
        _require_file(ingested_dir / f"{kind}.csv", "run `ventureval ingest` first")

    # The tables are ingest's own output, so a row that fails to parse was
    # damaged since: stop on it rather than drop a company.
    with _timed(ctx, "load_s"):
        store, _ = ingest_mod.load_directory(
            ingested_dir, mapping=ingest_mod.identity_mapping(), strict=True
        )
    with _timed(ctx, "derive_s"):
        profiles, anomalies = features_mod.derive_profiles(store, reference)
    n_positive = sum(p.success for p in profiles)
    with _timed(ctx, "write_s"):
        features_mod.write_profiles_csv(profiles, out_dir / "profiles.csv")
        features_mod.write_profiles_jsonl(profiles, out_dir / "profiles.jsonl")
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
@click.option("--profiles", "profiles_path", type=_PATH, default=_in_out_dir("profiles.jsonl"))
@click.option("--out", "out_path", type=_FILE, default=_in_out_dir("stats.json"))
@_stage("stats")
def stats_cmd(ctx, profiles_path, out_path):
    """Corpus statistics: class balance, description lengths, feature ranges."""
    from . import features as features_mod

    _require_file(profiles_path, "run `ventureval features` first")
    with _timed(ctx, "read_s"):
        profiles = features_mod.read_profiles_jsonl(profiles_path)
    with _timed(ctx, "stats_s"):
        stats = features_mod.corpus_stats(profiles)
    _write_json(out_path, dataclasses.asdict(stats))
    return {"profiles": stats.n_total, "positive_ratio": round(stats.positive_ratio, 4)}


@main.command("split")
@click.option("--profiles", "profiles_path", type=_PATH, default=_in_out_dir("profiles.jsonl"))
@click.option("--out-dir", "splits_dir", type=_PATH, default=_in_out_dir("splits"))
@click.option("--ratios", default=_from_config(lambda c: c.ratios),
              help="train,val,test ratios summing to 1.")
@click.option("--seed", type=int, default=_from_config(lambda c: derive_seed(c.seed, "split")))
@click.option("--stratified/--no-stratified", default=_from_config(lambda c: c.stratified))
@_stage("split")
def split_cmd(ctx, profiles_path, splits_dir, ratios, seed, stratified):
    """Partition profiles into train/val/test JSONL files."""
    from . import features as features_mod

    with _usage():
        spec = features_mod.SplitSpec(
            ratios=tuple(float(p) for p in ratios.split(",")), seed=seed, stratified=stratified
        )
        spec.validate()
    _require_file(profiles_path, "run `ventureval features` first")
    with _timed(ctx, "read_s"):
        profiles = features_mod.read_profiles_jsonl(profiles_path)
    with _naming(profiles_path), _timed(ctx, "split_s"):
        train, val, test = features_mod.split_dataset(profiles, spec)
    with _timed(ctx, "write_s"):
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
@click.option("--profiles", "profiles_path", type=_PATH, default=_in_out_dir("profiles.jsonl"),
              help="Profile JSONL to render (e.g. a split file).")
@click.option("--out", "out_path", type=_FILE, default=_in_out_dir("prompts.jsonl"))
@click.option("--variant", type=click.Choice(VARIANTS),
              default=_from_config(lambda c: c.variant))
@click.option("--mode", default="sft", type=click.Choice(["sft", "inference"]))
@click.option("--budget", type=click.IntRange(min=1), default=_from_config(lambda c: c.budget),
              help="Token budget per record.")
@click.option("--balance/--no-balance", default=None,
              help="Class-balance before rendering (default: on for sft).")
@click.option("--balance-seed", type=int,
              default=_from_config(lambda c: derive_seed(c.seed, "balance")))
@click.option("--fewshot-k", type=click.IntRange(min=1), default=None,
              help="Emit a balanced subset of exactly k records.")
@click.option("--fewshot-seed", type=int,
              default=_from_config(lambda c: derive_seed(c.seed, "fewshot")))
@click.option("--include-description/--no-include-description",
              default=_from_config(lambda c: c.include_description))
@click.option("--leakage-guard/--no-leakage-guard", default=_from_config(lambda c: c.leakage_guard))
@click.option("--manifest", "manifest_path", type=_FILE, default=None,
              help="Also write the fine-tuning config manifest here.")
@_stage("prompts")
def prompts_cmd(ctx, profiles_path, out_path, variant, mode, budget, balance,
                balance_seed, fewshot_k, fewshot_seed, include_description,
                leakage_guard, manifest_path):
    """Compile profiles into chat records (supervised or inference)."""
    from . import features as features_mod
    from . import prompts as prompts_mod

    with _usage():
        floor = prompts_mod.template_tokens(variant)
        if budget < floor:
            raise ValueError(
                f"budget {budget} is below the {floor} tokens every {variant} record carries"
            )
    _require_file(profiles_path, "run `ventureval features` first")
    if balance is None:
        balance = mode == "sft"

    with _timed(ctx, "read_s"):
        profiles = features_mod.read_profiles_jsonl(profiles_path)
    with _naming(profiles_path):
        if balance:
            profiles = features_mod.balance_dataset(profiles, balance_seed)
        with _timed(ctx, "render_s"):
            records = [
                prompts_mod.render_prompt(
                    profile,
                    variant=variant,
                    mode=mode,
                    include_description=include_description,
                    leakage_guard=leakage_guard,
                )
                for profile in profiles
            ]
        with _timed(ctx, "budget_s"):
            records = [prompts_mod.enforce_budget(r, max_tokens=budget) for r in records]
        if fewshot_k is not None:
            records = prompts_mod.sample_fewshot(records, fewshot_k, fewshot_seed)
    with _timed(ctx, "write_s"):
        count = prompts_mod.emit_jsonl(records, out_path)
        if manifest_path or mode == "sft":
            manifest_path = manifest_path or out_path.parent / "training_manifest.json"
            _write_json(manifest_path, prompts_mod.training_manifest())
    return {"records": count, "variant": variant, "mode": mode}


@main.command("train-baseline")
@click.option("--splits", "splits_dir", type=_PATH, default=_in_out_dir("splits"))
@click.option("--out", "model_dir", type=_PATH, default=_in_out_dir("baseline"))
@click.option("--rounds", "n_rounds", type=int, default=_from_config(lambda c: c.baseline.n_rounds))
@click.option("--depth", "max_depth", type=int, default=_from_config(lambda c: c.baseline.max_depth))
@click.option("--learning-rate", type=float, default=_from_config(lambda c: c.baseline.learning_rate))
@click.option("--reg-lambda", type=float, default=_from_config(lambda c: c.baseline.reg_lambda))
@click.option("--gamma", type=float, default=_from_config(lambda c: c.baseline.gamma))
@click.option("--min-child-weight", type=float,
              default=_from_config(lambda c: c.baseline.min_child_weight))
@click.option("--threshold", type=float, default=0.5)
@_stage("train-baseline")
def train_baseline_cmd(ctx, splits_dir, model_dir, threshold, **baseline):
    """Train the boosted-tree baseline and report on the test split."""
    from . import features as features_mod
    from . import gbdt as gbdt_mod
    from . import metrics as metrics_mod

    model_config = config_mod.GbdtConfig(**baseline)
    with _usage():
        model_config.validate()
        if not 0 <= threshold <= 1:  # NaN too
            raise ValueError(f"--threshold must be in [0, 1], got {threshold}")
    train_path, test_path = (
        _require_file(splits_dir / f"{name}.jsonl", "run `ventureval split` first")
        for name in ("train", "test")
    )
    train = features_mod.read_profiles_jsonl(train_path)
    test = features_mod.read_profiles_jsonl(test_path)
    if not train:
        raise DataError(f"{train_path}: training split is empty")
    if not test:
        raise DataError(f"{test_path}: test split is empty")
    with _naming(train_path), _timed(ctx, "fit_s"):
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
            "test": dataclasses.asdict(metrics_report),
            "config": dataclasses.asdict(model_config),
            "feature_gain": dict(
                zip(features_mod.FEATURE_COLUMNS, gbdt_mod.gain_shares(model))
            ),
            "final_train_logloss": model.train_loss[-1] if model.train_loss else None,
            "fit_s": ctx.obj["timings"]["fit_s"],
            "train_loss": model.train_loss,
        },
    )
    click.echo(metrics_report.format_table())
    return {
        "train": len(train),
        "test": len(test),
        "test_accuracy": round(metrics_report.accuracy, 4),
    }


def _exemplar_from_dict(obj: dict):
    """An exemplar pool record: a completed supervised one, or ValueError."""
    from . import prompts as prompts_mod

    record = prompts_mod.record_from_dict(obj)
    prompts_mod.exemplar_turns([record])
    return record


@main.command("eval-endpoint")
@click.option("--dataset", "dataset_path", type=_PATH, default=_in_out_dir("prompts.jsonl"),
              help="Prompt JSONL with true labels (from `prompts`).")
@click.option("--base-url", default=_from_config(lambda c: c.endpoint.base_url))
@click.option("--model", default=_from_config(lambda c: c.endpoint.model or "default"))
@click.option("--api-key-env", default=_from_config(lambda c: c.endpoint.api_key_env),
              help="Environment variable holding the bearer key.")
@click.option("--temperature", type=float, default=_from_config(lambda c: c.endpoint.temperature))
@click.option("--max-completion-tokens", type=int,
              default=_from_config(lambda c: c.endpoint.max_completion_tokens))
@click.option("--timeout-s", type=float, default=_from_config(lambda c: c.endpoint.timeout_s))
@click.option("--max-retries", type=int, default=_from_config(lambda c: c.endpoint.max_retries))
@click.option("--max-in-flight", type=int, default=_from_config(lambda c: c.endpoint.max_in_flight))
@click.option("--shots", type=click.IntRange(min=0), default=0,
              help="Prepend this many in-context exemplars per request.")
@click.option("--exemplars", "exemplars_path", type=_PATH, default=_in_out_dir("prompts.jsonl"),
              help="Supervised JSONL to draw in-context exemplars from.")
@click.option("--out", "eval_dir", type=_PATH, default=_in_out_dir("eval"))
@_stage("eval-endpoint")
def eval_endpoint_cmd(ctx, dataset_path, shots, exemplars_path, eval_dir, **endpoint):
    """Evaluate a chat-completion endpoint on a compiled prompt dataset."""
    from . import client as client_mod
    from . import features as features_mod
    from . import prompts as prompts_mod

    if not endpoint["base_url"]:
        raise click.UsageError("--base-url (or endpoint.base_url in the config) is required")
    endpoint = config_mod.EndpointConfig(**endpoint)
    with _usage():
        endpoint.validate()
    _require_file(dataset_path, "run `ventureval prompts` first")
    if shots > 0:
        _require_file(exemplars_path, "--shots needs --exemplars pointing at a supervised dataset")

    with _timed(ctx, "read_s"):
        records = prompts_mod.read_records_jsonl(dataset_path)
        if shots > 0:
            # Every pool record must be a completed supervised one, not only those drawn.
            pool = features_mod.read_jsonl(exemplars_path, _exemplar_from_dict)
            with _naming(exemplars_path):
                exemplars = prompts_mod.sample_fewshot(
                    pool, shots, derive_seed(ctx.obj["config"].seed, "exemplars")
                )
            turns = prompts_mod.exemplar_turns(exemplars)
            records = [dataclasses.replace(rec, messages=turns + rec.messages) for rec in records]

    eval_dir.mkdir(parents=True, exist_ok=True)
    with _naming(dataset_path), _timed(ctx, "eval_s"):
        result = client_mod.run_eval(endpoint, records, audit_path=eval_dir / "audit.jsonl")
    with _timed(ctx, "write_s"):
        summary = result.summary()
        _write_json(
            eval_dir / "report.json",
            {**summary, "model": endpoint.model, "base_url": endpoint.base_url, "shots": shots},
        )
        features_mod.write_jsonl(
            (
                {
                    "org_id": outcome.org_id,
                    "true_label": outcome.true_label,
                    "predicted_label": outcome.response.label,
                    "parse_status": outcome.response.parse_status,
                    "correct": outcome.correct,
                    "latency_ms": outcome.latency_ms,
                    "attempts": outcome.attempts,
                }
                for outcome in result.outcomes
            ),
            eval_dir / "outcomes.jsonl",
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
        "connections": result.connections,
    }


@main.command("score")
@click.option("--audit", "audit_path", type=_PATH, default=_in_out_dir("eval", "audit.jsonl"))
@click.option("--dataset", "dataset_path", type=_PATH, default=_in_out_dir("prompts.jsonl"),
              help="Prompt JSONL carrying the true labels (joined on org_id).")
@click.option("--out", "out_path", type=_FILE,
              default=_in_out_dir("eval", "rescore_report.json"))
@_stage("score")
def score_cmd(ctx, audit_path, dataset_path, out_path):
    """Re-score a persisted audit log offline (no endpoint access)."""
    from . import client as client_mod
    from . import prompts as prompts_mod

    _require_file(audit_path, "run `ventureval eval-endpoint` first")
    _require_file(dataset_path, "the dataset supplies true labels")
    records = prompts_mod.read_records_jsonl(dataset_path)
    with _naming(dataset_path):
        labels_by_org = client_mod.dataset_labels(records)
    result = client_mod.score_audit_log(audit_path, labels_by_org)
    _write_json(out_path, result.summary())
    click.echo(result.report.format_table())
    return {
        "records": len(result.outcomes),
        "accuracy": round(result.report.accuracy, 4),
        "missing": result.missing,
    }


if __name__ == "__main__":
    main()
