"""Pipeline benchmark: ventureval's CLI stages end to end, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-prep --seed 1 --seconds 30 --trace 0

Each workload builds its inputs with ``synth --seed <seed>`` (set-up, timed
as ``setup_s``, repeated three times), then runs its timed CLI stages as
separate ``python -m ventureval.cli`` processes, pass after pass, until
``--seconds`` have elapsed. Every pass is checked against facts the
benchmark knows independently of the program (ground-truth labels, the
mock endpoint's answer key, the Bayes accuracy window). With ``--trace 0``
it reports the end-to-end metrics as medians over passes; with
``--trace 1`` it alternates untraced passes with traced ones
(``perfbench/tracer.py``) and reports the per-layer metrics. Metric names,
units and bounds live in ``BENCHMARK.json``; ``perfbench/README.md`` says
which end-to-end metric each per-layer metric should move.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it (``detail``)
carries per-pass figures, output digests and reported defects. Working
files go to ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SYNTH_CONFIG = ROOT / "configs" / "synth_logistic.json"

SETUP_REPEATS = 3
SPLIT_SEED = "7"
# Leave room under the 180 s a run may take for the pass that is running.
RUN_LIMIT_S = 165.0
STAGE_TIMEOUT_S = 150.0

sys.path.insert(0, str(PERFBENCH))
import mock_endpoint  # noqa: E402
import tracer  # noqa: E402


class StageFailed(Exception):
    pass


class CheckFailed(Exception):
    pass


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    stage: str
    start: float
    end: float
    cpu_s: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(stage: str, argv, log_path: Path) -> Proc:
    """Run one process to completion; wall time and its own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise StageFailed(f"stage {stage} exited {proc.returncode}:\n{tail}")
    return Proc(stage, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Launcher:
    """Starts CLI stages as ``python -m ventureval.cli`` processes, or under
    the tracer when ``spans_dir`` is set."""

    def __init__(self, logs: Path, spans_dir: Path = None, run_id: str = ""):
        self.logs = logs
        self.spans_dir = spans_dir
        self.run_id = run_id
        self.count = 0

    def __call__(self, stage: str, cli_args) -> Proc:
        self.count += 1
        log = self.logs / f"{self.count:03d}-{stage}.log"
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "ventureval.cli", *cli_args]
        else:
            spans = self.spans_dir / f"{self.count:03d}-{stage}.json"
            argv = [sys.executable, str(PERFBENCH / "tracer.py"), "--out", str(spans),
                    "--run-id", self.run_id, "--", *cli_args]
        return spawn(stage, [str(a) for a in argv], log)


def upstream_args(data: Path, out: Path, ratios: str = "0.8,0.1,0.1") -> list:
    """ingest -> features -> split, as (stage, args) pairs."""
    return [
        ("ingest", ["ingest", "--data-dir", data, "--out", out]),
        ("features", ["features", "--out", out]),
        ("split", ["split", "--profiles", out / "profiles.jsonl", "--out-dir", out / "splits",
                   "--seed", SPLIT_SEED, "--ratios", ratios]),
    ]


# ---------------------------------------------------------------- workloads


@dataclass
class PassFacts:
    """What one timed pass did, beyond its processes."""

    rows: int
    attempted: int
    failed: int = 0
    planned_faults: int = 0
    digests: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class Workload:
    """Set-up, timed stages and checks of one workload.

    ``setup`` builds the inputs and returns a context; ``stages`` lists the
    timed ``(name, cli args)`` steps writing under ``out``; ``after_pass``
    checks what they wrote and returns the pass's facts.
    """

    name = ""
    companies = 0

    def __init__(self, seed: int):
        self.seed = seed

    def synth_stage(self, d: Path):
        return "synth", ["synth", "--synth-config", SYNTH_CONFIG, "--out", d / "data",
                         "--n", self.companies, "--seed", self.seed]

    def before_pass(self, ctx):
        return None

    def teardown(self, ctx):
        pass


class BulkPrep(Workload):
    """Per-row data preparation: CSV parse, store build, profiles, prompts."""

    name = "bulk-prep"
    companies = 12000
    sft_budget = 256
    # Synthetic inference prompts run 139-203 tokens, so at 150 about half
    # of them go through enforce_budget's truncation search.
    inference_budget = 150

    def setup(self, launch, d: Path) -> dict:
        launch(*self.synth_stage(d))
        return {"data": d / "data"}

    def stages(self, ctx, out: Path):
        ingest, features, split = upstream_args(ctx["data"], out)
        return [
            ingest,
            features,
            ("stats", ["stats", "--profiles", out / "profiles.jsonl", "--out", out / "stats.json"]),
            split,
            ("prompts_sft", ["prompts", "--profiles", out / "splits" / "train.jsonl", "--mode", "sft",
                             "--variant", "V4", "--budget", self.sft_budget,
                             "--out", out / "train_prompts.jsonl"]),
            ("prompts_inference", ["prompts", "--profiles", out / "splits" / "test.jsonl",
                                   "--mode", "inference", "--variant", "V4",
                                   "--budget", self.inference_budget,
                                   "--out", out / "test_prompts.jsonl"]),
        ]

    def after_pass(self, ctx, out: Path, snapshot) -> PassFacts:
        truth = {g["org_id"]: g["label"] for g in read_jsonl(ctx["data"] / "ground_truth.jsonl")}
        profiles = read_jsonl(out / "profiles.jsonl")
        ids = [p["org_id"] for p in profiles]
        check(sorted(ids) == sorted(truth), "profiles do not cover the synthetic companies exactly")
        wrong = [p["org_id"] for p in profiles if p["success"] != truth[p["org_id"]]]
        check(not wrong, f"{len(wrong)} profiles disagree with ground_truth.jsonl, e.g. {wrong[:3]}")

        parts = [[p["org_id"] for p in read_jsonl(out / "splits" / f"{n}.jsonl")]
                 for n in ("train", "val", "test")]
        check(sum(map(len, parts)) == len(ids) and set().union(*parts) == set(ids),
              "train/val/test do not partition the profiles")

        sft = read_jsonl(out / "train_prompts.jsonl")
        positives = sum(r["label"] for r in sft)
        check(positives * 2 == len(sft), f"SFT classes unbalanced: {positives} of {len(sft)}")
        inference = read_jsonl(out / "test_prompts.jsonl")
        check(len(inference) == len(parts[2]), "inference prompts do not cover the test split")
        for records, budget in ((sft, self.sft_budget), (inference, self.inference_budget)):
            over = [r["org_id"] for r in records if count_chat_tokens(r["messages"]) > budget]
            check(not over, f"{len(over)} records exceed their {budget}-token budget")

        summary = read_json(out / "ingest_summary.json")
        raw_rows = sum(summary["integrity"]["row_counts"].values()) + summary["n_row_errors"]
        return PassFacts(
            rows=self.companies,
            attempted=raw_rows,
            failed=summary["n_row_errors"],
            digests={name: sha256_of(out / name)
                     for name in ("profiles.jsonl", "train_prompts.jsonl", "test_prompts.jsonl")},
        )


class TrainEval(Workload):
    """The boosted-tree baseline, then eval-endpoint against the loopback mock
    and score on its audit: model and client layers, no data layers."""

    name = "train-eval"
    companies = 20000
    # 12.8k training rows and a 7k-row test split, large enough that its
    # sampling noise stays well inside the +0.01 side of the accuracy window.
    ratios = "0.64,0.01,0.35"
    eval_records = 2000
    max_in_flight = 2

    def setup(self, launch, d: Path) -> dict:
        data, out = d / "data", d / "prep"
        launch(*self.synth_stage(d))
        for stage, args in upstream_args(data, out, self.ratios):
            launch(stage, args)
        dataset = out / "eval_prompts.jsonl"
        launch("prompts", ["prompts", "--profiles", out / "splits" / "test.jsonl",
                           "--mode", "inference", "--variant", "V4",
                           "--fewshot-k", self.eval_records, "--out", dataset])
        return {"data": data, "splits": out / "splits", "dataset": dataset,
                "server": MockServer(self.seed, d / "server.log")}

    def stages(self, ctx, out: Path):
        dataset, eval_dir = ctx["dataset"], out / "eval"
        return [
            ("train_baseline", ["train-baseline", "--splits", ctx["splits"],
                                "--out", out / "baseline"]),
            ("eval_endpoint", ["eval-endpoint", "--dataset", dataset, "--base-url", ctx["server"].url,
                               "--model", "mock", "--max-in-flight", self.max_in_flight,
                               "--out", eval_dir]),
            ("score", ["score", "--audit", eval_dir / "audit.jsonl", "--dataset", dataset,
                       "--out", eval_dir / "rescore_report.json"]),
        ]

    def before_pass(self, ctx):
        return ctx["server"].stats()

    def after_pass(self, ctx, out: Path, snapshot) -> PassFacts:
        train_rows, accuracy = self.check_model(ctx, out)
        facts = self.check_eval(ctx, out / "eval", snapshot)
        facts.rows += train_rows
        facts.digests["model.json"] = sha256_of(out / "baseline" / "model.json")
        facts.extra["test_accuracy"] = accuracy
        return facts

    def bayes_window(self, ctx):
        if "window" not in ctx:
            sys.path.insert(0, str(SRC))
            from ventureval import synth

            config = synth.load_config(SYNTH_CONFIG)
            config.n_companies, config.seed = self.companies, self.seed
            bayes = synth.estimate_bayes_accuracy(config, n_mc=200_000).accuracy
            # The acceptance suite's window around the Bayes accuracy.
            ctx["window"] = (bayes - 0.05, bayes + 0.01)
        return ctx["window"]

    def check_model(self, ctx, out: Path) -> tuple:
        """(training rows, test accuracy), after the accuracy window check."""
        low, high = self.bayes_window(ctx)
        accuracy = read_json(out / "baseline" / "report.json")["test"]["accuracy"]
        check(low <= accuracy <= high,
              f"test accuracy {accuracy:.4f} outside the Bayes window [{low:.4f}, {high:.4f}]")
        with open(ctx["splits"] / "train.jsonl", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip()), accuracy

    def answer_key(self, ctx):
        if "key" not in ctx:
            ctx["key"] = [
                (r["org_id"], r["label"], mock_endpoint.planned_answer(self.seed, r["messages"]))
                for r in read_jsonl(ctx["dataset"])
            ]
        return ctx["key"]

    def check_eval(self, ctx, eval_dir: Path, snapshot) -> PassFacts:
        server = ctx["server"].stats()
        key = self.answer_key(ctx)
        outcomes = read_jsonl(eval_dir / "outcomes.jsonl")
        live = read_json(eval_dir / "report.json")
        rescored = read_json(eval_dir / "rescore_report.json")

        status_of = {mock_endpoint.PARSED: "parsed", mock_endpoint.FALLBACK: "fallback-parsed",
                     mock_endpoint.UNPARSEABLE: "unparseable", mock_endpoint.HTTP_400: "unparseable"}
        check(len(outcomes) == len(key), f"{len(outcomes)} outcomes for {len(key)} records")
        expected_preds, labels, planned_400 = [], [], 0
        for outcome, (org_id, label, (kind, planted, _, _)) in zip(outcomes, key):
            planted = planted if kind in (mock_endpoint.PARSED, mock_endpoint.FALLBACK) else None
            planned_400 += kind == mock_endpoint.HTTP_400
            check(outcome["org_id"] == org_id and outcome["true_label"] == label,
                  f"outcome order or label differs at {org_id}")
            check(outcome["parse_status"] == status_of[kind] and outcome["predicted_label"] == planted,
                  f"{org_id}: live outcome {outcome['parse_status']}/{outcome['predicted_label']}, "
                  f"answer key {status_of[kind]}/{planted}")
            expected_preds.append(1 - label if planted is None else planted)
            labels.append(label)
        attempts = sum(o["attempts"] for o in outcomes)
        check(attempts == len(key), f"{attempts} attempts for {len(key)} records")
        requests = server["requests"] - snapshot["requests"]
        check(requests == len(key), f"mock served {requests} requests for {len(key)} records")
        expected = confusion_cells(expected_preds, labels)
        check(cells_from_report(live["report"]) == expected,
              f"live confusion {cells_from_report(live['report'])} != answer key {expected}")
        check(live["transport_failures"] == planned_400,
              f"{live['transport_failures']} transport failures, {planned_400} planned")

        # score writes no per-record output: count the records the two
        # reports must disagree on.
        rescored_cells = cells_from_report(rescored["report"])
        disagreements = max(
            abs(live["parse_failures"] - rescored["parse_failures"]),
            sum(abs(a - b) for a, b in zip(expected, rescored_cells)) // 2,
        )
        connections = server["connections"] - snapshot["connections"]
        return PassFacts(
            rows=len(key),
            attempted=len(key),
            planned_faults=planned_400,
            failed=max(0, live["transport_failures"] - planned_400),
            digests={"eval_prompts.jsonl": sha256_of(ctx["dataset"])},
            extra={
                "latencies_ms": [o["latency_ms"] for o in outcomes],
                "score.disagreements": disagreements,
                "live_accuracy": live["report"]["accuracy"],
                "rescored_accuracy": rescored["report"]["accuracy"],
                "server.cpu_s": server["cpu_s"] - snapshot["cpu_s"],
                "client.requests_per_connection": requests / max(connections, 1),
                "client.audit_bytes": (eval_dir / "audit.jsonl").stat().st_size,
            },
        )

    def teardown(self, ctx):
        ctx["server"].stop()


WORKLOADS = {w.name: w for w in (BulkPrep, TrainEval)}


class MockServer:
    """The loopback endpoint in its own process."""

    def __init__(self, seed: int, log_path: Path):
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(PERFBENCH / "mock_endpoint.py"), "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self.log, stdin=subprocess.DEVNULL)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise StageFailed(f"mock endpoint did not start: {line!r}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ---------------------------------------------------------------- checks


_SPECIALS = ("<|im_start|>", "<|im_end|>")


def count_chat_tokens(messages) -> int:
    """Token count of the serialized chat under the documented rule: chat
    delimiters are one token each, the rest splits into word runs and
    single punctuation marks."""
    text = "".join(f"{_SPECIALS[0]}{m['role']}\n{m['content']}{_SPECIALS[1]}\n" for m in messages)
    count = 0
    for piece in re.split("(" + "|".join(re.escape(s) for s in _SPECIALS) + ")", text):
        count += 1 if piece in _SPECIALS else len(re.findall(r"\w+|[^\w\s]", piece))
    return count


def confusion_cells(preds, labels) -> tuple:
    """(tp, fp, tn, fn)."""
    pairs = list(zip(preds, labels))
    return (pairs.count((1, 1)), pairs.count((1, 0)), pairs.count((0, 0)), pairs.count((0, 1)))


def cells_from_report(report: dict) -> tuple:
    """Recover (tp, fp, tn, fn) from the accuracy, recall and supports a
    report carries."""
    pos, neg = report["support_positive"], report["support_negative"]
    tp = round(report["recall"] * pos)
    tn = round(report["accuracy"] * (pos + neg)) - tp
    return (tp, neg - tn, tn, pos - tp)


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    procs: list
    facts: PassFacts
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.procs[-1].end - self.procs[0].start

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.maxrss_mb for p in self.procs)


def run_pass(workload, ctx, launch, out: Path) -> Pass:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    snapshot = workload.before_pass(ctx)
    procs = [launch(stage, args) for stage, args in workload.stages(ctx, out)]
    return Pass(procs, workload.after_pass(ctx, out, snapshot))


def load_spans(spans_dir: Path) -> list:
    return [read_json(p) for p in sorted(spans_dir.glob("*.json"))]


# ---------------------------------------------------------------- metrics


def end_to_end(setup_times, passes, attempted: int) -> dict:
    unsuccessful = sum(p.facts.failed + p.facts.planned_faults for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median([p.wall_s for p in passes]),
        "cpu_s": statistics.median([p.cpu_s for p in passes]),
        "rows_per_s": statistics.median([p.facts.rows / p.wall_s for p in passes]),
        "peak_rss_mb": statistics.median([p.peak_rss_mb for p in passes]),
        "success_rate": 1.0 - unsuccessful / attempted,
    }


CLI_STAGES = ("ingest", "features", "stats", "split", "prompts_sft", "prompts_inference",
              "train_baseline", "eval_endpoint", "score")
SELF_LAYERS = ("cli", "ingest", "features", "prompts", "gbdt", "kernels", "client", "metrics")


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def per_layer(plain: Pass, traced: Pass, synth_trace: dict) -> tuple:
    """Per-layer metrics of one untraced/traced pass pair, and the kernel
    backend the traced stages ran."""
    m = {f"cli.{stage}_s": 0.0 for stage in CLI_STAGES}
    for proc in plain.procs:
        m[f"cli.{proc.stage}_s"] = proc.wall_s

    inclusive, self_times, counters = {}, {}, {}
    reload_s = 0.0
    backend = "fallback"
    for trace in traced.spans:
        backend = trace["backend"]
        spans = trace["spans"]
        for name, seconds in tracer.inclusive_times(spans).items():
            inclusive[name] = inclusive.get(name, 0.0) + seconds
        for name, seconds in tracer.attributed_self_times(spans).items():
            self_times[name] = self_times.get(name, 0.0) + seconds
        for name, value in trace["counters"].items():
            if name.startswith("ingest.load_table.") and trace["stage"] != "ingest":
                continue  # rows re-read by the features stage are not new rows
            counters[name] = counters.get(name, 0.0) + value
        if trace["stage"] != "ingest":
            # load_table under any stage span but ingest's re-parses tables
            # that ingest already wrote.
            reload_s += sum(s[2] - s[1] for s in spans if s[0] == "ingest.load_table")

    def t(name):
        return inclusive.get(name, 0.0)

    def c(name):
        return counters.get(name, 0.0)

    fit_s, nodes = t("gbdt.fit"), c("gbdt.nodes")
    latencies = plain.facts.extra.get("latencies_ms", [])
    m.update({
        "cli.import_s": t("cli.import"),
        "synth.generate_s": tracer.inclusive_times(synth_trace["spans"]).get("synth.generate", 0.0),
        "ingest.load_table_s": t("ingest.load_table") - reload_s,
        "ingest.reload_table_s": reload_s,
        "ingest.build_store_s": t("ingest.build_store"),
        "ingest.write_table_s": t("ingest.write_table"),
        "ingest.rows": c("ingest.load_table.rows"),
        "ingest.row_errors": c("ingest.load_table.row_errors"),
        "features.derive_profiles_s": t("features.derive_profiles"),
        "features.write_profiles_s": t("features.write_profiles_csv") + t("features.write_profiles_jsonl"),
        "features.read_profiles_s": t("features.read_profiles_jsonl"),
        "features.corpus_stats_s": t("features.corpus_stats"),
        "features.split_dataset_s": t("features.split_dataset"),
        "features.balance_dataset_s": t("features.balance_dataset"),
        "features.profiles": c("features.profiles"),
        "prompts.render_prompt_s": t("prompts.render_prompt"),
        "prompts.load_template_calls": c("prompts.load_template_calls"),
        "prompts.enforce_budget_s": t("prompts.enforce_budget"),
        "prompts.truncated": c("prompts.truncated"),
        "prompts.count_tokens_calls": c("prompts.count_tokens_calls"),
        "prompts.emit_jsonl_s": t("prompts.emit_jsonl"),
        "prompts.read_records_s": t("prompts.read_records_jsonl"),
        "gbdt.fit_s": fit_s,
        "gbdt.nodes": nodes,
        "gbdt.fit_us_per_node": fit_s / nodes * 1e6 if nodes else 0.0,
        "gbdt.predict_s": t("gbdt.predict_many"),
        "gbdt.save_model_s": t("gbdt.save_model"),
        "kernels.scan_split_s": t("kernels.scan_split"),
        "kernels.scan_split_calls": c("kernels.scan_split_calls"),
        "kernels.scan_rows": c("kernels.scan_rows"),
        "kernels.share_of_fit": t("kernels.scan_split") / fit_s if fit_s else 0.0,
        "kernels.backend_compiled": 1.0 if backend == "compiled" else 0.0,
        "client.run_eval_s": t("client.run_eval"),
        "client.chat_complete_s": t("client.chat_complete"),
        "client.parse_response_s": t("client.parse_response"),
        "client.attempts": c("client.attempts"),
        "client.transport_failures": c("client.transport_failures"),
        "client.parse_status.parsed": c("client.parse_status.parsed"),
        "client.parse_status.fallback": c("client.parse_status.fallback-parsed"),
        "client.parse_status.unparseable": c("client.parse_status.unparseable"),
        "client.latency_p50_ms": percentile(latencies, 50),
        "client.latency_p99_ms": percentile(latencies, 99),
        "client.score_audit_log_s": t("client.score_audit_log"),
        "client.audit_bytes": plain.facts.extra.get("client.audit_bytes", 0),
        "client.requests_per_connection": plain.facts.extra.get("client.requests_per_connection", 0.0),
        "server.cpu_s": plain.facts.extra.get("server.cpu_s", 0.0),
        "score.disagreements": plain.facts.extra.get("score.disagreements", 0),
    })
    layer_self = {layer: 0.0 for layer in SELF_LAYERS}
    for name, seconds in self_times.items():
        layer_self[name.split(".", 1)[0]] += seconds
    explained = sum(layer_self.values())
    for layer, seconds in layer_self.items():
        m[f"self.{layer}_s"] = seconds
    m.update({
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.unexplained_s": traced.wall_s - explained,
        "trace.explained_share": explained / traced.wall_s,
    })
    return m, backend


def medians(dicts) -> dict:
    return {k: statistics.median([d[k] for d in dicts]) for k in dicts[0]}


# ---------------------------------------------------------------- main


def declared_metrics(trace: bool) -> dict:
    spec = read_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args, run_dir: Path, detail: dict) -> tuple:
    """Returns (metrics, attempted, failed)."""
    workload = WORKLOADS[args.workload](args.seed)
    started = time.perf_counter()
    contexts = []
    try:
        setup_times = []
        repeats = 1 if args.trace else SETUP_REPEATS
        for rep in range(repeats):
            d = run_dir / f"setup{rep}"
            launch = Launcher(run_dir / "logs" / f"setup{rep}")
            launch.logs.mkdir(parents=True)
            t0 = time.perf_counter()
            contexts.append(workload.setup(launch, d))
            setup_times.append(time.perf_counter() - t0)
            if rep + 1 < repeats:
                workload.teardown(contexts[-1])
        ctx = contexts[-1]
        detail["setup_s"] = setup_times

        logs = run_dir / "logs" / "passes"
        logs.mkdir(parents=True)
        plain_launch = Launcher(logs)
        passes, layer_rows = [], []
        window_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            plain = run_pass(workload, ctx, plain_launch, run_dir / "pass")
            passes.append(plain)
            if args.trace:
                index = len(layer_rows)
                spans_dir = run_dir / "spans" / f"pair{index}"
                spans_dir.mkdir(parents=True)
                launch = Launcher(logs, spans_dir, f"{workload.name}-{args.seed}-pair{index}")
                if index == 0:
                    synth_dir = spans_dir.parent / "synth"
                    synth_dir.mkdir()
                    synth_launch = Launcher(logs, synth_dir, f"{workload.name}-{args.seed}-setup")
                    synth_launch(*workload.synth_stage(run_dir / "traced-setup"))
                    synth_trace = load_spans(synth_dir)[0]
                traced = run_pass(workload, ctx, launch, run_dir / "pass")
                traced.spans = load_spans(spans_dir)
                check(traced.facts.digests == plain.facts.digests,
                      "traced pass wrote different outputs from the untraced pass")
                metrics, detail["backend"] = per_layer(plain, traced, synth_trace)
                layer_rows.append(metrics)
            now = time.perf_counter()
            if now - window_start >= args.seconds or now - started + (now - pass_start) > RUN_LIMIT_S:
                break
    finally:
        for context in contexts:
            workload.teardown(context)

    digests = [p.facts.digests for p in passes]
    check(all(d == digests[0] for d in digests), "passes of one run wrote different outputs")
    detail["digests"] = digests[0]
    detail["passes"] = [
        {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb,
         "stages": {proc.stage: proc.wall_s for proc in p.procs},
         **{k: v for k, v in p.facts.extra.items() if k != "latencies_ms"}}
        for p in passes
    ]
    attempted = sum(p.facts.attempted + len(p.procs) for p in passes)
    failed = sum(p.facts.failed for p in passes)
    metrics = medians(layer_rows) if args.trace else end_to_end(setup_times, passes, attempted)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the mock server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    missing = [p for p in (SRC / "ventureval" / "cli.py", SYNTH_CONFIG, ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    run_dir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        metrics, attempted, failed = run(args, run_dir, detail)
    except (StageFailed, CheckFailed) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if set(metrics) != set(declared):
        print(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}",
              file=sys.stderr)
        return 3
    for name in sorted(metrics):
        print(f"{name:<36} {metrics[name]:>14.6g} {declared[name]}", file=sys.stderr)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
