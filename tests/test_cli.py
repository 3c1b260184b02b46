"""CLI pipeline: end-to-end runs, exit codes, re-runnability."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, DEEP_JSON, GOLDEN_PROFILE
from ventureval.cli import main
from ventureval.config import EndpointConfig, GbdtConfig, RunConfig, derive_seed
from ventureval.features import FEATURE_COLUMNS, write_profiles_jsonl
from ventureval.ingest import TABLE_KINDS
from ventureval.prompts import (
    ChatMessage, ChatRecord, emit_jsonl, render_prompt, template_tokens, training_manifest,
)
from ventureval.synth import SynthConfig, estimate_bayes_accuracy, generate, load_config
from test_cli_fuzz import assert_exit_0_or_3, mutated

runner = CliRunner()


def invoke(*args, **kwargs):
    result = runner.invoke(main, list(args), **kwargs)
    return result


def run_ok(*args):
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return result


class OracleHandler(BaseHTTPRequestHandler):
    """Answers with the true label for the company named in the prompt, and
    "Unsuccessful" when the prompt names none it knows. Records each
    request's messages."""

    labels_by_name = {}
    requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        self.requests.append(payload["messages"])
        content = payload["messages"][-1]["content"]
        match = re.search(r"^Name: (.*)$", content, re.MULTILINE)
        label = self.labels_by_name.get(match.group(1)) if match else None
        word = "Successful" if label == 1 else "Unsuccessful"
        body = json.dumps(
            {
                "choices": [
                    {
                        "message": {
                            "content": f"Prediction: {word}\nJustification: oracle says so."
                        }
                    }
                ]
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def oracle_server(tmp_path_factory):
    server = ThreadingHTTPServer(("127.0.0.1", 0), OracleHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def load_labels_by_name(data_dir):
    names = {}
    with open(data_dir / "organizations.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            names[row["uuid"]] = row["name"]
    labels = {}
    with open(data_dir / "ground_truth.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            labels[names[entry["org_id"]]] = entry["label"]
    return labels


def test_full_pipeline_with_oracle_endpoint(tmp_path, oracle_server):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    log = tmp_path / "run.log"

    base = ["--log-file", str(log)]
    run_ok(*base, "synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "120", "--seed", "99")
    run_ok(*base, "ingest", "--data-dir", str(data_dir), "--out", str(out_dir))
    run_ok(*base, "features", "--out", str(out_dir))
    run_ok(*base, "stats", "--profiles", str(out_dir / "profiles.jsonl"),
           "--out", str(out_dir / "stats.json"))
    run_ok(*base, "split", "--profiles", str(out_dir / "profiles.jsonl"),
           "--out-dir", str(out_dir / "splits"), "--seed", "5")

    # supervised prompts for the train split, inference prompts for test
    run_ok(*base, "prompts", "--profiles", str(out_dir / "splits" / "train.jsonl"),
           "--out", str(out_dir / "train_prompts.jsonl"), "--variant", "V4",
           "--mode", "sft", "--manifest", str(out_dir / "training_manifest.json"))
    run_ok(*base, "prompts", "--profiles", str(out_dir / "splits" / "test.jsonl"),
           "--out", str(out_dir / "test_prompts.jsonl"), "--variant", "V4",
           "--mode", "inference")

    manifest_text = (out_dir / "training_manifest.json").read_text(encoding="utf-8")
    assert manifest_text == json.dumps(training_manifest(), indent=2) + "\n"
    assert json.loads(manifest_text)["learning_rate"] == 5e-4

    result = run_ok(*base, "train-baseline", "--splits", str(out_dir / "splits"),
                    "--out", str(out_dir / "baseline"))
    assert "accuracy" in result.output

    OracleHandler.labels_by_name = load_labels_by_name(data_dir)
    port = oracle_server.server_address[1]
    run_ok(*base, "eval-endpoint", "--dataset", str(out_dir / "test_prompts.jsonl"),
           "--base-url", f"http://127.0.0.1:{port}", "--model", "oracle",
           "--out", str(out_dir / "eval"))
    report = json.loads((out_dir / "eval" / "report.json").read_text())
    assert report["report"]["accuracy"] == 1.0
    assert report["parse_failures"] == 0

    run_ok(*base, "score", "--audit", str(out_dir / "eval" / "audit.jsonl"),
           "--dataset", str(out_dir / "test_prompts.jsonl"),
           "--out", str(out_dir / "eval" / "rescore.json"))
    assert_rescore_matches(out_dir / "eval" / "report.json", out_dir / "eval" / "rescore.json")

    # structured log lines: one JSON object per completed stage, with the
    # seconds of the sub-steps that _timed marks
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    stages = [entry["stage"] for entry in entries]
    for stage in ("synth", "ingest", "features", "split", "prompts",
                  "train-baseline", "eval-endpoint", "score"):
        assert stage in stages
    sub_steps = {"ingest": ["load_s", "write_s"],
                 "features": ["load_s", "derive_s", "write_s"],
                 "stats": ["read_s", "stats_s"],
                 "split": ["read_s", "split_s", "write_s"],
                 "prompts": ["read_s", "render_s", "budget_s", "write_s"],
                 "train-baseline": ["fit_s"],
                 "eval-endpoint": ["read_s", "eval_s", "write_s"]}
    for entry in entries:
        keys = sub_steps.get(entry["stage"], [])
        assert all(type(entry[key]) is float and 0 <= entry[key] <= entry["duration_s"]
                   for key in keys), entry
    assert stages.count("prompts") == 2


SRC_DIR = Path(__file__).parent.parent / "src"
PERFBENCH_DIR = Path(__file__).parent.parent / "perfbench"

# Runs the CLI on its arguments and prints, as the process exits, whether
# NumPy was ever loaded and which of the HTTP client's modules were.
NUMPY_PROBE = """
import atexit, sys
atexit.register(lambda: print("numpy loaded:", "numpy" in sys.modules))
atexit.register(lambda: print("http loaded:",
                              [m for m in ("http.client", "ssl", "email") if m in sys.modules]))
from ventureval.cli import main
main(prog_name="ventureval")
"""


def run_python(code, *args, path=(SRC_DIR,)):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_data_stages_never_load_numpy(tmp_path, oracle_server):
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "60", "--seed", "5")
    OracleHandler.labels_by_name = load_labels_by_name(data_dir)
    splits = out_dir / "splits"
    for args in (
        ["ingest", "--data-dir", data_dir, "--out", out_dir],
        ["features", "--out", out_dir],
        ["stats", "--profiles", out_dir / "profiles.jsonl", "--out", out_dir / "stats.json"],
        ["split", "--profiles", out_dir / "profiles.jsonl", "--out-dir", splits, "--seed", 7],
        ["prompts", "--profiles", splits / "train.jsonl", "--mode", "sft",
         "--out", out_dir / "train_prompts.jsonl"],
        ["prompts", "--profiles", splits / "test.jsonl", "--mode", "inference", "--budget", 150,
         "--out", out_dir / "test_prompts.jsonl"],
        ["eval-endpoint", "--dataset", out_dir / "test_prompts.jsonl",
         "--base-url", f"http://127.0.0.1:{oracle_server.server_address[1]}",
         "--out", out_dir / "eval"],
        ["score", "--audit", out_dir / "eval" / "audit.jsonl",
         "--dataset", out_dir / "test_prompts.jsonl", "--out", out_dir / "rescore.json"],
    ):
        result = run_python(NUMPY_PROBE, *args)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "numpy loaded: False", args
        # Only eval-endpoint sends requests; every other stage skips the
        # transport's imports (about 30 ms a process).
        if args[0] != "eval-endpoint":
            assert result.stdout.splitlines()[-2] == "http loaded: []", args


def test_ingest_loads_neither_features_nor_prompts(tmp_path):
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(tmp_path / "data"), "--n", "30", "--seed", "5")
    probe = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('loaded:', [m for m in ('ventureval.features',"
        " 'ventureval.prompts') if m in sys.modules]))\n"
        "from ventureval.cli import main\n"
        "main(prog_name='ventureval')\n"
    )
    result = run_python(probe, "ingest", "--data-dir", tmp_path / "data", "--out", tmp_path / "out")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "loaded: []"


def test_package_import_does_not_load_numpy():
    result = run_python("import sys, ventureval\nprint('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/tracer.py wraps layer functions by module attribute and
    reads ``_kernels.BACKEND``; renaming any of them breaks the traced run."""
    result = run_python(
        "import importlib, tracer\n"
        "tracer.install(tracer.Tracer())\n"
        "print(importlib.import_module('ventureval._kernels').BACKEND)",
        path=(SRC_DIR, PERFBENCH_DIR),
    )
    assert result.returncode == 0, result.stderr


def test_features_without_ingest_is_usage_error(tmp_path):
    result = invoke("features", "--out", str(tmp_path / "out"))
    assert result.exit_code == 2
    assert "missing input" in result.output


def test_stats_reads_profiles_from_a_pipe(tmp_path):
    fifo = tmp_path / "profiles.fifo"
    os.mkfifo(fifo)

    def feed():
        write_profiles_jsonl([GOLDEN_PROFILE] * 3, fifo)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    result = invoke("stats", "--profiles", str(fifo), "--out", str(tmp_path / "stats.json"))
    writer.join(timeout=30)
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "stats.json").read_text())["n_total"] == 3


def test_unknown_flag_is_usage_error():
    result = invoke("synth", "--bogus-flag", "x")
    assert result.exit_code == 2


def corrupt_first_founded_date(data_dir):
    path = data_dir / "organizations.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    founded_col = rows[0].index("founded_on")
    rows[1][founded_col] = "not-a-date"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_strict_ingest_exits_with_data_error(tmp_path):
    data_dir = tmp_path / "data"
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "10", "--seed", "4")
    corrupt_first_founded_date(data_dir)
    result = invoke("ingest", "--data-dir", str(data_dir),
                    "--out", str(tmp_path / "out"), "--strict")
    assert result.exit_code == 3


def test_features_stops_on_a_damaged_ingested_row(tmp_path):
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "10", "--seed", "4")
    run_ok("ingest", "--data-dir", str(data_dir), "--out", str(out_dir))
    corrupt_first_founded_date(out_dir / "ingested")
    result = invoke("features", "--out", str(out_dir))
    assert result.exit_code == 3, result.output
    assert f"{out_dir / 'ingested' / 'organizations.csv'}:2: " in result.output
    assert not (out_dir / "profiles.jsonl").exists()


def test_single_class_training_split_exits_with_data_error(tmp_path):
    splits = tmp_path / "splits"
    splits.mkdir()
    negatives = [
        GOLDEN_PROFILE._replace(org_id=f"org{i}", success=0,
                                total_raised_usd=float(i))
        for i in range(200)
    ]
    for name in ("train", "val", "test"):
        write_profiles_jsonl(negatives, splits / f"{name}.jsonl")
    result = invoke("train-baseline", "--splits", str(splits),
                    "--out", str(tmp_path / "baseline"))
    assert result.exit_code == 3
    assert "training labels contain a single class" in result.output


def test_one_row_training_split_is_a_single_class(tmp_path):
    splits = tmp_path / "splits"
    splits.mkdir()
    for name in ("train", "test"):
        write_profiles_jsonl([GOLDEN_PROFILE], splits / f"{name}.jsonl")
    result = invoke("train-baseline", "--splits", str(splits), "--out", str(tmp_path / "baseline"))
    assert result.exit_code == 3, result.output
    assert f"{splits / 'train.jsonl'}: training labels contain a single class" in result.output


def test_empty_training_split_exits_with_data_error(tmp_path):
    splits = tmp_path / "splits"
    splits.mkdir()
    write_profiles_jsonl([], splits / "train.jsonl")
    for name in ("val", "test"):
        write_profiles_jsonl([GOLDEN_PROFILE], splits / f"{name}.jsonl")
    result = invoke("train-baseline", "--splits", str(splits),
                    "--out", str(tmp_path / "baseline"))
    assert result.exit_code == 3
    assert "training split is empty" in result.output


def test_train_baseline_does_not_need_a_val_split(tmp_path):
    splits = tmp_path / "splits"
    splits.mkdir()
    profiles = [
        GOLDEN_PROFILE._replace(org_id=f"org{i}", success=i % 2,
                                total_raised_usd=float(i % 2))
        for i in range(20)
    ]
    write_profiles_jsonl(profiles, splits / "train.jsonl")
    write_profiles_jsonl(profiles[:4], splits / "test.jsonl")
    run_ok("train-baseline", "--splits", str(splits), "--out", str(tmp_path / "baseline"))
    assert (tmp_path / "baseline" / "model.json").exists()
    report = json.loads((tmp_path / "baseline" / "report.json").read_text())
    assert len(report["train_loss"]) == report["config"]["n_rounds"]
    assert report["train_loss"][-1] == report["final_train_logloss"]
    assert type(report["fit_s"]) is float and report["fit_s"] >= 0


def _feature_gain_after_pipeline(tmp_path, config_name):
    """report.json's feature_gain after synth (20k companies, seed 7) through
    train-baseline, all through the CLI."""
    config = CONFIG_DIR / config_name
    data_dir, out_dir = tmp_path / "data", tmp_path / "out"
    run_ok("synth", "--synth-config", str(config), "--out", str(data_dir),
           "--n", "20000", "--seed", "7")
    run_ok("ingest", "--data-dir", str(data_dir), "--out", str(out_dir))
    run_ok("features", "--out", str(out_dir))
    run_ok("split", "--profiles", str(out_dir / "profiles.jsonl"),
           "--out-dir", str(out_dir / "splits"), "--seed", "7")
    run_ok("train-baseline", "--splits", str(out_dir / "splits"),
           "--out", str(out_dir / "baseline"))
    report = json.loads((out_dir / "baseline" / "report.json").read_text())
    return report["feature_gain"], load_config(config).beta


def test_feature_gain_ranks_follow_the_generator_beta(tmp_path):
    gain, beta = _feature_gain_after_pipeline(tmp_path, "synth_logistic.json")
    assert list(gain) == list(FEATURE_COLUMNS)
    by_gain = sorted(FEATURE_COLUMNS, key=lambda name: -gain[name])
    by_beta = sorted(FEATURE_COLUMNS, key=lambda name: -abs(beta[FEATURE_COLUMNS.index(name)]))
    assert by_gain == by_beta


def test_zero_beta_features_hold_under_one_percent_of_the_gain(tmp_path):
    gain, beta = _feature_gain_after_pipeline(tmp_path, "synth_threshold.json")
    zero = [name for name, b in zip(FEATURE_COLUMNS, beta) if b == 0.0]
    assert len(zero) == 3
    assert all(gain[name] < 0.01 for name in zero), gain
    assert abs(sum(gain.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_threshold_accepts_both_ends(tmp_path, threshold):
    splits = tmp_path / "splits"
    splits.mkdir()
    profiles = [GOLDEN_PROFILE._replace(org_id=f"org{i}", success=i % 2)
                for i in range(8)]
    write_profiles_jsonl(profiles, splits / "train.jsonl")
    write_profiles_jsonl(profiles, splits / "test.jsonl")
    run_ok("train-baseline", "--splits", str(splits), "--out", str(tmp_path / "baseline"),
           "--rounds", "2", "--threshold", threshold)


@pytest.mark.parametrize("args,config", [
    (["--variant", "V1", "--budget", str(template_tokens("V1") - 1)], ""),
    (["--budget", str(template_tokens("V4") - 1)], ""),
    ([], "budget = 0\n"),
], ids=["V1-flag", "V4-flag", "config-0"])
def test_budget_below_every_record_is_usage_error(tmp_path, args, config):
    """A budget that no record of the variant can fit is a bad setting, not a
    data error on the first record."""
    profiles = tmp_path / "profiles.jsonl"
    write_profiles_jsonl([GOLDEN_PROFILE], profiles)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config, encoding="utf-8")
    result = invoke("--config", str(config_path), "prompts", "--profiles", str(profiles),
                    "--no-balance", "--out", str(tmp_path / "prompts.jsonl"), *args)
    assert result.exit_code == 2, result.output
    if args:
        variant = args[1] if args[0] == "--variant" else "V4"
        assert f"below the {template_tokens(variant)} tokens every {variant} record" in result.output
    else:
        assert "0 is not in the range x>=1" in result.output


class ScriptedEvalHandler(BaseHTTPRequestHandler):
    """Answers by the prompt's first word: "reject" gets HTTP 400 with a label
    word in the body, "fallback" a fallback-grammar answer, "garbled" an
    unparseable one, "surrogate" an answer holding a lone surrogate,
    "malformed" a 200 that is not JSON, and "flaky" a 503 on first sight;
    anything else gets "Prediction: Successful"."""

    seen = set()

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        content = json.loads(self.rfile.read(length))["messages"][-1]["content"]
        answers = {"fallback": "looks unsuccessful", "garbled": "no idea at all",
                   "surrogate": "Prediction: Successful \ud800"}
        kind = content.split()[0]
        if kind == "reject":
            status, body = 400, json.dumps({"error": "unsuccessful request"})
        elif kind == "malformed":
            status, body = 200, "<html>oops</html>"
        elif kind == "flaky" and content not in self.seen:
            self.seen.add(content)
            status, body = 503, "busy"
        else:
            status, body = 200, json.dumps(
                {"choices": [{"message": {"content": answers.get(kind, "Prediction: Successful")}}]}
            )
        data = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def write_eval_dataset(path, contents):
    records = [
        ChatRecord(messages=[ChatMessage("user", text)],
                   org_id=f"org{i}", label=i % 2)
        for i, text in enumerate(contents)
    ]
    emit_jsonl(records, path)


@pytest.mark.parametrize("flag,value", [("--temperature", "nan"), ("--timeout-s", "nan"),
                                        ("--timeout-s", "inf"), ("--timeout-s", "0"),
                                        ("--base-url", "http://127.0.0.1:notaport"),
                                        ("--base-url", "http://127.0.0.1:99999"),
                                        ("--max-completion-tokens", "0"),
                                        ("--max-in-flight", "257")])
def test_eval_endpoint_rejects_non_finite_settings(tmp_path, monkeypatch, flag, value):
    dataset = tmp_path / "prompts.jsonl"
    write_eval_dataset(dataset, ["company a"])
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a worker started"))
    result = invoke("eval-endpoint", "--dataset", str(dataset),
                    "--base-url", "http://127.0.0.1:9", flag, value,
                    "--out", str(tmp_path / "eval"))
    assert result.exit_code == 2
    assert flag.lstrip("-").replace("-", "_") in result.output


def test_eval_report_carries_latency_and_attempts(tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedEvalHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    dataset = tmp_path / "prompts.jsonl"
    write_eval_dataset(dataset, ["company a", "company b", "reject c", "company d"])
    log = tmp_path / "run.log"
    try:
        run_ok("--log-file", str(log), "eval-endpoint", "--dataset", str(dataset),
               "--base-url", f"http://127.0.0.1:{server.server_address[1]}",
               "--out", str(tmp_path / "eval"))
    finally:
        server.shutdown()
        server.server_close()
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["n_records"] == 4
    assert report["attempts"] == 4
    assert report["transport_failures"] == 1
    latency = report["latency_ms"]
    assert set(latency) == {"p50", "p95", "p99"}
    assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
    (line,) = [json.loads(x) for x in log.read_text().splitlines()]
    assert line["stage"] == "eval-endpoint" and line["status"] == "ok"
    assert line["attempts"] == 4
    assert line["transport_failures"] == 1
    assert line["latency_ms"] == latency
    # The handler speaks HTTP/1.0, which ends each connection with its answer.
    assert line["connections"] == 4


SHARED_REPORT_KEYS = {"report", "parse_failures", "transport_failures", "n_records",
                      "missing", "attempts", "latency_ms", "parse_status"}


def assert_rescore_matches(report_path, rescore_path):
    report = json.loads(report_path.read_text())
    rescore = json.loads(rescore_path.read_text())
    assert set(rescore) == SHARED_REPORT_KEYS
    assert set(report) == SHARED_REPORT_KEYS | {"model", "base_url", "shots"}
    assert rescore == {key: report[key] for key in SHARED_REPORT_KEYS}
    return report


@pytest.mark.parametrize(
    "contents,exit_code",
    [
        (["company a", "company b", "company c", "company d"], 0),
        (["flaky a", "company b", "flaky c", "company d"], 0),
        (["company a", "reject b", "fallback c", "garbled d", "flaky e", "malformed f"], 0),
        (["reject a", "reject b", "reject c", "reject d"], 4),
        (["company a", "surrogate b"], 0),
    ],
)
def test_score_reproduces_eval_report(tmp_path, contents, exit_code):
    ScriptedEvalHandler.seen = set()
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedEvalHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    dataset = tmp_path / "prompts.jsonl"
    write_eval_dataset(dataset, contents)
    eval_dir = tmp_path / "eval"
    try:
        result = invoke("eval-endpoint", "--dataset", str(dataset), "--max-in-flight", "2",
                        "--base-url", f"http://127.0.0.1:{server.server_address[1]}",
                        "--out", str(eval_dir))
    finally:
        server.shutdown()
        server.server_close()
    assert result.exit_code == exit_code, result.output
    run_ok("score", "--audit", str(eval_dir / "audit.jsonl"), "--dataset", str(dataset),
           "--out", str(eval_dir / "rescore_report.json"))
    report = assert_rescore_matches(eval_dir / "report.json", eval_dir / "rescore_report.json")
    assert report["n_records"] == len(contents)
    assert sum(report["parse_status"].values()) == len(contents)
    assert report["attempts"] == len(contents) + sum(c.startswith("flaky") for c in contents)
    failed = sum(c.split()[0] in ("reject", "malformed", "surrogate") for c in contents)
    assert report["transport_failures"] == failed
    if exit_code == 4:  # every request was answered 400 with a label word in its body
        assert report["report"]["accuracy"] == 0.0
        assert report["parse_failures"] == len(contents)
    assert report["missing"] == 0
    # A partial audit is scored as far as it goes, and its log line and
    # report count the records it lacks.
    partial = tmp_path / "partial.jsonl"
    partial.write_text((eval_dir / "audit.jsonl").read_text().splitlines(keepends=True)[0])
    log = tmp_path / "score.log"
    run_ok("--log-file", str(log), "score", "--audit", str(partial), "--dataset", str(dataset),
           "--out", str(tmp_path / "partial_report.json"))
    (line,) = [json.loads(x) for x in log.read_text().splitlines()]
    assert (line["records"], line["missing"]) == (1, len(contents) - 1)
    assert json.loads((tmp_path / "partial_report.json").read_text())["missing"] == len(contents) - 1


@pytest.mark.parametrize(
    "audit,message",
    [
        ('{"org_id": "org7", "raw": "Prediction: Successful"}\n', "audit.jsonl:1: no label"),
        ("", "is empty"),
        ("\n\n", "is empty"),
        ('{"org_id": "org0", "raw": "x"}\n{"org_id": "org0", "raw": "x"}\n',
         "audit.jsonl:2: org_id 'org0' appears more than once"),
        ('{"org_id": "org0", "raw": "x", "latency_ms": "slow"}\n',
         "audit.jsonl:1: latency_ms is not a finite number: 'slow'"),
        ('{"org_id": "org0", "raw": "x", "latency_ms": NaN}\n',
         "audit.jsonl:1: latency_ms is not a finite number: nan"),
        ('{"org_id": "org0", "raw": "x", "latency_ms": 1' + "0" * 400 + '}\n',
         "audit.jsonl:1: latency_ms is not a finite number: 1" + "0" * 400),
        ('{"org_id": "org0", "raw": "x", "attempts": "2"}\n', "audit.jsonl:1: attempts is not a count: '2'"),
        ('{"org_id": "org0", "raw": "x", "attempts": true}\n', "audit.jsonl:1: attempts is not a count: True"),
        ('{"org_id": "org0"}\n', "audit.jsonl:1: raw is not a string: None"),
        ('{"org_id": "org0", "raw": 5}\n', "audit.jsonl:1: raw is not a string: 5"),
        ('{"org_id": "org0", "raw": null, "transport_error": 5}\n',
         "audit.jsonl:1: transport_error is not a string: 5"),
        ('{"org_id": 0, "raw": "x"}\n', "audit.jsonl:1: org_id is not a string: 0"),
        ('{"org_id": ["org0"], "raw": "x"}\n', "audit.jsonl:1: org_id is not a string: ['org0']"),
        ('{"org_id": "org0", "raw": "x \\ud800"}\n', "audit.jsonl:1: raw holds a lone surrogate"),
        ('{"org_id": "org0\\ud800", "raw": "x"}\n', "audit.jsonl:1: org_id holds a lone surrogate"),
        ('{"org_id": "org0", "raw": null, "transport_error": "x \\ud800"}\n',
         "audit.jsonl:1: transport_error holds a lone surrogate"),
        # Only a last line without its newline can be a torn write.
        ('{"org_id": "org0", "raw": "x"}\n{"org_id": "org1", "ra\n{"org_id": "org2"}',
         "audit.jsonl:2: not JSON"),
        ('{"org_id": "org0", "ra\n', "audit.jsonl:1: not JSON"),
    ],
)
def test_score_data_faults_exit_with_data_error(tmp_path, audit, message):
    dataset = tmp_path / "prompts.jsonl"
    write_eval_dataset(dataset, ["company a"])
    audit_path = tmp_path / "audit.jsonl"
    audit_path.write_text(audit, encoding="utf-8")
    result = invoke("score", "--audit", str(audit_path), "--dataset", str(dataset),
                    "--out", str(tmp_path / "rescore.json"))
    assert result.exit_code == 3
    assert message in result.output


PROFILE_LINE = GOLDEN_PROFILE._asdict()
RECORD_LINE = {"messages": [{"role": "user", "content": "company a"}], "label": 1, "org_id": "org0"}
AUDIT_LINE = {"org_id": "org0", "raw": "Prediction: Successful"}


def profile_stage_args(stage, bad, tmp_path):
    """Arguments that make ``stage`` read ``bad`` as its profile JSONL."""
    if stage == "train-baseline":
        for name in ("val", "test"):
            write_profiles_jsonl([GOLDEN_PROFILE], bad.parent / f"{name}.jsonl")
        return ["train-baseline", "--splits", str(bad.parent), "--out", str(tmp_path / "model")]
    out = {"stats": "--out", "split": "--out-dir", "prompts": "--out"}[stage]
    return [stage, "--profiles", str(bad), out, str(tmp_path / "result")]


def audit_stage_args(stage, bad, tmp_path):
    """Arguments that make ``score`` read ``bad`` as its audit."""
    dataset = tmp_path / "prompts.jsonl"
    write_eval_dataset(dataset, ["company a", "company b"])
    return ["score", "--audit", str(bad), "--dataset", str(dataset), "--out", str(tmp_path / "r.json")]


def record_stage_args(stage, bad, tmp_path):
    """Arguments that make ``stage`` read ``bad`` as its prompt dataset."""
    if stage == "score":
        audit = tmp_path / "audit.jsonl"
        audit.write_text(json.dumps({"org_id": "org0", "raw": "Prediction: Successful"}) + "\n")
        return ["score", "--audit", str(audit), "--dataset", str(bad), "--out", str(tmp_path / "r.json")]
    return ["eval-endpoint", "--dataset", str(bad), "--base-url", "http://127.0.0.1:9",
            "--out", str(tmp_path / "eval")]


@pytest.mark.parametrize(
    "stage,good,build_args,missing",
    [(stage, PROFILE_LINE, profile_stage_args, "success")
     for stage in ("stats", "split", "prompts", "train-baseline")]
    + [(stage, RECORD_LINE, record_stage_args, "messages") for stage in ("eval-endpoint", "score")]
    + [("score", AUDIT_LINE, audit_stage_args, "org_id")],
)
@pytest.mark.parametrize("fault", ["missing key", "not JSON", "too many digits", "not an object", "not UTF-8",
                                   "too deep"])
def test_malformed_jsonl_input_exits_with_data_error(tmp_path, stage, good, build_args, missing, fault):
    bad_line, reason = {
        "missing key": (json.dumps({k: v for k, v in good.items() if k != missing}).encode(),
                        f"missing field '{missing}'"),
        "not JSON": (b'{"org_id": "org1",', "not JSON"),
        "too many digits": (b'{"org_id": 1' + b"0" * 5000 + b"}", "not JSON"),
        "not an object": (b'["org1"]', "expected a JSON object, got list"),
        "not UTF-8": (b'{"org_id": "\xc3\xa9\xff"}', "not UTF-8: byte 0xff"),
        "too deep": (b'{"org_id": ' + DEEP_JSON.encode() + b"}", "not JSON: nesting too deep"),
    }[fault]
    bad = tmp_path / "in" / "train.jsonl"
    bad.parent.mkdir()
    bad.write_bytes(json.dumps(good).encode() + b"\n" + bad_line + b"\n")
    result = invoke(*build_args(stage, bad, tmp_path))
    assert result.exit_code == 3, result.output
    assert f"{bad}:2: {reason}" in result.output


@pytest.mark.parametrize("stage", ["stats", "split", "prompts", "train-baseline"])
@pytest.mark.parametrize("value,shown", [
    ("NaN", "nan"), ("-Infinity", "-inf"), ("1e400", "inf"), ("1" + "0" * 400, "1" + "0" * 400),
    ('"old"', "'old'"), ("true", "True"), ("null", "None"), ("[1]", "[1]"),
], ids=["nan", "-inf", "1e400", "huge-int", "string", "bool", "null", "list"])
def test_non_finite_profile_number_exits_with_data_error(tmp_path, stage, value, shown):
    bad = tmp_path / "in" / "train.jsonl"
    bad.parent.mkdir()
    line = json.dumps({**PROFILE_LINE, "age_years": 0.0}).replace('"age_years": 0.0', f'"age_years": {value}')
    bad.write_text(json.dumps(PROFILE_LINE) + "\n" + line + "\n", encoding="utf-8")
    result = invoke(*profile_stage_args(stage, bad, tmp_path))
    assert result.exit_code == 3, result.output
    assert f"{bad}:2: age_years is not a finite number: {shown}" in result.output


@pytest.mark.parametrize("stage", ["stats", "split", "prompts", "train-baseline"])
@pytest.mark.parametrize("field,value,reason", [
    ("description", 5, "description is not a string: 5"),
    ("org_id", None, "org_id is not a string: None"),
    ("name", ["Acme"], "name is not a string: ['Acme']"),
    ("success", 2, "success is not 0 or 1: 2"),
    ("had_ipo", True, "had_ipo is not 0 or 1: True"),
    ("raised_imputed", 1.0, "raised_imputed is not 0 or 1: 1.0"),
    ("name", "Acme \ud800", "name holds a lone surrogate: 'Acme \\ud800'"),
], ids=["text-int", "text-null", "text-list", "label-2", "flag-bool", "flag-float", "text-surrogate"])
def test_mistyped_profile_field_exits_with_data_error(tmp_path, stage, field, value, reason):
    bad = tmp_path / "in" / "train.jsonl"
    bad.parent.mkdir()
    line = json.dumps({**PROFILE_LINE, field: value})
    bad.write_text(json.dumps(PROFILE_LINE) + "\n" + line + "\n", encoding="utf-8")
    result = invoke(*profile_stage_args(stage, bad, tmp_path))
    assert result.exit_code == 3, result.output
    assert f"{bad}:2: {reason}" in result.output


@pytest.mark.parametrize("stage", ["eval-endpoint", "score"])
@pytest.mark.parametrize("field,value,reason", [
    ("label", 2, "label is not 0 or 1: 2"),
    ("label", True, "label is not 0 or 1: True"),
    ("label", "1", "label is not 0 or 1: '1'"),
    ("messages", [], "messages is not a non-empty list: []"),
    ("messages", "company a", "messages is not a non-empty list: 'company a'"),
    ("messages", [5], "message is not an object: 5"),
    ("messages", [{"role": "user", "content": 5}], "message content is not a string: 5"),
    ("messages", [{"role": "user", "content": "a \ud800"}],
     "message content holds a lone surrogate: 'a \\ud800'"),
    ("messages", [{"role": "robot", "content": "a"}], "unknown chat role 'robot'"),
    ("org_id", 7, "org_id is not a string: 7"),
    ("justification", ["why"], "justification is not a string: ['why']"),
    ("variant", 4, "variant is not a string: 4"),
], ids=["label-2", "label-bool", "label-string", "no-messages", "messages-string",
        "message-int", "content-int", "content-surrogate", "role", "org-id-int",
        "justification-list", "variant-int"])
def test_mistyped_record_field_exits_with_data_error(tmp_path, stage, field, value, reason):
    bad = tmp_path / "in" / "train.jsonl"
    bad.parent.mkdir()
    line = json.dumps({**RECORD_LINE, field: value})
    bad.write_text(json.dumps(RECORD_LINE) + "\n" + line + "\n", encoding="utf-8")
    result = invoke(*record_stage_args(stage, bad, tmp_path))
    assert result.exit_code == 3, result.output
    assert f"{bad}:2: {reason}" in result.output


def test_empty_test_split_exits_with_data_error(tmp_path):
    splits = tmp_path / "splits"
    splits.mkdir()
    profiles = [GOLDEN_PROFILE._replace(org_id=f"org{i}", success=i % 2)
                for i in range(4)]
    write_profiles_jsonl(profiles, splits / "train.jsonl")
    write_profiles_jsonl([], splits / "test.jsonl")
    result = invoke("train-baseline", "--splits", str(splits), "--out", str(tmp_path / "baseline"))
    assert result.exit_code == 3, result.output
    assert f"{splits / 'test.jsonl'}: test split is empty" in result.output


DATASET_FAULTS = [
    ("empty", [], "dataset is empty"),
    ("blank", ["\n"], "dataset is empty"),
    ("unlabeled", [json.dumps(RECORD_LINE), json.dumps({**RECORD_LINE, "org_id": "org1", "label": None})],
     "record 'org1' has no true 0/1 label"),
    ("repeated-org-id", [json.dumps(RECORD_LINE), json.dumps(RECORD_LINE)],
     "org_id 'org0' appears more than once"),
    ("no-org-id",
     [json.dumps(RECORD_LINE), json.dumps({k: v for k, v in RECORD_LINE.items() if k != "org_id"})],
     "record 2 has no org_id"),
    # A supervised record would send the endpoint its own answer.
    ("supervised",
     [json.dumps(RECORD_LINE), json.dumps({
         **RECORD_LINE, "org_id": "org1",
         "messages": RECORD_LINE["messages"] + [{"role": "assistant", "content": "Prediction: Successful"}],
     })],
     "record 'org1' does not end with a user turn"),
]


@pytest.mark.parametrize("stage,lines,reason", [
    pytest.param(stage, lines, reason, id=case if stage == "eval-endpoint" else f"{stage}-{case}")
    for stage in ("eval-endpoint", "score") for case, lines, reason in DATASET_FAULTS
])
def test_eval_dataset_faults_exit_before_any_request(tmp_path, stage, lines, reason):
    # score runs the same dataset check as eval-endpoint, before it reads the audit.
    dataset = tmp_path / "prompts.jsonl"
    dataset.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    eval_dir = tmp_path / "eval"
    server = ThreadingHTTPServer(("127.0.0.1", 0), RecordingHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    RecordingHandler.requests = []
    if stage == "score":
        eval_dir.mkdir()
        (eval_dir / "audit.jsonl").write_text(json.dumps(AUDIT_LINE) + "\n", encoding="utf-8")
        args = ["--audit", str(eval_dir / "audit.jsonl"), "--out", str(eval_dir / "rescore_report.json")]
    else:
        args = ["--base-url", f"http://127.0.0.1:{server.server_address[1]}", "--out", str(eval_dir)]
    try:
        result = invoke(stage, "--dataset", str(dataset), *args)
    finally:
        server.shutdown()
        server.server_close()
    assert result.exit_code == 3, result.output
    assert f"{dataset}: {reason}" in result.output
    assert RecordingHandler.requests == []
    # No output: eval-endpoint opened no audit, score wrote no report.
    assert [p.name for p in eval_dir.glob("*")] == (["audit.jsonl"] if stage == "score" else [])


class RecordingHandler(BaseHTTPRequestHandler):
    """Records the roles of each request's messages; always answers
    "Prediction: Successful"."""

    requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        self.requests.append([m["role"] for m in payload["messages"]])
        body = json.dumps({"choices": [{"message": {"content": "Prediction: Successful"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def run_with_shots(tmp_path, pool_records, shots=2):
    pool = tmp_path / "pool.jsonl"
    emit_jsonl(pool_records, pool)
    dataset = tmp_path / "prompts.jsonl"
    write_eval_dataset(dataset, ["company a", "company b"])
    server = ThreadingHTTPServer(("127.0.0.1", 0), RecordingHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    RecordingHandler.requests = []
    try:
        result = invoke("eval-endpoint", "--dataset", str(dataset), "--shots", str(shots),
                        "--exemplars", str(pool), "--max-in-flight", "1",
                        "--base-url", f"http://127.0.0.1:{server.server_address[1]}",
                        "--out", str(tmp_path / "eval"))
    finally:
        server.shutdown()
        server.server_close()
    return result, pool


def test_shots_prepend_alternating_exemplar_turns(tmp_path):
    pool = [
        ChatRecord(messages=[ChatMessage("system", "be brief"), ChatMessage("user", f"company {i}"),
                             ChatMessage("assistant", "Prediction: Successful")],
                   org_id=f"ex{i}", label=i % 2)
        for i in range(6)
    ]
    result, _ = run_with_shots(tmp_path, pool)
    assert result.exit_code == 0, result.output
    assert RecordingHandler.requests == [["user", "assistant", "user", "assistant", "user"]] * 2
    assert json.loads((tmp_path / "eval" / "report.json").read_text())["shots"] == 2


def test_shots_from_an_inference_pool_exit_with_data_error(tmp_path):
    pool = [ChatRecord(messages=[ChatMessage("user", f"company {i}")],
                       org_id=f"ex{i}", label=i % 2)
            for i in range(6)]
    result, pool_path = run_with_shots(tmp_path, pool)
    assert result.exit_code == 3, result.output
    assert f"{pool_path}:1: exemplars must be completed supervised records" in result.output
    assert RecordingHandler.requests == []


def eval_inputs():
    """A V4 inference dataset of three companies and an SFT exemplar pool of
    four, as file contents, and the oracle's labels for their names."""
    def profiles(prefix, n):
        return [GOLDEN_PROFILE._replace(org_id=f"{prefix}{i}", name=f"{prefix} {i}",
                                        success=i % 2) for i in range(n)]

    contents = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, mode, n in (("dataset", "inference", 3), ("pool", "sft", 4)):
            path = Path(tmp) / f"{name}.jsonl"
            emit_jsonl([render_prompt(p, mode=mode) for p in profiles(name, n)], path)
            contents[name] = path.read_bytes()
    return contents, {p.name: p.success for p in profiles("dataset", 3)}


EVAL_INPUTS, EVAL_LABELS = eval_inputs()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_endpoint_survives_a_mutated_dataset_or_pool(oracle_server, data):
    """Exit 0, or exit 3 naming the mutated file before any request is sent."""
    which = data.draw(st.sampled_from(sorted(EVAL_INPUTS)))
    OracleHandler.labels_by_name = EVAL_LABELS
    OracleHandler.requests = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: tmp / f"{name}.jsonl" for name in EVAL_INPUTS}
        for name, content in EVAL_INPUTS.items():
            paths[name].write_bytes(content)
        paths[which].write_bytes(data.draw(mutated(EVAL_INPUTS[which], jsonl=True)))
        result = invoke("eval-endpoint", "--dataset", str(paths["dataset"]), "--shots", "2",
                        "--exemplars", str(paths["pool"]), "--max-retries", "0",
                        "--base-url", f"http://127.0.0.1:{oracle_server.server_address[1]}",
                        "--out", str(tmp / "eval"))
        assert_exit_0_or_3(result, paths[which])
    if result.exit_code == 3:
        assert OracleHandler.requests == []
    else:
        assert len(OracleHandler.requests) == json.loads(result.output.splitlines()[-1])["records"]


def test_features_creates_its_out_dir(tmp_path):
    data_dir = tmp_path / "data"
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "10", "--seed", "4")
    run_ok("ingest", "--data-dir", str(data_dir), "--out", str(tmp_path / "out"))
    new_dir = tmp_path / "new" / "profiles"
    run_ok("features", "--ingested", str(tmp_path / "out" / "ingested"), "--out", str(new_dir))
    assert (new_dir / "profiles.jsonl").exists()


@pytest.mark.parametrize("value,valid", [
    ("2025-06-11", True),
    ("20250611", False),
    ("2025W241", False),
    ("2025-W24-1", False),
    ("", False),
])
def test_reference_date_forms_do_not_depend_on_the_interpreter(tmp_path, value, valid):
    # date.fromisoformat reads the basic and week forms from Python 3.11 on.
    if valid:
        SynthConfig(reference_date=value).validate()
    else:
        with pytest.raises(ValueError, match=f"reference_date must be an ISO date, got {value!r}"):
            SynthConfig(reference_date=value).validate()
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(tmp_path / "data"), "--n", "10", "--seed", "4")
    run_ok("ingest", "--data-dir", str(tmp_path / "data"), "--out", str(tmp_path / "out"))
    result = invoke("features", "--out", str(tmp_path / "out"), "--reference-date", value)
    assert result.exit_code == (0 if valid else 2), result.output
    if not valid:
        assert f"not an ISO-8601 date: {value!r}" in result.output


@pytest.mark.parametrize("name", ["synth_threshold.json", "synth_logistic.json"])
def test_synth_summary_carries_the_configs_truth(tmp_path, name):
    run_ok("synth", "--synth-config", str(CONFIG_DIR / name), "--out", str(tmp_path / "cli"),
           "--n", "40", "--seed", "5")
    summary = json.loads((tmp_path / "cli" / "synth_summary.json").read_text())
    config = load_config(CONFIG_DIR / name)
    config.n_companies, config.seed = 40, 5
    assert (summary["beta"], summary["intercept"]) == (list(config.beta), config.intercept)
    assert summary["bayes_accuracy"] == dataclasses.asdict(estimate_bayes_accuracy(config))
    if config.noise == "threshold":
        assert summary["bayes_accuracy"] == {"accuracy": 1.0, "std_error": 0.0, "n_mc": 0}
    # Estimating the Bayes accuracy leaves the tables as the library writes them.
    generate(config, tmp_path / "lib")
    for file in [f"{kind}.csv" for kind in TABLE_KINDS] + ["ground_truth.jsonl"]:
        assert (tmp_path / "cli" / file).read_bytes() == (tmp_path / "lib" / file).read_bytes()


@pytest.mark.parametrize("field,value,shown", [
    ("n_companies", "5", "'n_companies' must be an integer, got '5'"),
    ("missing_rates", [], "'missing_rates' must be an object of numbers, got []"),
    ("beta", [0, 1, 0, "1", 0, 0], "'beta' must be a list of numbers"),
    ("reference_date", "June", "reference_date must be an ISO date, got 'June'"),
    ("seed", -1, "seed must be >= 0"),
    ("beta", DEEP_JSON, "nesting too deep"),
], ids=["int-as-string", "dict-as-list", "list-of-strings", "bad-date", "negative-seed", "too-deep"])
def test_mistyped_synth_config_is_usage_error(tmp_path, field, value, shown):
    config = json.loads((CONFIG_DIR / "synth_threshold.json").read_text())
    path = tmp_path / "synth.json"
    text = json.dumps({**config, field: value})
    if value is DEEP_JSON:
        text = text.replace(json.dumps(DEEP_JSON), DEEP_JSON)
    path.write_text(text, encoding="utf-8")
    result = invoke("synth", "--synth-config", str(path), "--out", str(tmp_path / "data"))
    assert result.exit_code == 2, result.output
    assert shown in result.output


@pytest.mark.parametrize("change, shown", [
    ({"intercept": math.nan}, "'intercept' must be a number, got nan"),
    ({"funding_sigma": math.nan}, "'funding_sigma' must be a number"),
    ({"age_range_years": [0, math.inf]}, "'age_range_years' must be a list of numbers"),
    ({"age_range_years": [0, 1e300]}, "age_range_years reaches before 0001-01-01"),
    ({"age_range_years": [0, 100000]}, "age_range_years reaches before 0001-01-01"),
    ({"reference_date": "0001-01-02"}, "from reference_date 0001-01-02"),
    ({"reference_date": "9999-12-31", "age_range_years": [0, 0.001]},
     "reference_date must be before 9999-12-31"),
    ({"funding_mu": 700, "funding_sigma": 0}, "funding_mu, funding_sigma and rounds_lambda"),
    ({"rounds_lambda": math.inf}, "'rounds_lambda' must be a number"),
    ({"rounds_lambda": 1e300}, "rounds_lambda must be in [0, 9.22337e+18]"),
], ids=["nan-intercept", "nan-sigma", "infinite-age", "huge-age", "age-before-year-1",
        "reference-in-year-1", "reference-at-date-max", "funding-overflow", "infinite-rate",
        "huge-rate"])
def test_synth_config_that_cannot_be_generated_is_usage_error(tmp_path, change, shown):
    config = json.loads((CONFIG_DIR / "synth_threshold.json").read_text())
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({**config, **change}), encoding="utf-8")
    result = invoke("synth", "--synth-config", str(path), "--out", str(tmp_path / "data"),
                    "--n", "50")
    assert result.exit_code == 2, result.output
    assert shown in result.output
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("args", [
    ["stats", "--profiles", "{dir}"],
    ["--config", "{dir}", "stats"],
    ["synth", "--synth-config", "{dir}"],
    ["ingest", "--mapping", "{dir}"],
    ["split", "--profiles", "{profiles}", "--ratios", "nan,0.5,0.5"],
    ["features", "--reference-date", "June"],
    ["prompts", "--profiles", "{profiles}", "--fewshot-k", "0"],
    ["train-baseline", "--rounds", "0"],
    ["train-baseline", "--reg-lambda", "nan"],
    ["train-baseline", "--threshold", "nan"],
    ["train-baseline", "--threshold", "-0.1"],
    ["train-baseline", "--threshold", "1.5"],
    ["prompts", "--profiles", "{profiles}", "--budget", "0"],
    ["synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"), "--out", "{dir}",
     "--seed", "-5"],
    ["stats", "--profiles", "{profiles}", "--out", "{dir}"],
    ["prompts", "--profiles", "{profiles}", "--out", "{dir}"],
    ["prompts", "--profiles", "{profiles}", "--manifest", "{dir}"],
    ["score", "--audit", "{profiles}", "--dataset", "{profiles}", "--out", "{dir}"],
    ["--log-file", "{dir}", "stats", "--profiles", "{profiles}"],
    ["eval-endpoint", "--dataset", "{profiles}", "--base-url", "http://127.0.0.1:9", "--shots", "-3"],
], ids=["input-is-dir", "config-is-dir", "synth-config-is-dir", "mapping-is-dir",
        "nan-ratio", "bad-date", "fewshot-0", "rounds-0", "reg-lambda-nan",
        "threshold-nan", "threshold-negative", "threshold-above-1", "budget-0",
        "synth-seed-negative", "stats-out-is-dir", "prompts-out-is-dir",
        "manifest-is-dir", "score-out-is-dir", "log-file-is-dir", "shots-negative"])
def test_bad_command_line_is_usage_error(tmp_path, args):
    profiles = tmp_path / "profiles.jsonl"
    write_profiles_jsonl([GOLDEN_PROFILE] * 4, profiles)
    args = [a.format(dir=tmp_path, profiles=profiles) for a in args]
    result = invoke(*args)
    assert result.exit_code == 2, result.output


def test_eval_endpoint_without_a_base_url_is_usage_error(tmp_path):
    result = invoke("eval-endpoint", "--dataset", str(tmp_path / "prompts.jsonl"))
    assert result.exit_code == 2, result.output
    assert "--base-url (or endpoint.base_url in the config) is required" in result.output


def test_prompts_fewshot_k_writes_k_balanced_records(tmp_path):
    profiles = tmp_path / "profiles.jsonl"
    write_profiles_jsonl([GOLDEN_PROFILE._replace(org_id=f"org{i}", success=int(i < 3))
                          for i in range(10)], profiles)
    out = tmp_path / "prompts.jsonl"
    args = ("prompts", "--profiles", str(profiles), "--out", str(out), "--mode", "inference")
    run_ok(*args, "--fewshot-k", "5")
    labels = [json.loads(line)["label"] for line in out.read_text().splitlines()]
    assert sorted(labels) == [0, 0, 1, 1, 1]

    result = invoke(*args, "--fewshot-k", "11")
    assert result.exit_code == 3, result.output
    assert f"{profiles}: k=11 exceeds corpus size 10" in result.output


def test_value_error_inside_a_stage_is_not_a_usage_error(tmp_path, monkeypatch):
    """Only flags, the run or synth config and missing inputs are usage
    errors; a ValueError from library code is a bug and keeps its traceback."""
    profiles = tmp_path / "profiles.jsonl"
    write_profiles_jsonl([GOLDEN_PROFILE], profiles)

    def broken(profiles):
        raise ValueError("library bug")

    monkeypatch.setattr("ventureval.features.corpus_stats", broken)
    result = invoke("stats", "--profiles", str(profiles), "--out", str(tmp_path / "stats.json"))
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError)


def test_lenient_ingest_collects_row_errors(tmp_path):
    data_dir = tmp_path / "data"
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "10", "--seed", "4")
    corrupt_first_founded_date(data_dir)
    out_dir = tmp_path / "out"
    run_ok("ingest", "--data-dir", str(data_dir), "--out", str(out_dir))
    summary = json.loads((out_dir / "ingest_summary.json").read_text())
    assert summary["n_row_errors"] == 1


def test_prompts_rerun_is_byte_identical(tmp_path):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "40", "--seed", "21")
    run_ok("ingest", "--data-dir", str(data_dir), "--out", str(out_dir))
    run_ok("features", "--out", str(out_dir))
    args = ("prompts", "--profiles", str(out_dir / "profiles.jsonl"),
            "--out", str(out_dir / "a.jsonl"), "--variant", "V3", "--mode", "sft",
            "--balance-seed", "3")
    run_ok(*args)
    first = (out_dir / "a.jsonl").read_bytes()
    run_ok(*args)
    assert (out_dir / "a.jsonl").read_bytes() == first


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    run_ok("synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
           "--out", str(data_dir), "--n", "30", "--seed", "2")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"data_dir = {data_dir}\nout_dir = {out_dir}\nvariant = V2\n",
        encoding="utf-8",
    )
    run_ok("--config", str(config_path), "ingest")
    run_ok("--config", str(config_path), "features")
    run_ok("--config", str(config_path), "prompts",
           "--out", str(out_dir / "from_file.jsonl"))
    record = json.loads((out_dir / "from_file.jsonl").read_text().splitlines()[0])
    assert record["variant"] == "V2"

    run_ok("--config", str(config_path), "prompts", "--variant", "V4",
           "--out", str(out_dir / "from_flag.jsonl"))
    record = json.loads((out_dir / "from_flag.jsonl").read_text().splitlines()[0])
    assert record["variant"] == "V4"


def test_unknown_config_key_is_usage_error(tmp_path):
    config_path = tmp_path / "run.cfg"
    for key in ("nonsense_key", "endpoint", "baseline", "endpoint.nonsense", "endpoint_base_url",
                "other.seed", ".seed"):
        config_path.write_text(f"{key} = 1\n", encoding="utf-8")
        result = invoke("--config", str(config_path), "stats")
        assert result.exit_code == 2, key
        assert f"unknown config key {key!r}" in result.output, key


def test_config_boolean_must_read_as_one(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("stratified = maybe\n", encoding="utf-8")
    result = invoke("--config", str(config_path), "stats")
    assert result.exit_code == 2, result.output
    assert "bad config file: not a boolean: 'maybe'" in result.output


def test_config_value_is_checked_like_its_flag(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("variant = V9\n", encoding="utf-8")
    result = invoke("--config", str(config_path), "prompts")
    assert result.exit_code == 2
    assert "'V9' is not one of" in result.output


def resolved_params(tmp_path, config_text, command):
    """The parameters ``command`` resolves under a run config, with no flag
    given: the group runs its callback, then parses the subcommand."""
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config_text, encoding="utf-8")
    ctx = main.make_context("ventureval", ["--config", str(config_path), command])
    with ctx:
        ctx.invoke(main.callback, **ctx.params)
        args = ["--synth-config", str(config_path)] if command == "synth" else []
        return main.commands[command].make_context(command, args, parent=ctx).params


MAPPING_FILE = Path(__file__).parent.parent / "src" / "ventureval" / "data" / "default_mapping.txt"

# Each run-config key, a non-default value, and the (command, parameter,
# value) it must resolve to when no flag is given.
CONFIG_KEY_CASES = {
    "data_dir": ("d1", [("synth", "out_dir", Path("d1")), ("ingest", "data_dir", Path("d1"))]),
    "out_dir": ("o1", [
        ("ingest", "out_dir", Path("o1")),
        ("features", "out_dir", Path("o1")),
        ("stats", "profiles_path", Path("o1/profiles.jsonl")),
        ("stats", "out_path", Path("o1/stats.json")),
        ("split", "profiles_path", Path("o1/profiles.jsonl")),
        ("split", "splits_dir", Path("o1/splits")),
        ("prompts", "profiles_path", Path("o1/profiles.jsonl")),
        ("prompts", "out_path", Path("o1/prompts.jsonl")),
        ("train-baseline", "splits_dir", Path("o1/splits")),
        ("train-baseline", "model_dir", Path("o1/baseline")),
        ("eval-endpoint", "dataset_path", Path("o1/prompts.jsonl")),
        ("eval-endpoint", "exemplars_path", Path("o1/prompts.jsonl")),
        ("eval-endpoint", "eval_dir", Path("o1/eval")),
        ("score", "audit_path", Path("o1/eval/audit.jsonl")),
        ("score", "dataset_path", Path("o1/prompts.jsonl")),
        ("score", "out_path", Path("o1/eval/rescore_report.json")),
    ]),
    "reference_date": ("2020-01-02", [("features", "reference_date", "2020-01-02")]),
    "variant": ("V2", [("prompts", "variant", "V2")]),
    "budget": ("99", [("prompts", "budget", 99)]),
    "seed": ("5", [("split", "seed", derive_seed(5, "split")),
                   ("prompts", "balance_seed", derive_seed(5, "balance")),
                   ("prompts", "fewshot_seed", derive_seed(5, "fewshot"))]),
    "ratios": ("0.6,0.2,0.2", [("split", "ratios", "0.6,0.2,0.2")]),
    "stratified": ("false", [("split", "stratified", False)]),
    "include_description": ("false", [("prompts", "include_description", False)]),
    "leakage_guard": ("false", [("prompts", "leakage_guard", False)]),
    "strict_ingest": ("true", [("ingest", "strict", True)]),
    "mapping": (str(MAPPING_FILE), [("ingest", "mapping_path", str(MAPPING_FILE))]),
    "endpoint.base_url": ("http://h:1", [("eval-endpoint", "base_url", "http://h:1")]),
    "endpoint.model": ("m1", [("eval-endpoint", "model", "m1")]),
    "endpoint.api_key_env": ("K1", [("eval-endpoint", "api_key_env", "K1")]),
    "endpoint.temperature": ("0.5", [("eval-endpoint", "temperature", 0.5)]),
    "endpoint.max_completion_tokens": ("7", [("eval-endpoint", "max_completion_tokens", 7)]),
    "endpoint.timeout_s": ("9.5", [("eval-endpoint", "timeout_s", 9.5)]),
    "endpoint.max_retries": ("1", [("eval-endpoint", "max_retries", 1)]),
    "endpoint.max_in_flight": ("2", [("eval-endpoint", "max_in_flight", 2)]),
    "baseline.n_rounds": ("7", [("train-baseline", "n_rounds", 7)]),
    "baseline.max_depth": ("2", [("train-baseline", "max_depth", 2)]),
    "baseline.learning_rate": ("0.3", [("train-baseline", "learning_rate", 0.3)]),
    "baseline.reg_lambda": ("2.5", [("train-baseline", "reg_lambda", 2.5)]),
    "baseline.gamma": ("0.5", [("train-baseline", "gamma", 0.5)]),
    "baseline.min_child_weight": ("3.0", [("train-baseline", "min_child_weight", 3.0)]),
}


def test_config_key_cases_cover_every_run_config_field():
    nested = {"endpoint": EndpointConfig, "baseline": GbdtConfig}
    keys = {f.name for f in dataclasses.fields(RunConfig) if f.name not in nested}
    for section, config in nested.items():
        keys |= {f"{section}.{f.name}" for f in dataclasses.fields(config)}
    assert set(CONFIG_KEY_CASES) == keys


@pytest.mark.parametrize("key", sorted(CONFIG_KEY_CASES))
def test_config_key_reaches_its_option(tmp_path, key):
    value, expected = CONFIG_KEY_CASES[key]
    for command, param, want in expected:
        default = resolved_params(tmp_path, "", command)[param]
        assert default != want, (command, param)  # the case must use a non-default value
        assert resolved_params(tmp_path, f"{key} = {value}\n", command)[param] == want, (command, param)
