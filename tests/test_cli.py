"""CLI pipeline: end-to-end runs, exit codes, re-runnability."""

import csv
import dataclasses
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner

from conftest import CONFIG_DIR, GOLDEN_PROFILE
from ventureval.cli import main
from ventureval.features import write_profiles_jsonl

runner = CliRunner()


def invoke(*args, **kwargs):
    result = runner.invoke(main, list(args), **kwargs)
    return result


def run_ok(*args):
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return result


class OracleHandler(BaseHTTPRequestHandler):
    """Answers with the true label for the company named in the prompt."""

    labels_by_name = {}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        content = payload["messages"][-1]["content"]
        match = re.search(r"^Name: (.*)$", content, re.MULTILINE)
        label = self.labels_by_name[match.group(1)]
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

    manifest = json.loads((out_dir / "training_manifest.json").read_text())
    assert manifest["learning_rate"] == 5e-4

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
    rescore = json.loads((out_dir / "eval" / "rescore.json").read_text())
    assert rescore["report"] == report["report"]

    # structured log lines: one JSON object per completed stage
    stages = [json.loads(line)["stage"] for line in log.read_text().splitlines()]
    for stage in ("synth", "ingest", "features", "split", "prompts",
                  "train-baseline", "eval-endpoint", "score"):
        assert stage in stages


def test_features_without_ingest_is_usage_error(tmp_path):
    result = invoke("features", "--out", str(tmp_path / "out"))
    assert result.exit_code == 2
    assert "missing input" in result.output


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


def test_single_class_training_split_exits_with_data_error(tmp_path):
    splits = tmp_path / "splits"
    splits.mkdir()
    negatives = [
        dataclasses.replace(GOLDEN_PROFILE, org_id=f"org{i}", success=0,
                            total_raised_usd=float(i))
        for i in range(200)
    ]
    for name in ("train", "val", "test"):
        write_profiles_jsonl(negatives, splits / f"{name}.jsonl")
    result = invoke("train-baseline", "--splits", str(splits),
                    "--out", str(tmp_path / "baseline"))
    assert result.exit_code == 3
    assert "training labels contain a single class" in result.output


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
    config_path.write_text("nonsense_key = 1\n", encoding="utf-8")
    result = invoke("--config", str(config_path), "stats")
    assert result.exit_code == 2
