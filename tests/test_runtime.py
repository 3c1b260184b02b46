"""The runtime policy every command runs under (``cli._stage``): the cyclic
garbage collector is off while a stage runs and comes back as the caller had
it, OpenBLAS gets one thread unless the caller chose, and the log line
carries the stage's CPU time and peak RSS.

Turning the collector off is safe because no command leaves cyclic garbage
that grows with its input: after one warm-up run, a run on n companies (or
records) and one on 4n leave the same count for a full collection, on
hostile inputs and failed runs too.
"""

import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from conftest import CONFIG_DIR
from test_transport import MAX_BODY, completion_body, raw, wait_for  # noqa: F401  (raw is a fixture)
from ventureval import cli
from ventureval.client import EndpointConfig, dataset_labels, run_eval, score_audit_log
from ventureval.errors import DataError, TransportError
from ventureval.prompts import ChatMessage, ChatRecord, emit_jsonl

SYNTH_CONFIG = str(CONFIG_DIR / "synth_logistic.json")
SIZES = (60, 240)  # n and 4n

runner = CliRunner()


def cyclic_garbage(run) -> int:
    """The objects in reference cycles that ``run()`` leaves unreachable: a
    full collection's count after it, with the collector off meanwhile."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if collecting:
            gc.enable()


def invoke(args, exit_code=0):
    result = runner.invoke(cli.main, [str(a) for a in args])
    assert result.exit_code == exit_code, result.output
    return result


def run_cli(args) -> int:
    """The exit code of the CLI on ``args``, run in this process as the
    console script runs it. Not through CliRunner: the ``exc_info`` it keeps
    of a failed run holds the run's frames, its input rows among their
    locals, in a cycle of its own."""
    try:
        cli.main([str(a) for a in args], prog_name="ventureval")
    except SystemExit as exc:
        return exc.code


# ------------------------------------------------------------ the endpoint

KINDS = ["company", "reject", "malformed", "reset", "huge", "busy", "down"]


def answer(request: bytes, seen: set):
    """Answers by the prompt's first word: "reject" gets 400, "malformed" a
    200 that is not JSON, "reset" a reset connection, "huge" a body over the
    transport's cap, "busy" and "down" a 429 and a 503 on first sight and
    200 after; anything else a completion."""
    body = request.partition(b"\r\n\r\n")[2]
    content = json.loads(body)["messages"][-1]["content"]
    kind = content.split()[0]
    status, text = 200, completion_body("Prediction: Successful")
    if kind == "reject":
        status, text = 400, '{"error": "unsuccessful request"}'
    elif kind == "malformed":
        text = "<html>oops</html>"
    elif kind == "reset":
        return None
    elif kind == "huge":
        return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY + 1)
    elif kind in ("busy", "down") and content not in seen:
        seen.add(content)
        status = 429 if kind == "busy" else 503
    data = text.encode("utf-8")
    return b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n%s" % (status, len(data), data)


@pytest.fixture
def endpoint(raw):  # noqa: F811
    seen = set()
    raw.answer = lambda request: answer(request, seen)
    return raw


def eval_records(n, prefix="r"):
    return [ChatRecord(messages=[ChatMessage("user", f"{KINDS[i % len(KINDS)]} {prefix}{i}")],
                       org_id=f"{prefix}{i}", label=i % 2)
            for i in range(n)]


# ------------------------------------------------------------- the corpora


def add_rows(path, rows):
    """Append raw lines to a CSV table."""
    with open(path, "ab") as fh:
        fh.write(b"".join(rows))


def make_hostile(data_dir, k):
    """Add ``k`` rows of each kind of row error to the tables in ``data_dir``:
    a bad date, a bad amount, a duplicate key, a self-acquisition,
    undecodable bytes and a short row."""
    with open(data_dir / "organizations.csv", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)  # the header
        org = next(rows)
    add_rows(data_dir / "organizations.csv",
             [b"bad%d,Name,,2020-13-45,\r\n" % i for i in range(k)]
             + [(",".join(org) + "\r\n").encode("utf-8")] * k
             + [b"ff%d,Caf\xe9,,,\r\n" % i for i in range(k)])
    add_rows(data_dir / "funding_rounds.csv",
             [b"rb%d,%s,2020-01-01,lots\r\n" % (i, org[0].encode()) for i in range(k)]
             + [b"rs%d\r\n" % i for i in range(k)])
    add_rows(data_dir / "acquisitions.csv",
             [b"%s,%s,2020-01-01\r\n" % (org[0].encode(), org[0].encode())] * k)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """One corpus per size, each stage's inputs in place."""
    made = {}
    for n in SIZES:
        root = tmp_path_factory.mktemp(f"n{n}")
        data, out, splits = root / "data", root / "out", root / "out" / "splits"
        invoke(["synth", "--synth-config", SYNTH_CONFIG, "--n", n, "--seed", 3, "--out", data])
        shutil.copytree(data, root / "hostile")
        make_hostile(root / "hostile", n // 20)
        invoke(["ingest", "--data-dir", data, "--out", out])
        invoke(["features", "--out", out])
        invoke(["split", "--profiles", out / "profiles.jsonl", "--out-dir", splits])
        text = (out / "profiles.jsonl").read_text(encoding="utf-8")
        (root / "malformed.jsonl").write_text(text + "{not json\n", encoding="utf-8")
        emit_jsonl(eval_records(n), root / "eval.jsonl")
        audit = [{"org_id": f"r{i}", "raw": "Prediction: Successful"} if i % 3 == 0
                 else {"org_id": f"r{i}", "raw": "no idea"} if i % 3 == 1
                 else {"org_id": f"r{i}", "transport_error": "retries exhausted after 1 attempts"}
                 for i in range(n)]
        (root / "audit.jsonl").write_text("".join(json.dumps(e) + "\n" for e in audit),
                                          encoding="utf-8")
        made[n] = root
    return made


def stage_args(stage, n, root, out, url):
    """The arguments that run ``stage`` on the corpus of ``n`` companies at
    ``root``, writing under ``out``, and the exit code they must give."""
    profiles = root / "out" / "profiles.jsonl"
    prompts = ["prompts", "--profiles", profiles, "--out", out / "prompts.jsonl", "--mode"]
    return {
        "synth": (["synth", "--synth-config", SYNTH_CONFIG, "--n", n, "--out", out], 0),
        "ingest": (["ingest", "--data-dir", root / "data", "--out", out], 0),
        "ingest-hostile": (["ingest", "--data-dir", root / "hostile", "--out", out], 0),
        "ingest-strict": (["ingest", "--strict", "--data-dir", root / "hostile", "--out", out], 3),
        "features": (["features", "--ingested", root / "out" / "ingested", "--out", out], 0),
        "stats": (["stats", "--profiles", profiles, "--out", out / "stats.json"], 0),
        "stats-malformed": (["stats", "--profiles", root / "malformed.jsonl",
                             "--out", out / "stats.json"], 3),
        "split": (["split", "--profiles", profiles, "--out-dir", out], 0),
        "prompts-sft": (prompts + ["sft"], 0),
        "prompts-inference": (prompts + ["inference"], 0),
        "train-baseline": (["train-baseline", "--splits", root / "out" / "splits", "--out", out], 0),
        "eval-endpoint": (["eval-endpoint", "--dataset", root / "eval.jsonl", "--base-url", url,
                           "--max-retries", 0, "--max-in-flight", 2, "--out", out], 0),
        "score": (["score", "--audit", root / "audit.jsonl", "--dataset", root / "eval.jsonl",
                   "--out", out / "rescore.json"], 0),
    }[stage]


STAGES = ["synth", "ingest", "ingest-hostile", "ingest-strict", "features", "stats",
          "stats-malformed", "split", "prompts-sft", "prompts-inference", "train-baseline",
          "eval-endpoint", "score"]


@pytest.mark.parametrize("stage", STAGES)
def test_no_command_leaves_cyclic_garbage_that_grows_with_its_input(stage, corpora, request,
                                                                    tmp_path):
    url = request.getfixturevalue("endpoint").url if stage == "eval-endpoint" else None
    threads = threading.active_count()

    def run(n, name):
        args, exit_code = stage_args(stage, n, corpora[n], tmp_path / name, url)

        def go():
            assert run_cli(["--log-file", tmp_path / "run.log", *args]) == exit_code
            wait_for(lambda: threading.active_count() == threads)

        return go

    run(SIZES[0], "warm-up")()
    counts = [cyclic_garbage(run(n, f"n{n}")) for n in SIZES]
    assert counts[0] == counts[1], counts


def test_the_eval_library_path_leaves_no_cyclic_garbage_that_grows(endpoint, tmp_path):
    # 429 and 503 are retried here, with the backoff's sleep injected.
    config = EndpointConfig(base_url=endpoint.url, model="m", max_retries=2, max_in_flight=2)
    threads = threading.active_count()

    def run(n, name):
        records = eval_records(n, prefix=name)
        audit = tmp_path / f"{name}.jsonl"
        failing = sum(KINDS[i % len(KINDS)] in ("reject", "malformed", "reset", "huge")
                      for i in range(n))

        def go():
            result = run_eval(config, records, audit_path=audit, sleep=lambda s: None)
            assert result.transport_failures == failing
            assert score_audit_log(audit, dataset_labels(records)).summary() == result.summary()
            wait_for(lambda: threading.active_count() == threads)

        return go

    run(SIZES[0], "warm-up")()
    counts = [cyclic_garbage(run(n, f"n{n}")) for n in SIZES]
    assert counts[0] == counts[1], counts


# ------------------------------------------------- the policy and its keys


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("outcome, exit_code", [
    ("ok", 0), ("data error", 3), ("transport error", 4), ("bug", 1),
])
def test_a_stage_runs_without_the_collector_and_restores_the_callers(collecting, outcome,
                                                                      exit_code):
    seen = []

    @click.group()
    @click.pass_context
    def group(ctx):
        ctx.obj = {"log_file": None}

    @group.command("probe")
    @cli._stage("probe")
    def probe(ctx):
        seen.append(gc.isenabled())
        if outcome == "data error":
            raise DataError("a bad row")
        if outcome == "transport error":
            raise TransportError("no answer")
        if outcome == "bug":
            raise RuntimeError("a bug")

    (gc.enable if collecting else gc.disable)()
    try:
        result = runner.invoke(group, ["probe"])
        after = gc.isenabled()
    finally:
        gc.enable()
    assert result.exit_code == exit_code, result.output
    assert seen == [False]
    assert after is collecting


SRC_DIR = Path(__file__).parent.parent / "src"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_importing_the_cli_gives_openblas_one_thread_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(SRC_DIR)
    code = "import os, ventureval.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read from /proc")
def test_the_log_line_carries_cpu_time_and_peak_rss(corpora, tmp_path):
    log = tmp_path / "run.log"
    invoke(["--log-file", log, "ingest", "--data-dir", corpora[SIZES[1]] / "data",
            "--out", tmp_path / "out"])
    (entry,) = [json.loads(line) for line in log.read_text().splitlines()]
    assert type(entry["cpu_s"]) is float and entry["cpu_s"] > 0
    assert type(entry["peak_rss_mb"]) is float and entry["peak_rss_mb"] > 0


def test_peak_rss_is_left_out_where_proc_cannot_be_read(corpora, tmp_path, monkeypatch):
    real_open = open

    def no_proc(path, *args, **kwargs):
        if str(path).startswith("/proc/"):
            raise FileNotFoundError(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    log = tmp_path / "run.log"
    invoke(["--log-file", log, "stats", "--profiles", corpora[SIZES[0]] / "out" / "profiles.jsonl",
            "--out", tmp_path / "stats.json"])
    (entry,) = [json.loads(line) for line in log.read_text().splitlines()]
    assert "peak_rss_mb" not in entry
    assert entry["status"] == "ok" and "cpu_s" in entry
