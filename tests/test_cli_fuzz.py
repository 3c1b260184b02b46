"""Every data stage, fed one mutated input file, exits 0 or 3, never 1 or 2.

Exit 2 is for flags, the run or synth config and missing inputs; exit 1
is a bug. A data fault must exit 3 with a message that names the file.
Each property mutates one valid input: truncates it, flips or inserts
bytes, inserts bytes that are not UTF-8, drops or duplicates a line, or
(JSONL) gives one value another JSON type: a top-level one, or one in the
first object of a list (a prompt record's first message).
"""

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, GOLDEN_PROFILE
from ventureval.cli import main
from ventureval.features import write_profiles_jsonl
from ventureval.ingest import TABLE_KINDS
from ventureval.prompts import ChatMessage, ChatRecord, emit_jsonl

runner = CliRunner()

FUZZ = settings(max_examples=100, deadline=None)

OTHER_JSON_VALUES = [None, True, False, 0, 2, -1, 1.5, "", "x", [], [1], {}, {"a": 1}]


@st.composite
def mutated(draw, data: bytes, jsonl: bool, kind=None):
    kinds = ["truncate", "flip", "insert", "not UTF-8", "drop line", "duplicate line"]
    kind = kind or draw(st.sampled_from(kinds + ["retype"] if jsonl else kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind in ("insert", "not UTF-8"):
        at = draw(st.integers(0, len(data)))
        extra = (draw(st.binary(min_size=1, max_size=4)) if kind == "insert"
                 else draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"])))
        return data[:at] + extra + data[at:]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop line":
        del lines[i]
    elif kind == "duplicate line":
        lines.insert(i, lines[i])
    else:
        obj = target = json.loads(lines[i])
        key = draw(st.sampled_from(sorted(target)))
        if type(target[key]) is list and target[key] and draw(st.booleans()):
            target = target[key][0]  # a message of a prompt record or audit request
            key = draw(st.sampled_from(sorted(target)))
        target[key] = draw(st.sampled_from([v for v in OTHER_JSON_VALUES if v != target[key]]))
        lines[i] = json.dumps(obj).encode() + b"\n"
    return b"".join(lines)


def assert_exit_0_or_3(result, *named):
    """Exit 0, or exit 3 naming one of the ``named`` input files."""
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    assert result.exit_code in (0, 3), result.output
    if result.exit_code == 3:
        assert any(str(path) in result.output for path in named), result.output


def profile_lines(n=8) -> bytes:
    profiles = [
        GOLDEN_PROFILE._replace(org_id=f"org{i}", name=f"Company {i}",
                                success=i % 2, total_raised_usd=float(1000 * i))
        for i in range(n)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.jsonl"
        write_profiles_jsonl(profiles, path)
        return path.read_bytes()


PROFILES = profile_lines()


@pytest.fixture(scope="module")
def raw_tables(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("raw")
    result = runner.invoke(main, ["synth", "--synth-config", str(CONFIG_DIR / "synth_threshold.json"),
                                  "--out", str(data_dir), "--n", "12", "--seed", "3"])
    assert result.exit_code == 0, result.output
    return {kind: (data_dir / f"{kind}.csv").read_bytes() for kind in TABLE_KINDS}


def ingest_mutated(raw_tables, kind, content, tmp):
    """Run ingest on the raw tables with ``kind`` replaced by ``content``."""
    for name, table in raw_tables.items():
        (tmp / f"{name}.csv").write_bytes(table)
    (tmp / f"{kind}.csv").write_bytes(content)
    return runner.invoke(main, ["ingest", "--data-dir", str(tmp), "--out", str(tmp / "out")])


@FUZZ
@given(data=st.data())
def test_ingest_survives_a_mutated_table(raw_tables, data):
    kind = data.draw(st.sampled_from(TABLE_KINDS))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        result = ingest_mutated(raw_tables, kind, data.draw(mutated(raw_tables[kind], jsonl=False)), tmp)
        assert_exit_0_or_3(result, tmp / f"{kind}.csv")


@FUZZ
@given(data=st.data())
def test_ingest_reports_bytes_that_are_not_utf8(raw_tables, data):
    """Such a byte fails its line as a row error, or the header with exit 3."""
    kind = data.draw(st.sampled_from(TABLE_KINDS))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        content = data.draw(mutated(raw_tables[kind], jsonl=False, kind="not UTF-8"))
        result = ingest_mutated(raw_tables, kind, content, tmp)
        assert_exit_0_or_3(result, tmp / f"{kind}.csv")
        if result.exit_code == 0:
            summary = json.loads((tmp / "out" / "ingest_summary.json").read_text(encoding="utf-8"))
            reasons = [e["reason"] for e in summary["row_errors"][kind]]
            assert any(r.startswith("not UTF-8: byte 0x") for r in reasons), reasons


@pytest.fixture(scope="module")
def ingested_tables(raw_tables, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ingest")
    result = ingest_mutated(raw_tables, "jobs", raw_tables["jobs"], tmp)
    assert result.exit_code == 0, result.output
    return {kind: (tmp / "out" / "ingested" / f"{kind}.csv").read_bytes() for kind in TABLE_KINDS}


@FUZZ
@given(data=st.data())
def test_features_survives_a_mutated_ingested_table(ingested_tables, data):
    kind = data.draw(st.sampled_from(TABLE_KINDS))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in ingested_tables.items():
            (tmp / f"{name}.csv").write_bytes(content)
        bad = tmp / f"{kind}.csv"
        bad.write_bytes(data.draw(mutated(ingested_tables[kind], jsonl=False)))
        result = runner.invoke(main, ["features", "--ingested", str(tmp), "--out", str(tmp / "out")])
        assert_exit_0_or_3(result, bad)


def profile_stage_args(stage, bad, tmp):
    if stage == "train-baseline":
        (tmp / "test.jsonl").write_bytes(PROFILES)
        return ["train-baseline", "--splits", str(tmp), "--out", str(tmp / "model"),
                "--rounds", "2", "--depth", "2"]
    out = {"stats": "--out", "split": "--out-dir", "prompts": "--out"}[stage]
    return [stage, "--profiles", str(bad), out, str(tmp / "result")]


@pytest.mark.parametrize("stage", ["stats", "split", "prompts", "train-baseline"])
@FUZZ
@given(data=st.data())
def test_profile_stage_survives_a_mutated_profile_file(stage, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bad = tmp / "train.jsonl"
        bad.write_bytes(data.draw(mutated(PROFILES, jsonl=True)))
        result = runner.invoke(main, profile_stage_args(stage, bad, tmp))
        assert_exit_0_or_3(result, bad)


def score_inputs():
    records = [ChatRecord(messages=[ChatMessage("user", f"company {i}")],
                          org_id=f"org{i}", label=i % 2)
               for i in range(4)]
    answers = ["Prediction: Successful", "looks unsuccessful", "no idea", None]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        emit_jsonl(records, path)
        dataset = path.read_bytes()
    audit = b"".join(
        json.dumps({"org_id": f"org{i}", "request": [{"role": "user", "content": f"company {i}"}],
                    "raw": raw, "parsed": {}, "latency_ms": 1.5, "attempts": 1,
                    "transport_error": None if raw is not None else "HTTP 400"}).encode() + b"\n"
        for i, raw in enumerate(answers)
    )
    return {"dataset": dataset, "audit": audit}


SCORE_INPUTS = score_inputs()


@FUZZ
@given(data=st.data())
def test_score_survives_a_mutated_audit_or_dataset(data):
    """A dataset fault can surface as an audit line whose org_id has no label,
    so on exit 3 either input may be the one named."""
    which = data.draw(st.sampled_from(sorted(SCORE_INPUTS)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: tmp / f"{name}.jsonl" for name in SCORE_INPUTS}
        for name, content in SCORE_INPUTS.items():
            paths[name].write_bytes(content)
        paths[which].write_bytes(data.draw(mutated(SCORE_INPUTS[which], jsonl=True)))
        result = runner.invoke(main, ["score", "--audit", str(paths["audit"]),
                                      "--dataset", str(paths["dataset"]),
                                      "--out", str(tmp / "rescore.json")])
        assert_exit_0_or_3(result, *paths.values())
