"""Endpoint client: parsing grammar, retries, ordering, concurrency, audit."""

import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventureval.client import (
    FALLBACK_PARSED,
    PARSED,
    UNPARSEABLE,
    EndpointConfig,
    chat_complete,
    parse_response,
    run_eval,
    score_audit_log,
)
from ventureval.errors import DataError, ProtocolError, TransportError
from ventureval.prompts import ChatMessage, ChatRecord

ENDPOINT = EndpointConfig(base_url="http://mock.local/v1", model="mock")


def completion_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def constant_transport(text, status=200):
    def transport(url, payload, timeout_s, headers):
        return status, completion_body(text) if status == 200 else "error"

    return transport


def make_records(n, labels=None):
    records = []
    for i in range(n):
        label = labels[i] if labels is not None else i % 2
        records.append(
            ChatRecord(
                messages=[ChatMessage("user", f"company {i}")],
                org_id=f"c{i}",
                label=label,
            )
        )
    return records


# ----------------------------------------------------------------- parse


def test_parse_primary_grammar():
    parsed = parse_response(
        "Prediction: Successful\nJustification: Strong funding and many investors."
    )
    assert parsed.label == 1
    assert parsed.justification == "Strong funding and many investors."
    assert parsed.parse_status == PARSED


def test_parse_unparseable():
    parsed = parse_response("I think this company will fail.")
    assert parsed.label is None
    assert parsed.parse_status == UNPARSEABLE


def test_parse_fallback_standalone_keyword():
    parsed = parse_response("the startup looks UNSUCCESSFUL overall")
    assert parsed.label == 0
    assert parsed.justification is None
    assert parsed.parse_status == FALLBACK_PARSED


@pytest.mark.parametrize(
    "raw,label",
    [
        ("prediction: successful", 1),
        ("Prediction: Unsuccessful", 0),
        ("prediction: YES", 1),
        ("prediction: no", 0),
        ("Prediction: 1", 1),
        ("Prediction: 0", 0),
        ("Prediction: **Successful**", 1),
    ],
)
def test_parse_synonyms(raw, label):
    parsed = parse_response(raw)
    assert parsed.label == label
    assert parsed.parse_status == PARSED


def test_parse_unsuccessful_not_shadowed_by_successful():
    assert parse_response("prediction: unsuccessful").label == 0
    assert parse_response("definitely unsuccessful, not successful").label == 0


@pytest.mark.parametrize(
    "raw",
    [
        "Prediction: not successful",
        "It could turn out successful or unsuccessful.",
        "This company isn't successful.",
        "never successful, by any measure",
        "successful today, successful tomorrow",
    ],
)
def test_parse_fallback_rejects_negated_or_two_label_answers(raw):
    parsed = parse_response(raw)
    assert (parsed.label, parsed.parse_status) == (None, UNPARSEABLE)


FILLER_WORDS = ("the", "company", "looks", "to", "me", "nothing", "notably", "know", "snow",
                "cannot", "successfully", "unsuccessfully", "it's", "Note:", "on", "balance")
NEGATORS = ("not", "never", "no", "NOT", "Never", "isn't", "won't", "doesn’t")
LABEL_WORDS = {"successful": 1, "Successful": 1, "unsuccessful": 0, "UNSUCCESSFUL": 0}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FILLER_WORDS + NEGATORS + tuple(LABEL_WORDS)), max_size=12))
def test_parse_fallback_trusts_exactly_one_label_word_without_negator(words):
    answers = [
        LABEL_WORDS[word]
        for i, word in enumerate(words)
        if word in LABEL_WORDS and (i == 0 or words[i - 1] not in NEGATORS)
    ]
    parsed = parse_response(" ".join(words))
    if len(answers) == 1:
        assert (parsed.label, parsed.parse_status) == (answers[0], FALLBACK_PARSED)
    else:
        assert (parsed.label, parsed.parse_status) == (None, UNPARSEABLE)


def test_parse_fallback_ignores_digits_and_yes_no():
    # 'no'/'1'/'0' outside the prediction slot must not be treated as labels
    assert parse_response("There are 0 investors and no funding.").label is None


def test_parse_is_pure():
    raw = "Prediction: Successful\nJustification: x"
    assert parse_response(raw) == parse_response(raw)


# ------------------------------------------------------------- transport


def test_chat_complete_passthrough():
    result = chat_complete(
        ENDPOINT,
        [{"role": "user", "content": "hi"}],
        transport=constant_transport("fixed answer"),
        sleep=lambda s: None,
    )
    assert result.text == "fixed answer"
    assert result.attempts == 1


def test_chat_complete_retries_503_then_succeeds():
    calls = {"n": 0}

    def transport(url, payload, timeout_s, headers):
        calls["n"] += 1
        if calls["n"] <= 2:
            return 503, "busy"
        return 200, completion_body("ok")

    result = chat_complete(
        ENDPOINT,
        [{"role": "user", "content": "hi"}],
        transport=transport,
        sleep=lambda s: None,
    )
    assert result.attempts == 3
    assert result.text == "ok"


def test_chat_complete_exhausts_retries():
    endpoint = EndpointConfig(base_url="http://mock.local", model="m", max_retries=2)
    calls = {"n": 0}

    def transport(url, payload, timeout_s, headers):
        calls["n"] += 1
        return 500, "boom"

    with pytest.raises(TransportError) as excinfo:
        chat_complete(
            endpoint,
            [{"role": "user", "content": "hi"}],
            transport=transport,
            sleep=lambda s: None,
        )
    assert calls["n"] == 3
    assert len(excinfo.value.attempts) == 3


def test_chat_complete_non_retryable_4xx():
    calls = {"n": 0}

    def transport(url, payload, timeout_s, headers):
        calls["n"] += 1
        return 404, "nope"

    with pytest.raises(TransportError):
        chat_complete(
            ENDPOINT,
            [{"role": "user", "content": "hi"}],
            transport=transport,
            sleep=lambda s: None,
        )
    assert calls["n"] == 1


def test_chat_complete_malformed_json_is_protocol_error():
    with pytest.raises(ProtocolError):
        chat_complete(
            ENDPOINT,
            [{"role": "user", "content": "hi"}],
            transport=lambda u, p, t, h: (200, "<html>oops</html>"),
            sleep=lambda s: None,
        )


def test_request_payload_shape_and_auth(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "secret-token")
    endpoint = EndpointConfig(
        base_url="http://mock.local/v1", model="m7", api_key_env="TEST_API_KEY",
        temperature=0.25, max_completion_tokens=64,
    )
    seen = {}

    def transport(url, payload, timeout_s, headers):
        seen.update(url=url, payload=payload, headers=headers)
        return 200, completion_body("ok")

    chat_complete(
        endpoint, [{"role": "user", "content": "hi"}], transport=transport,
        sleep=lambda s: None,
    )
    assert seen["url"] == "http://mock.local/v1/chat/completions"
    assert seen["payload"]["model"] == "m7"
    assert seen["payload"]["temperature"] == 0.25
    assert seen["payload"]["max_tokens"] == 64
    assert seen["headers"]["Authorization"] == "Bearer secret-token"


# ---------------------------------------------------------------- run_eval


def oracle_transport(records):
    """Answers with the ground-truth label by matching the prompt text."""
    by_text = {
        r.messages[-1].content: r.label for r in records
    }

    def transport(url, payload, timeout_s, headers):
        label = by_text[payload["messages"][-1]["content"]]
        word = "Successful" if label == 1 else "Unsuccessful"
        return 200, completion_body(f"Prediction: {word}\nJustification: oracle.")

    return transport


def test_run_eval_oracle_mock_scores_one():
    records = make_records(60)
    result = run_eval(ENDPOINT, records, transport=oracle_transport(records),
                      sleep=lambda s: None)
    assert result.report.accuracy == 1.0
    assert result.parse_failures == 0


def test_run_eval_constant_mock_on_balanced_set():
    records = make_records(400)
    result = run_eval(
        ENDPOINT, records, transport=constant_transport("Prediction: Successful"),
        sleep=lambda s: None,
    )
    assert result.report.accuracy == 0.5


def test_run_eval_outcomes_in_input_order_with_random_latency():
    records = make_records(40)
    rng = random.Random(9)
    lock = threading.Lock()

    def transport(url, payload, timeout_s, headers):
        with lock:
            delay = rng.random() * 0.01
        time.sleep(delay)
        text = payload["messages"][-1]["content"]  # "company <i>"
        return 200, completion_body(f"Prediction: Successful\nJustification: {text}")

    result = run_eval(ENDPOINT, records, transport=transport, sleep=lambda s: None)
    assert [o.org_id for o in result.outcomes] == [f"c{i}" for i in range(40)]
    for i, outcome in enumerate(result.outcomes):
        assert outcome.response.justification == f"company {i}"


def test_run_eval_bounded_concurrency():
    endpoint = EndpointConfig(base_url="http://mock.local", model="m", max_in_flight=3)
    state = {"current": 0, "max": 0}
    lock = threading.Lock()

    def transport(url, payload, timeout_s, headers):
        with lock:
            state["current"] += 1
            state["max"] = max(state["max"], state["current"])
        time.sleep(0.005)
        with lock:
            state["current"] -= 1
        return 200, completion_body("Prediction: Successful")

    run_eval(endpoint, make_records(30), transport=transport, sleep=lambda s: None)
    assert state["max"] <= 3


def test_run_eval_transport_errors_counted_not_fatal(tmp_path):
    records = make_records(50)
    endpoint = EndpointConfig(base_url="http://mock.local", model="m", max_retries=0)
    failing = {f"c{i}" for i in (3, 17, 41)}

    def transport(url, payload, timeout_s, headers):
        text = payload["messages"][-1]["content"]
        index = int(text.split()[-1])
        if f"c{index}" in failing:
            return 500, "boom"
        label = index % 2
        word = "Successful" if label else "Unsuccessful"
        return 200, completion_body(f"Prediction: {word}")

    audit_path = tmp_path / "audit.jsonl"
    result = run_eval(endpoint, records, transport=transport, sleep=lambda s: None,
                      audit_path=audit_path)
    assert result.parse_failures == 3
    assert result.transport_failures == 3
    assert len(result.outcomes) == 50
    # the three failures are scored incorrect
    assert result.report.accuracy == pytest.approx(47 / 50)

    statuses = [o.response.parse_status for o in result.outcomes]
    assert statuses.count(UNPARSEABLE) == 3
    assert statuses.count(PARSED) == 47

    # audit log re-scores to the same report
    labels = {f"c{i}": i % 2 for i in range(50)}
    rescored = score_audit_log(audit_path, labels)
    assert rescored.report == result.report
    assert rescored.parse_failures == 3


def test_run_eval_accounting_identity():
    records = make_records(30)

    def transport(url, payload, timeout_s, headers):
        index = int(payload["messages"][-1]["content"].split()[-1])
        if index % 3 == 0:
            return 200, completion_body("no idea at all")
        if index % 3 == 1:
            return 200, completion_body("looks successful to me")
        return 200, completion_body("Prediction: Unsuccessful")

    result = run_eval(ENDPOINT, records, transport=transport, sleep=lambda s: None)
    statuses = [o.response.parse_status for o in result.outcomes]
    assert (
        statuses.count(PARSED)
        + statuses.count(FALLBACK_PARSED)
        + statuses.count(UNPARSEABLE)
        == 30
    )
    n_correct = sum(o.correct for o in result.outcomes)
    assert n_correct <= statuses.count(PARSED) + statuses.count(FALLBACK_PARSED)


def test_run_eval_requires_labels():
    record = ChatRecord(messages=[ChatMessage("user", "x")], org_id="c0")
    with pytest.raises(ValueError):
        run_eval(ENDPOINT, [record], transport=constant_transport("x"))


def never_called(url, payload, timeout_s, headers):
    pytest.fail("no request may be sent")


def test_run_eval_rejects_a_record_without_org_id():
    records = make_records(3)
    records[1] = ChatRecord(messages=[ChatMessage("user", "x")], label=1)
    with pytest.raises(ValueError, match="record 2 has no org_id"):
        run_eval(ENDPOINT, records, transport=never_called)


def test_run_eval_rejects_a_repeated_org_id(tmp_path):
    # The audit joins on org_id: two records sharing one cannot be re-scored.
    records = make_records(3) + [ChatRecord(messages=[ChatMessage("user", "y")], org_id="c1", label=0)]
    with pytest.raises(ValueError, match="'c1' appears more than once"):
        run_eval(ENDPOINT, records, transport=never_called, audit_path=tmp_path / "audit.jsonl")
    assert not (tmp_path / "audit.jsonl").exists()


def test_a_data_error_is_a_value_error():
    assert issubclass(DataError, ValueError)


@pytest.mark.parametrize("records,message", [
    ([], "dataset is empty"),
    (make_records(2) + [ChatRecord(messages=[ChatMessage("user", "x")], org_id="c9")],
     "record 'c9' has no true 0/1 label"),
    (make_records(2) + [ChatRecord(messages=[ChatMessage("user", "x")], label=0)],
     "record 3 has no org_id"),
    (make_records(2) * 2, "org_id 'c0' appears more than once"),
], ids=["empty", "unlabeled", "no-org-id", "repeated-org-id"])
def test_run_eval_raises_a_data_error_before_any_request(records, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        run_eval(ENDPOINT, records, transport=never_called)


@pytest.mark.parametrize(
    "field,value",
    [
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("temperature", -0.1),
        ("timeout_s", float("nan")),
        ("timeout_s", float("inf")),
        ("timeout_s", 0.0),
        ("max_completion_tokens", 0),
        ("base_url", "http://127.0.0.1:notaport"),
        ("base_url", "http://127.0.0.1:99999"),
        ("base_url", "ftp://mock.local/v1"),
        ("base_url", "mock.local/v1"),
        ("base_url", "http:///v1"),
        ("base_url", "http://[::1/v1"),
    ],
)
def test_endpoint_rejects_non_finite_or_out_of_range_settings(field, value):
    endpoint = EndpointConfig(**{"base_url": "http://mock.local", "model": "m", field: value})
    with pytest.raises(ValueError, match=field):
        endpoint.validate()

    def transport(url, payload, timeout_s, headers):
        pytest.fail("an invalid endpoint must not send anything")

    with pytest.raises(ValueError):
        chat_complete(endpoint, [{"role": "user", "content": "hi"}],
                      transport=transport, sleep=lambda s: None)


# ------------------------------------------------------ live == offline

ANSWER_KINDS = ("primary", "fallback", "unparseable", "4xx", "flaky", "malformed", "flaky-malformed")


def scripted_transport(answers):
    """Answers "company <i>" as ``answers[i] = (kind, label word, ...)`` says.

    A 4xx body carries the label word; a flaky record gets a 503 first, and a
    flaky-malformed one a 503 and then a 200 that is not JSON.
    """
    lock = threading.Lock()
    seen = set()

    def transport(url, payload, timeout_s, headers):
        index = int(payload["messages"][-1]["content"].split()[-1])
        kind, word = answers[index][:2]
        if kind == "primary":
            return 200, completion_body(f"Prediction: {word}\nJustification: scripted.")
        if kind == "fallback":
            return 200, completion_body(f"the company looks {word.lower()}")
        if kind == "unparseable":
            return 200, completion_body("no idea at all")
        if kind == "4xx":
            return 400, json.dumps({"error": {"message": f"{word.lower()} request"}})
        if kind == "malformed":
            return 200, "<html>oops</html>"
        with lock:
            first = index not in seen
            seen.add(index)
        if first:
            return 503, "busy"
        if kind == "flaky-malformed":
            return 200, "<html>oops</html>"
        return 200, completion_body(f"Prediction: {word}")

    return transport


def per_org(result):
    return {o.org_id: (o.response.parse_status, o.response.label, o.attempts) for o in result.outcomes}


@settings(max_examples=60, deadline=None)
@given(
    answers=st.lists(
        st.tuples(
            st.sampled_from(ANSWER_KINDS),
            st.sampled_from(["Successful", "Unsuccessful"]),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=12,
    ),
    max_in_flight=st.integers(1, 4),
)
def test_score_audit_log_reproduces_live_result(answers, max_in_flight):
    endpoint = EndpointConfig(base_url="http://mock.local", model="m", max_in_flight=max_in_flight)
    records = make_records(len(answers), labels=[label for _, _, label in answers])
    with tempfile.TemporaryDirectory() as tmp:
        audit_path = Path(tmp) / "audit.jsonl"
        live = run_eval(endpoint, records, transport=scripted_transport(answers),
                        audit_path=audit_path, sleep=lambda s: None)
        labels = {f"c{i}": label for i, (_, _, label) in enumerate(answers)}
        rescored = score_audit_log(audit_path, labels)

    failed = [i for i, (kind, _, _) in enumerate(answers)
              if kind in ("4xx", "malformed", "flaky-malformed")]
    assert live.transport_failures == len(failed)
    assert all(live.outcomes[i].response.label is None for i in failed)
    assert [o.attempts for o in live.outcomes] == [
        2 if kind.startswith("flaky") else 1 for kind, _, _ in answers
    ]
    assert rescored.report == live.report
    assert rescored.parse_failures == live.parse_failures
    assert rescored.transport_failures == live.transport_failures
    assert per_org(rescored) == per_org(live)
    assert {o.org_id: o.latency_ms for o in rescored.outcomes} == {
        o.org_id: o.latency_ms for o in live.outcomes
    }


def test_audit_line_schema(tmp_path):
    answers = [("primary", "Successful"), ("4xx", "Successful"), ("malformed", ""),
               ("flaky-malformed", "")]
    audit_path = tmp_path / "audit.jsonl"
    run_eval(ENDPOINT, make_records(4), transport=scripted_transport(answers),
             audit_path=audit_path, sleep=lambda s: None)
    lines = {
        line["org_id"]: line
        for line in map(json.loads, audit_path.read_text().splitlines())
    }
    assert set(lines) == {"c0", "c1", "c2", "c3"}
    assert lines["c0"]["raw"].startswith("Prediction: Successful")
    assert lines["c0"]["transport_error"] is None
    assert lines["c1"]["raw"] is None
    assert lines["c1"]["transport_error"].startswith("non-retryable HTTP status 400")
    assert lines["c1"]["parsed"] == {
        "label": None, "justification": None, "parse_status": UNPARSEABLE
    }
    assert lines["c2"]["raw"] is None
    assert "malformed chat-completion response" in lines["c2"]["transport_error"]
    # A protocol error after a retry counts every request it took.
    assert lines["c3"]["raw"] is None
    assert "malformed chat-completion response" in lines["c3"]["transport_error"]
    assert {org: line["attempts"] for org, line in lines.items()} == {
        "c0": 1, "c1": 1, "c2": 1, "c3": 2
    }
    rescored = score_audit_log(audit_path, {f"c{i}": i % 2 for i in range(4)})
    assert [o.attempts for o in rescored.outcomes if o.org_id == "c3"] == [2]


def test_score_reads_audit_without_transport_error_as_before(tmp_path):
    # Audits written before transport_error existed: raw is re-parsed as is.
    audit_path = tmp_path / "audit.jsonl"
    audit_path.write_text(
        json.dumps({"org_id": "c0", "raw": "Prediction: Unsuccessful", "latency_ms": 2.5})
        + "\n"
        + json.dumps({"org_id": "c1", "raw": "no idea"})
        + "\n"
    )
    result = score_audit_log(audit_path, {"c0": 0, "c1": 1})
    assert [(o.response.label, o.attempts, o.latency_ms) for o in result.outcomes] == [
        (0, 0, 2.5), (None, 0, 0.0)
    ]
    assert result.parse_failures == 1
    assert result.transport_failures == 0


@pytest.mark.parametrize("crash_at", [1, 4, 7])
def test_crash_mid_eval_keeps_completed_audit_lines(tmp_path, crash_at):
    endpoint = EndpointConfig(base_url="http://mock.local", model="m", max_in_flight=1)
    kinds = ["4xx", "primary", "fallback", "unparseable", "flaky"]
    answers = [(kinds[i % len(kinds)], "Successful") for i in range(8)]
    records = make_records(8)
    healthy = scripted_transport(answers)

    def transport(url, payload, timeout_s, headers):
        if payload["messages"][-1]["content"] == f"company {crash_at}":
            raise RuntimeError("endpoint client crashed")
        return healthy(url, payload, timeout_s, headers)

    audit_path = tmp_path / "audit.jsonl"
    with pytest.raises(RuntimeError):
        run_eval(endpoint, records, transport=transport, audit_path=audit_path,
                 sleep=lambda s: None)
    org_ids = [json.loads(line)["org_id"] for line in audit_path.read_text().splitlines()]
    assert org_ids == [f"c{i}" for i in range(crash_at)]

    labels = {f"c{i}": i % 2 for i in range(8)}
    rescored = score_audit_log(audit_path, labels)
    live = run_eval(endpoint, records[:crash_at], transport=scripted_transport(answers),
                    sleep=lambda s: None)
    assert per_org(rescored) == per_org(live)
    assert rescored.report == live.report
    assert rescored.transport_failures == live.transport_failures


def test_concurrent_audit_writes_stay_whole_lines(tmp_path):
    # More workers than cores and a tiny switch interval: an audit write that
    # interleaved with another would leave a line that is not JSON.
    endpoint = EndpointConfig(base_url="http://mock.local", model="m", max_in_flight=8)
    kinds = ["primary", "fallback", "4xx", "flaky", "unparseable"]
    answers = [(kinds[i % len(kinds)], "Unsuccessful") for i in range(400)]
    audit_path = tmp_path / "audit.jsonl"
    started = time.monotonic()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        live = run_eval(endpoint, make_records(400), transport=scripted_transport(answers),
                        audit_path=audit_path, sleep=lambda s: None)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60
    lines = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert sorted(line["org_id"] for line in lines) == sorted(f"c{i}" for i in range(400))
    rescored = score_audit_log(audit_path, {f"c{i}": i % 2 for i in range(400)})
    assert per_org(rescored) == per_org(live)
    assert rescored.report == live.report
