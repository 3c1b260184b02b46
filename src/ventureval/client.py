"""Chat-completion endpoint evaluation: dispatch, parsing, aggregation.

Speaks the common ``POST {base_url}/chat/completions`` JSON dialect.
Transport failures retry with exponential backoff and full jitter; runs
evaluate records on a bounded set of worker threads, reassemble outcomes in
input order, and append each raw completion to an audit log as it arrives
so a run can be re-scored offline without touching the endpoint again.
Live and offline runs build their report through the same scorer.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Optional

from . import metrics
from ._retry import Sender, post_json, run_with_retries
from .config import EndpointConfig
from .errors import DataError, ProtocolError, TransportError
from .features import _FLOAT_MAX, _jsonl_lines, encode_json
from .prompts import message_dicts

PARSED = "parsed"
FALLBACK_PARSED = "fallback-parsed"
UNPARSEABLE = "unparseable"

_LABEL_SYNONYMS = {
    "successful": 1,
    "unsuccessful": 0,
    "yes": 1,
    "no": 0,
    "1": 1,
    "0": 0,
}

_PRIMARY_RE = re.compile(
    r"\bprediction\s*:\s*\W*?(unsuccessful|successful|yes|no|1|0)\b",
    re.IGNORECASE | re.DOTALL,
)
_JUSTIFICATION_RE = re.compile(r"\bjustification\s*:\s*(.*)\Z", re.IGNORECASE | re.DOTALL)
# Fallback scan only trusts the two canonical label words; yes/no/1/0 are
# too common in free text outside the prediction slot. A label word with a
# negator right before it ("not successful", "isn't successful") is a denial,
# not an answer, so it never counts.
_FALLBACK_RE = re.compile(
    r"(?P<negator>(?:\b(?:not|never|no)|n['’]t)\W*)?\b(?P<word>unsuccessful|successful)\b",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class ParsedResponse:
    label: Optional[int]
    justification: Optional[str]
    parse_status: str


@dataclass(frozen=True)
class CompletionResult:
    text: str
    attempts: int
    latency_ms: float


# What a transport or protocol failure scores as: no label, never a guess.
_NO_COMPLETION = ParsedResponse(label=None, justification=None, parse_status=UNPARSEABLE)


@dataclass(frozen=True)
class EvalOutcome:
    org_id: str
    true_label: int
    response: ParsedResponse
    latency_ms: float
    attempts: int
    transport_error: Optional[str] = None

    @property
    def correct(self) -> int:
        return 1 if self.response.label == self.true_label else 0


@dataclass
class EvalResult:
    outcomes: list
    report: metrics.ClassificationReport
    parse_failures: int
    transport_failures: int = 0
    connections: int = 0  # opened by the run's own sender; 0 for an injected transport


def chat_complete(
    endpoint: EndpointConfig,
    messages,
    transport=None,
    sleep=time.sleep,
    rng=None,
) -> CompletionResult:
    """Request one completion; returns the first choice's message content.

    Retries timeouts, connection failures, 429 and 5xx with exponential
    backoff (base 1 s, factor 2, full jitter) up to ``max_retries`` extra
    attempts; other 4xx fail immediately. A well-formed transport answer
    that is not the expected JSON shape raises ProtocolError.
    """
    endpoint.validate()
    if not messages:
        raise ValueError("messages must be non-empty")
    transport = transport or post_json
    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": endpoint.model,
        "messages": list(messages),
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_completion_tokens,
    }
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key_env:
        key = os.environ.get(endpoint.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"

    def send():
        return transport(url, payload, endpoint.timeout_s, headers)

    started = time.monotonic()
    body, attempt_log = run_with_retries(send, endpoint.max_retries, sleep=sleep, rng=rng)
    latency_ms = (time.monotonic() - started) * 1000.0
    try:
        obj = json.loads(body)
        content = obj["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed chat-completion response: {exc}", attempts=attempt_log)
    if not isinstance(content, str):
        raise ProtocolError("completion content is not a string", attempts=attempt_log)
    return CompletionResult(text=content, attempts=len(attempt_log), latency_ms=latency_ms)


def parse_response(raw: str) -> ParsedResponse:
    """Decode a completion into (label, justification).

    Primary grammar: case-insensitive ``prediction:`` immediately followed
    by a label word (successful/unsuccessful, yes/no, 1/0), then an optional
    ``justification:`` capturing the remainder. Fallback: the one standalone
    canonical label word (successful/unsuccessful) that no negator (not,
    never, no, n't) comes right before; none, or two or more, is
    unparseable. Unparseable is a value, not an error.
    """
    m = _PRIMARY_RE.search(raw)
    if m:
        label = _LABEL_SYNONYMS[m.group(1).lower()]
        jm = _JUSTIFICATION_RE.search(raw, m.end())
        justification = jm.group(1).strip() if jm else None
        if justification == "":
            justification = None
        return ParsedResponse(label=label, justification=justification, parse_status=PARSED)
    words = [fm["word"] for fm in _FALLBACK_RE.finditer(raw) if not fm["negator"]]
    if len(words) == 1:
        label = _LABEL_SYNONYMS[words[0].lower()]
        return ParsedResponse(label=label, justification=None, parse_status=FALLBACK_PARSED)
    return ParsedResponse(label=None, justification=None, parse_status=UNPARSEABLE)


def _score(outcomes: list, connections: int = 0) -> EvalResult:
    """The one scorer behind the live and the offline report. An outcome with
    no label (unparseable, or no completion) counts as the wrong label."""
    preds = [1 - o.true_label if o.response.label is None else o.response.label for o in outcomes]
    return EvalResult(
        outcomes=outcomes,
        report=metrics.report(metrics.confusion(preds, [o.true_label for o in outcomes])),
        parse_failures=sum(o.response.label is None for o in outcomes),
        transport_failures=sum(o.transport_error is not None for o in outcomes),
        connections=connections,
    )


def run_eval(
    endpoint: EndpointConfig,
    records,
    transport=None,
    audit_path=None,
    sleep=time.sleep,
    rng=None,
) -> EvalResult:
    """Evaluate every record against the endpoint.

    At most ``endpoint.max_in_flight`` requests are outstanding at once;
    outcomes come back in input order regardless of completion order.
    Per-record transport failures are counted and scored as unparseable
    (hence incorrect), never aborting the run. When ``audit_path`` is set,
    each record's JSONL line (request, raw completion or ``transport_error``,
    parse, latency, attempts) is appended and flushed as the record
    completes, so an exception or interrupt keeps every completed line.
    Audit lines are in completion order; ``score_audit_log`` joins on
    org_id, so a record without one, or with one another record holds,
    raises DataError before any request is sent, as do an empty dataset and
    a record without a true 0/1 label. ``max_in_flight`` worker threads take
    the records in turn. An unexpected error stops them, and the first one
    is raised once the records in flight are done. Without an injected
    ``transport``, each worker sends on one persistent connection
    (``_retry.Sender``), all closed when the run ends.
    """
    endpoint.validate()
    records = list(records)
    if not records:
        raise DataError("dataset is empty")
    org_ids = set()
    for number, record in enumerate(records, 1):
        if record.label not in (0, 1):
            raise DataError(f"record {record.org_id!r} has no true 0/1 label")
        if record.org_id is None:
            raise DataError(f"record {number} has no org_id")
        if str(record.org_id) in org_ids:
            raise DataError(f"org_id {record.org_id!r} appears more than once")
        org_ids.add(str(record.org_id))

    results: list = [None] * len(records)
    audit_lock = threading.Lock()
    pending, pending_lock = enumerate(records), threading.Lock()
    stop = threading.Event()  # set on an unexpected error: start no more records
    errors = []

    def one(index: int, record) -> None:
        started = time.monotonic()
        messages = message_dicts(record.messages)
        error = None
        try:
            completion = chat_complete(endpoint, messages, transport=transport, sleep=sleep, rng=rng)
            raw = completion.text
            parsed = parse_response(raw)
            attempts = completion.attempts
            latency_ms = completion.latency_ms
        except (TransportError, ProtocolError) as exc:
            parsed, raw, error = _NO_COMPLETION, None, str(exc)
            attempts = len(exc.attempts) or 1
            latency_ms = (time.monotonic() - started) * 1000.0
        outcome = results[index] = EvalOutcome(
            org_id=str(record.org_id),
            true_label=int(record.label),
            response=parsed,
            latency_ms=latency_ms,
            attempts=attempts,
            transport_error=error,
        )
        if audit is None:
            return
        line = encode_json(
            {
                "org_id": outcome.org_id,
                "request": messages,
                "raw": raw,
                "parsed": vars(parsed),  # its flat fields, without asdict's deep copy
                "latency_ms": latency_ms,
                "attempts": attempts,
                "transport_error": error,
            }
        )
        with audit_lock:
            audit.write(line + "\n")
            audit.flush()

    def work() -> None:
        try:
            while not stop.is_set():
                with pending_lock:
                    item = next(pending, None)
                if item is None:
                    return
                one(*item)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    sender = None
    if transport is None:
        transport = sender = Sender()
    audit = open(audit_path, "w", encoding="utf-8") if audit_path is not None else None
    workers = []
    try:
        for _ in range(min(endpoint.max_in_flight, len(records))):
            worker = threading.Thread(target=work)
            worker.start()
            workers.append(worker)
        for worker in workers:
            worker.join()
    finally:
        stop.set()  # e.g. Ctrl-C: let in-flight records finish and log
        for worker in workers:
            worker.join()
        if sender is not None:
            sender.close()
        if audit is not None:
            audit.close()
    if errors:
        raise errors[0]
    return _score(results, sender.connections if sender is not None else 0)


def score_audit_log(audit_path, labels_by_org) -> EvalResult:
    """Re-score a persisted audit log offline.

    ``labels_by_org`` maps org_id -> true 0/1 label (e.g. from the dataset
    JSONL the run was built from). Raw completions are re-parsed, so parser
    improvements apply retroactively; a line's ``transport_error`` is taken
    as is. A malformed or empty audit, or an org_id without a label, raises
    DataError naming the file and line.
    """
    outcomes = []
    for lineno, line in _jsonl_lines(audit_path):
        where = f"{audit_path}:{lineno}"
        try:
            entry = json.loads(line)
            org_id = entry["org_id"]
        except (ValueError, TypeError, KeyError):
            raise DataError(f"{where}: not a JSON audit object with an org_id")
        if type(org_id) is not str:
            raise DataError(f"{where}: org_id is not a string: {org_id!r}")
        if org_id not in labels_by_org:
            raise DataError(f"{where}: no label for org_id {org_id!r} in the dataset")
        error, raw = entry.get("transport_error"), entry.get("raw")
        latency_ms, attempts = entry.get("latency_ms", 0.0), entry.get("attempts", 0)
        # type(), not isinstance: a JSON true is not a count.
        if error is None and type(raw) is not str:
            raise DataError(f"{where}: no transport_error, and raw is not a string: {raw!r}")
        if error is not None and type(error) is not str:
            raise DataError(f"{where}: transport_error is not a string: {error!r}")
        if type(latency_ms) not in (int, float) or not abs(latency_ms) <= _FLOAT_MAX:
            raise DataError(f"{where}: latency_ms is not a finite number: {latency_ms!r}")
        if type(attempts) is not int or attempts < 0:
            raise DataError(f"{where}: attempts is not a count: {attempts!r}")
        outcomes.append(
            EvalOutcome(
                org_id=org_id,
                true_label=int(labels_by_org[org_id]),
                response=_NO_COMPLETION if error is not None else parse_response(raw),
                latency_ms=float(latency_ms),
                attempts=attempts,
                transport_error=error,
            )
        )
    if not outcomes:
        raise DataError(f"audit log {audit_path} is empty")
    return _score(outcomes)
