"""Chat-completion endpoint evaluation: dispatch, parsing, aggregation.

Speaks the common ``POST {base_url}/chat/completions`` JSON dialect.
Transport failures retry with exponential backoff and full jitter; runs
evaluate records on a bounded set of worker threads, reassemble outcomes in
input order, and append each raw completion to an audit log as it arrives
so a run can be re-scored offline without touching the endpoint again.
Live and offline runs build their report through the same scorer.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import asdict, dataclass
from typing import Optional

from . import metrics
from ._retry import Sender, post_json, run_with_retries
from .config import EndpointConfig
from .errors import DataError, TransportError
from .features import check_count, check_number, check_text, decode_json, encode_json, read_jsonl
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


# What a failed request scores as: no label, never a guess.
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
    connections: int = 0  # opened by the run's own senders; 0 for an injected transport
    missing: int = 0  # dataset records with no audit line; 0 for a live run

    def summary(self) -> dict:
        """The keys ``eval-endpoint``'s and ``score``'s reports share.

        ``latency_ms`` holds p50/p95/p99 of per-record latency (inclusive-method
        quantiles); ``parse_status`` counts records by parse status; ``missing``
        counts the dataset records that were not scored.
        """
        import statistics

        latencies = [o.latency_ms for o in self.outcomes]
        if len(latencies) == 1:
            cuts = latencies * 99
        else:
            cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        statuses = [o.response.parse_status for o in self.outcomes]
        return {
            "report": asdict(self.report),
            "parse_failures": self.parse_failures,
            "transport_failures": self.transport_failures,
            "n_records": len(self.outcomes),
            "missing": self.missing,
            "attempts": sum(o.attempts for o in self.outcomes),
            "latency_ms": {f"p{q}": round(cuts[q - 1], 3) for q in (50, 95, 99)},
            "parse_status": {
                status: statuses.count(status) for status in (PARSED, FALLBACK_PARSED, UNPARSEABLE)
            },
        }


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
    that is not the expected JSON shape, or whose content fails
    ``features.check_text``, raises TransportError too, with no retry.
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
        obj = decode_json(body)
        content = obj["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed chat-completion response: {exc}", attempts=attempt_log)
    try:
        check_text("completion content", content)  # UTF-8 cannot hold a lone surrogate
    except ValueError as exc:
        raise TransportError(str(exc), attempts=attempt_log)
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


def dataset_labels(records) -> dict:
    """``org_id -> true 0/1 label`` of an eval dataset. The audit joins on
    org_id, so an empty dataset, a record without a true 0/1 label, and a
    missing or repeated org_id raise DataError."""
    labels = {}
    for number, record in enumerate(records, 1):
        if record.org_id is None:
            raise DataError(f"record {number} has no org_id")
        if record.label not in (0, 1):
            raise DataError(f"record {record.org_id!r} has no true 0/1 label")
        org_id = str(record.org_id)
        if org_id in labels:
            raise DataError(f"org_id {record.org_id!r} appears more than once")
        labels[org_id] = int(record.label)
    if not labels:
        raise DataError("dataset is empty")
    return labels


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
    Audit lines are in completion order. The records pass ``dataset_labels``
    before any request is sent. ``max_in_flight`` worker threads take the
    records in turn. An unexpected error stops them, and the first one is
    raised once the records in flight are done. Without an injected
    ``transport``, each worker sends on one persistent connection, a
    ``_retry.Sender`` of its own that it closes when it stops.
    """
    endpoint.validate()
    records = list(records)
    dataset_labels(records)

    results: list = [None] * len(records)
    audit_lock = threading.Lock()
    pending, pending_lock = enumerate(records), threading.Lock()
    stop = threading.Event()  # set on an unexpected error: start no more records
    errors, opened = [], []  # opened: each worker sender's connection count

    def one(index: int, record, send) -> None:
        started = time.monotonic()
        messages = message_dicts(record.messages)
        error = None
        try:
            completion = chat_complete(endpoint, messages, transport=send, sleep=sleep, rng=rng)
            raw = completion.text
            parsed = parse_response(raw)
            attempts = completion.attempts
            latency_ms = completion.latency_ms
        except TransportError as exc:
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
        send = Sender() if transport is None else transport
        try:
            while not stop.is_set():
                with pending_lock:
                    item = next(pending, None)
                if item is None:
                    return
                one(*item, send)
        except BaseException as exc:
            errors.append(exc)
            stop.set()
        finally:
            if transport is None:
                send.close()
                opened.append(send.connections)

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
        if audit is not None:
            audit.close()
    if errors:
        raise errors[0]
    return _score(results, sum(opened))


def score_audit_log(audit_path, labels_by_org) -> EvalResult:
    """Re-score a persisted audit log offline.

    ``labels_by_org`` maps org_id -> true 0/1 label (``dataset_labels``).
    Raw completions are re-parsed, so parser improvements apply
    retroactively; a line's ``transport_error`` is taken as is. A malformed
    or empty audit, or an org_id without a label or seen on an earlier line,
    raises DataError naming the file and line (``features.read_jsonl``).
    A partial audit scores the lines it has; ``missing`` counts the dataset
    records it lacks. A last line without its newline that is not JSON was
    cut mid-write by a killed run: it is not scored, so it counts as missing.
    """
    seen = set()

    def outcome(entry: dict) -> EvalOutcome:
        org_id = entry["org_id"]
        check_text("org_id", org_id)
        if org_id not in labels_by_org:
            raise ValueError(f"no label for org_id {org_id!r} in the dataset")
        if org_id in seen:
            raise ValueError(f"org_id {org_id!r} appears more than once")
        seen.add(org_id)
        error, raw = entry.get("transport_error"), entry.get("raw")
        latency_ms, attempts = entry.get("latency_ms", 0.0), entry.get("attempts", 0)
        if error is None:
            check_text("raw", raw)
        else:
            check_text("transport_error", error)
        check_number("latency_ms", latency_ms)
        check_count("attempts", attempts)
        return EvalOutcome(
            org_id=org_id,
            true_label=int(labels_by_org[org_id]),
            response=_NO_COMPLETION if error is not None else parse_response(raw),
            latency_ms=float(latency_ms),
            attempts=attempts,
            transport_error=error,
        )

    outcomes = read_jsonl(audit_path, outcome, torn_tail=True)
    if not outcomes:
        raise DataError(f"audit log {audit_path} is empty")
    result = _score(outcomes)
    # Exact: every org_id above is in the dataset and seen once.
    result.missing = len(labels_by_org) - len(outcomes)
    return result
