"""HTTP transport and retry loop with exponential backoff and full jitter.

The chat-completion client sends every request through it and follows
one policy: retry on connection failures, timeouts, 429 and 5xx; fail
immediately on any other 4xx.
"""

from __future__ import annotations

import json
import random
import time

from .errors import TransportError

BACKOFF_BASE_S = 1.0
BACKOFF_FACTOR = 2.0


def _is_retryable(status: int) -> bool:
    return status == 429 or status >= 500


class RetryableFailure(Exception):
    """Raised by a transport for network-level failures worth retrying."""


def _decode(raw: bytes, headers) -> str:
    charset = headers.get_content_charset() or "utf-8"
    try:
        return raw.decode(charset, errors="replace")
    except LookupError:
        return raw.decode("utf-8", errors="replace")


def post_json(url, payload, timeout_s, headers=None):
    """POST ``payload`` as JSON on a fresh connection; returns ``(status, text)``.

    Every HTTP status comes back as a value, so ``run_with_retries`` decides
    what to retry. Connection failures, timeouts and malformed HTTP raise
    RetryableFailure. A payload that cannot be encoded (NaN, say) raises
    ValueError before anything is sent and is never retried. Proxies follow
    ``http_proxy``/``https_proxy``/``no_proxy``; TLS uses the system CA store.
    """
    # Imported on first use: http.client, email and ssl add about 30 ms to
    # every CLI process, and only the eval stage sends requests.
    import http.client
    import urllib.error
    import urllib.request

    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        try:
            resp = urllib.request.urlopen(request, timeout=timeout_s)
        except urllib.error.HTTPError as exc:
            resp = exc  # a 4xx/5xx answer: the error carries status and body
        with resp:
            return resp.status, _decode(resp.read(), resp.headers)
    except (OSError, http.client.HTTPException) as exc:
        raise RetryableFailure(str(exc))


def run_with_retries(send, max_retries, sleep=time.sleep, rng=None):
    """Call ``send()`` until it yields a non-retryable outcome.

    ``send`` returns ``(status, body)``; it may raise RetryableFailure for
    connection-level problems. Makes at most ``max_retries + 1`` attempts.
    Returns ``(body, attempt_log)`` once an attempt is answered 200; raises
    TransportError with the attempt log otherwise.
    """
    attempt_log = []
    total = max_retries + 1
    for attempt in range(1, total + 1):
        try:
            status, body = send()
        except RetryableFailure as exc:
            attempt_log.append({"attempt": attempt, "error": str(exc)})
        else:
            attempt_log.append({"attempt": attempt, "status": status})
            if status == 200:
                return body, attempt_log
            if not _is_retryable(status):
                raise TransportError(
                    f"non-retryable HTTP status {status}: {body[:200]}",
                    attempts=attempt_log,
                )
        if attempt < total:
            # Made at the first backoff: seeding one costs an os.urandom call.
            rng = rng or random.Random()
            delay = BACKOFF_BASE_S * (BACKOFF_FACTOR ** (attempt - 1)) * rng.random()
            attempt_log[-1]["backoff_s"] = round(delay, 6)
            sleep(delay)
    raise TransportError(
        f"retries exhausted after {total} attempts", attempts=attempt_log
    )
