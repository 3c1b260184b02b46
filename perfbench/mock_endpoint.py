"""Loopback mock of an OpenAI-compatible chat-completion endpoint.

Stdlib only. Speaks HTTP/1.1 with keep-alive, so a client that reuses
connections is served on one socket and the saving shows up in
``requests_per_connection``. Every answer is a pure function of the run
seed and the request messages (``planned_answer``); the benchmark calls the
same function to build the answer key it checks the live report against.

Traffic mix, by a hash of (seed, messages):

    86%  ``Prediction: <label>`` + ``Justification: ...``   (primary grammar)
     8%  a sentence holding one label word                   (fallback grammar)
     5%  no label word at all                                (unparseable)
     1%  HTTP 400 whose error body holds a label word        (transport failure)

No answer is retryable (no 429/5xx): the CLI's backoff uses unseeded
jitter with a 1 s base, and real sleeps would swamp run-to-run spread.

Run:  python3 perfbench/mock_endpoint.py --seed 7
Prints ``PORT <n>`` once listening on 127.0.0.1; stops on SIGTERM.
``GET /stats`` returns request and connection counts and the server's
own CPU time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PARSED = "parsed"
FALLBACK = "fallback"
UNPARSEABLE = "unparseable"
HTTP_400 = "http_400"

# Cumulative thresholds on a uniform draw in [0, 1).
_MIX = ((0.01, HTTP_400), (0.06, UNPARSEABLE), (0.14, FALLBACK), (1.0, PARSED))

_WORDS = {1: "successful", 0: "unsuccessful"}
_JUSTIFICATIONS = (
    "The funding history and investor count point that way.",
    "Team size and capital raised are the deciding signals.",
    "Its age and number of funding rounds support this call.",
)


def _canonical(messages) -> bytes:
    return json.dumps(messages, ensure_ascii=False, sort_keys=True).encode("utf-8")


def planned_answer(seed: int, messages) -> tuple:
    """``(kind, label, http_status, body)`` the mock sends for ``messages``.

    ``label`` is the 0/1 label the answer's text carries; for unparseable
    answers it is None.
    """
    digest = hashlib.sha256(str(seed).encode() + b"\0" + _canonical(messages)).digest()
    draw = int.from_bytes(digest[:7], "big") / float(1 << 56)
    label = digest[7] & 1
    variant = digest[8] % len(_JUSTIFICATIONS)
    kind = next(name for limit, name in _MIX if draw < limit)
    word = _WORDS[label]
    if kind == HTTP_400:
        error = {"error": {"message": f"{word} request: rejected by the content filter",
                           "type": "invalid_request_error"}}
        return kind, label, 400, json.dumps(error)
    if kind == PARSED:
        text = f"Prediction: {word.capitalize()}\nJustification: {_JUSTIFICATIONS[variant]}"
    elif kind == FALLBACK:
        text = f"On balance this company looks {word} to me."
    else:
        text = "The profile does not give enough information to decide."
        label = None
    body = {
        "id": "chatcmpl-" + digest[:6].hex(),
        "object": "chat.completion",
        "choices": [{"index": 0, "finish_reason": "stop",
                     "message": {"role": "assistant", "content": text}}],
    }
    return kind, label, 200, json.dumps(body)


class _Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self._counted_connection = False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, json.dumps({"error": "not found"}))
            return
        counters = self.server.counters
        with counters.lock:
            stats = {"requests": counters.requests, "connections": counters.connections,
                     "cpu_s": time.process_time()}
        self._send(200, json.dumps(stats))

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length))
        counters = self.server.counters
        with counters.lock:
            counters.requests += 1
            if not self._counted_connection:
                counters.connections += 1
        self._counted_connection = True
        if not self.path.endswith("/chat/completions"):
            self._send(404, json.dumps({"error": "not found"}))
            return
        _, _, status, body = planned_answer(self.server.seed, payload["messages"])
        self._send(status, body)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.seed = args.seed
    server.counters = _Counters()

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
