"""The stdlib HTTP transport against a real loopback server."""

import json
import math
import os
import random
import socket
import subprocess
import sys
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import ventureval
from ventureval import _retry
from ventureval._retry import RetryableFailure, post_json, run_with_retries
from ventureval.client import EndpointConfig, chat_complete
from ventureval.errors import TransportError

MESSAGES = [{"role": "user", "content": "hi"}]


def completion_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next (status, body) of the server's script.

    The status ``None`` stalls until the test ends instead of answering.
    Every request's path, headers and JSON body are recorded.
    """

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        server = self.server
        server.seen.append(
            {
                "path": self.path,
                "headers": dict(self.headers),
                "body": json.loads(self.rfile.read(length)),
            }
        )
        status, body = server.script.pop(0) if len(server.script) > 1 else server.script[0]
        if status is None:
            server.release.wait(5.0)
            return
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    srv.script = [(200, completion_body("Prediction: Successful"))]
    srv.seen = []
    srv.release = threading.Event()
    srv.url = f"http://127.0.0.1:{srv.server_address[1]}"
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.release.set()
    srv.shutdown()
    srv.server_close()


def closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def test_round_trip_sends_json_body_and_headers(server, monkeypatch):
    monkeypatch.setenv("TRANSPORT_TEST_KEY", "secret-token")
    endpoint = EndpointConfig(
        base_url=server.url + "/v1", model="m7", api_key_env="TRANSPORT_TEST_KEY",
        temperature=0.25, max_completion_tokens=64,
    )
    result = chat_complete(endpoint, MESSAGES, sleep=lambda s: None)
    assert result.text == "Prediction: Successful"
    assert result.attempts == 1
    (request,) = server.seen
    assert request["path"] == "/v1/chat/completions"
    assert request["body"] == {
        "model": "m7", "messages": MESSAGES, "temperature": 0.25, "max_tokens": 64,
    }
    assert request["headers"]["Content-Type"] == "application/json"
    assert request["headers"]["Authorization"] == "Bearer secret-token"


def test_body_bytes_match_json_dumps(server):
    payload = {"text": "café ✓", "n": 1.5}
    status, text = post_json(server.url, payload, 5.0)
    assert status == 200
    assert json.loads(text)["choices"][0]["message"]["content"] == "Prediction: Successful"
    assert server.seen[0]["body"] == payload
    assert server.seen[0]["headers"]["Content-Length"] == str(
        len(json.dumps(payload, allow_nan=False).encode("utf-8"))
    )


def test_400_with_label_word_fails_after_one_attempt(server):
    server.script = [(400, '{"error": "unsuccessful request"}')]
    endpoint = EndpointConfig(base_url=server.url, model="m")
    with pytest.raises(TransportError) as excinfo:
        chat_complete(endpoint, MESSAGES, sleep=lambda s: None)
    assert len(excinfo.value.attempts) == 1
    assert "400" in str(excinfo.value)
    assert "unsuccessful request" in str(excinfo.value)
    assert len(server.seen) == 1


def test_503_then_200_retries_once(server):
    server.script = [(503, "busy"), (200, completion_body("ok"))]
    sleeps = []
    endpoint = EndpointConfig(base_url=server.url, model="m")
    result = chat_complete(
        endpoint, MESSAGES, sleep=sleeps.append, rng=random.Random(0)
    )
    assert result.text == "ok"
    assert result.attempts == 2
    assert len(sleeps) == 1
    assert len(server.seen) == 2


def test_closed_port_exhausts_retries():
    sleeps = []
    endpoint = EndpointConfig(base_url=closed_port_url(), model="m", max_retries=2)
    with pytest.raises(TransportError) as excinfo:
        chat_complete(endpoint, MESSAGES, sleep=sleeps.append, rng=random.Random(0))
    assert "retries exhausted after 3 attempts" in str(excinfo.value)
    assert len(excinfo.value.attempts) == 3
    assert all("error" in entry for entry in excinfo.value.attempts)
    assert [round(s, 6) for s in sleeps] == [
        entry["backoff_s"] for entry in excinfo.value.attempts[:2]
    ]


def test_backoff_generator_is_made_at_the_first_backoff(monkeypatch):
    made = []

    def counting_random(*args):
        made.append(args)
        return random.Random(*args)

    monkeypatch.setattr(_retry, "random", types.SimpleNamespace(Random=counting_random))
    for _ in range(3):
        assert run_with_retries(lambda: (200, "ok"), 3, sleep=pytest.fail)[0] == "ok"
    assert made == []
    script = iter([(503, ""), (503, ""), (200, "ok")])
    run_with_retries(lambda: next(script), 3, sleep=lambda s: None)
    assert made == [()]

    # An injected generator is the one drawn from, as before.
    script = iter([(503, ""), (503, ""), (200, "ok")])
    sleeps = []
    run_with_retries(lambda: next(script), 3, sleep=sleeps.append, rng=random.Random(5))
    draws = random.Random(5)
    assert sleeps == [1.0 * draws.random(), 2.0 * draws.random()]
    assert len(made) == 1


@pytest.mark.parametrize("status, retried", [
    (429, True), (500, True), (503, True), (599, True), (400, False), (404, False), (499, False),
])
def test_retry_policy_by_status(status, retried):
    script = iter([(status, "busy"), (200, "ok")])
    sleeps = []
    if retried:
        body, log = run_with_retries(lambda: next(script), 1, sleep=sleeps.append,
                                     rng=random.Random(0))
        assert body == "ok"
        assert [entry["status"] for entry in log] == [status, 200]
        assert len(sleeps) == 1
    else:
        with pytest.raises(TransportError) as info:
            run_with_retries(lambda: next(script), 1, sleep=sleeps.append)
        assert info.value.attempts == [{"attempt": 1, "status": status}]
        assert sleeps == []


def test_stalled_server_times_out(server):
    server.script = [(None, "")]
    with pytest.raises(RetryableFailure):
        post_json(server.url, {"text": "x"}, 0.2)


def test_non_finite_payload_is_not_retried(server):
    sends = []

    def send():
        sends.append(1)
        return post_json(server.url, {"temperature": math.nan}, 5.0)

    with pytest.raises(ValueError):
        run_with_retries(send, 3, sleep=lambda s: pytest.fail("must not back off"))
    assert sends == [1]
    assert server.seen == []


def test_client_and_metrics_do_not_import_requests():
    src = str(Path(ventureval.__file__).resolve().parents[1])
    code = (
        "import sys; import ventureval.client, ventureval.metrics; "
        "print('requests' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"

