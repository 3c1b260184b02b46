"""The stdlib HTTP transport against a real loopback server."""

import base64
import http.client
import io
import json
import math
import os
import random
import re
import socket
import socketserver
import subprocess
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ventureval
from ventureval import _retry, client
from ventureval._retry import RetryableFailure, Sender, post_json, run_with_retries
from ventureval.client import EndpointConfig, chat_complete, run_eval
from ventureval.errors import TransportError
from ventureval.prompts import ChatMessage, ChatRecord

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
        if 300 <= status < 400:
            self.send_header("Location", "/moved")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    # server_close() would join every handler thread, and a handler waits in
    # readline until the client closes: a leaked connection must fail its
    # test, not hang the teardown.
    srv.block_on_close = False
    srv.script = [(200, completion_body("Prediction: Successful"))]
    srv.seen = []
    srv.release = threading.Event()
    srv.url = f"http://127.0.0.1:{srv.server_address[1]}"
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
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


def test_302_is_one_non_retryable_attempt(server):
    server.script = [(302, "moved")]
    assert post_json(server.url, {"text": "x"}, 5.0) == (302, "moved")
    server.seen.clear()
    endpoint = EndpointConfig(base_url=server.url, model="m")
    with pytest.raises(TransportError) as excinfo:
        chat_complete(endpoint, MESSAGES, sleep=lambda s: pytest.fail("must not back off"))
    assert excinfo.value.attempts == [{"attempt": 1, "status": 302}]
    assert [request["path"] for request in server.seen] == ["/chat/completions"]


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 with keep-alive. Counts the connections it opens and closes
    and records each request body; writes each answer's headers and body
    separately, with Nagle on, like ``http.server`` applications do. With
    ``server.one_per_connection`` it closes each connection after one
    answer without saying so, as a server that drops idle sockets does."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.opened += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.bodies.append(body)
        data = completion_body("Prediction: Successful").encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = self.server.one_per_connection

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveHandler)
    srv.block_on_close = False
    srv.lock = threading.Lock()
    srv.opened = srv.closed = 0
    srv.bodies = []
    srv.one_per_connection = False
    srv.url = f"http://127.0.0.1:{srv.server_address[1]}"
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def eval_records(n):
    return [ChatRecord(messages=[ChatMessage("user", f"company {i}")], org_id=f"c{i}", label=i % 2)
            for i in range(n)]


def wait_for(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_requests_from_one_worker_share_one_connection(keepalive):
    sender = Sender()
    try:
        for i in range(20):
            assert sender(keepalive.url + "/v1", {"i": i}, 5.0)[0] == 200
    finally:
        sender.close()
    assert keepalive.opened == 1
    assert sender.connections == 1
    assert keepalive.bodies == [{"i": i} for i in range(20)]


def test_server_that_drops_idle_sockets_gets_each_request_once(keepalive, tmp_path):
    keepalive.one_per_connection = True
    endpoint = EndpointConfig(base_url=keepalive.url, model="m", max_in_flight=2)
    result = run_eval(endpoint, eval_records(30), audit_path=tmp_path / "audit.jsonl",
                      sleep=lambda s: pytest.fail("must not back off"))
    texts = sorted(body["messages"][0]["content"] for body in keepalive.bodies)
    assert texts == sorted(f"company {i}" for i in range(30))
    assert [o.attempts for o in result.outcomes] == [1] * 30
    audit = [json.loads(line) for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert [entry["attempts"] for entry in audit] == [1] * 30
    assert result.connections == keepalive.opened == 30


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="TCP_QUICKACK is Linux-only")
def test_split_header_and_body_writes_do_not_stall(keepalive):
    # A delayed ACK against Nagle's algorithm costs about 40 ms an answer:
    # 8 s for 200 requests.
    sender = Sender()
    started = time.monotonic()
    try:
        for i in range(200):
            assert sender(keepalive.url, {"i": i}, 5.0)[0] == 200
    finally:
        sender.close()
    assert time.monotonic() - started < 2.0
    assert keepalive.opened == 1


def test_run_eval_closes_every_connection(keepalive, monkeypatch):
    # Senders are kept alive here, so only run_eval's own close() can end
    # their connections.
    made = []

    class KeptSender(Sender):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(client, "Sender", KeptSender)
    endpoint = EndpointConfig(base_url=keepalive.url, model="m", max_in_flight=3)
    result = run_eval(endpoint, eval_records(40), sleep=lambda s: None)
    assert result.transport_failures == 0
    assert len(made) == 1
    assert 1 <= result.connections <= 3
    assert wait_for(lambda: keepalive.closed == keepalive.opened)
    assert keepalive.opened == result.connections


class ProxyHandler(BaseHTTPRequestHandler):
    """A forward proxy that answers every request itself and records its
    request line and proxy credentials; it refuses every tunnel."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.command, self.path, self.headers["Proxy-Authorization"]))
        data = completion_body("from the proxy").encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_CONNECT(self):
        self.server.seen.append((self.command, self.path, self.headers["Proxy-Authorization"]))
        self.send_error(502)

    def log_message(self, *args):
        pass


@pytest.fixture
def proxy(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    srv = ThreadingHTTPServer(("127.0.0.1", 0), ProxyHandler)
    srv.block_on_close = False
    srv.seen = []
    srv.netloc = f"127.0.0.1:{srv.server_address[1]}"
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def test_http_proxy_gets_an_absolute_uri_and_no_proxy_bypasses_it(server, proxy, monkeypatch):
    monkeypatch.setenv("http_proxy", f"http://ann:p%40ss@{proxy.netloc}")
    url = server.url + "/v1/chat/completions?x=1"
    status, text = post_json(url, {"n": 1}, 5.0)
    assert (status, json.loads(text)["choices"][0]["message"]["content"]) == (200, "from the proxy")
    credentials = "Basic " + base64.b64encode(b"ann:p@ss").decode()
    assert proxy.seen == [("POST", url, credentials)]
    assert server.seen == []

    monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert post_json(url, {"n": 2}, 5.0)[0] == 200
    assert len(proxy.seen) == 1
    assert [request["path"] for request in server.seen] == ["/v1/chat/completions?x=1"]


def test_https_through_a_proxy_opens_a_tunnel(proxy, monkeypatch):
    monkeypatch.setenv("https_proxy", f"http://ann:secret@{proxy.netloc}")
    with pytest.raises(RetryableFailure, match="502"):
        post_json("https://127.0.0.1:8443/v1/chat/completions", {"n": 1}, 5.0)
    credentials = "Basic " + base64.b64encode(b"ann:secret").decode()
    assert proxy.seen == [("CONNECT", "127.0.0.1:8443", credentials)]


# ------------------------------------------------- the exchange on the wire


class RawHandler(socketserver.StreamRequestHandler):
    """Records each request's bytes and answers it with ``server.answer``
    verbatim; acknowledges a CONNECT and reads the tunnelled request on the
    same socket. With ``server.close`` it hangs up after one answer."""

    def handle(self):
        server = self.server
        server.connections += 1
        while True:
            lines = [self.rfile.readline()]
            while lines[-1] not in (b"\r\n", b""):
                lines.append(self.rfile.readline())
            if lines[-1] == b"":
                return
            head = b"".join(lines)
            if head.startswith(b"CONNECT "):
                server.requests.append(head)
                self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
                continue
            length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head)[1])
            server.requests.append(head + self.rfile.read(length))
            self.wfile.write(server.answer)
            if server.close:
                return


@pytest.fixture
def raw(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    srv = socketserver.ThreadingTCPServer(("127.0.0.1", 0), RawHandler)
    srv.block_on_close, srv.daemon_threads = False, True
    srv.requests, srv.connections, srv.close = [], 0, False
    srv.answer = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    srv.netloc = f"127.0.0.1:{srv.server_address[1]}"
    srv.url = "http://" + srv.netloc
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


class PlainTunnel(http.client.HTTPConnection):
    """An HTTPSConnection without TLS, so the tunnelled request can be read."""

    default_port = http.client.HTTPS_PORT

    def __init__(self, *args, context=None, **kwargs):
        super().__init__(*args, **kwargs)


def http_client_request(conn, target, body, headers, tunnel=None):
    """The bytes ``conn.request`` sends for this POST."""
    sent = []
    conn.send = sent.append
    if tunnel is not None:
        conn.set_tunnel(tunnel)
    conn.request("POST", target, body, headers)
    return b"".join(sent)


@pytest.mark.parametrize("route", ["direct", "http proxy", "https tunnel"])
def test_request_bytes_are_those_http_client_sends(raw, monkeypatch, route):
    payload = {"model": "m", "messages": [{"role": "user", "content": "café ✓"}]}
    body = json.dumps(payload).encode("utf-8")
    headers = {"User-Agent": _retry.USER_AGENT, "Content-Type": "application/json",
               "Authorization": "Bearer k"}
    host, port = raw.server_address
    if route == "direct":
        url = raw.url + "/v1/chat/completions"
        expected = http_client_request(http.client.HTTPConnection(host, port),
                                       "/v1/chat/completions", body, headers)
    elif route == "http proxy":
        monkeypatch.setenv("http_proxy", f"http://ann:p%40ss@{raw.netloc}")
        url = "http://example.test:8080/v1/chat/completions?x=1"
        credentials = "Basic " + base64.b64encode(b"ann:p@ss").decode()
        expected = http_client_request(http.client.HTTPConnection(host, port), url, body,
                                       {**headers, "Proxy-Authorization": credentials})
    else:
        monkeypatch.setenv("https_proxy", f"http://{raw.netloc}")
        url = "https://example.test/v1/chat/completions"
        expected = http_client_request(http.client.HTTPSConnection(host, port),
                                       "/v1/chat/completions", body, headers, "example.test")
        monkeypatch.setattr(http.client, "HTTPSConnection", PlainTunnel)
    assert post_json(url, payload, 5.0, {"Content-Type": "application/json",
                                         "Authorization": "Bearer k"}) == (200, "ok")
    assert raw.requests[-1] == expected
    if route == "https tunnel":
        assert raw.requests[0].startswith(b"CONNECT example.test:443 HTTP/1.0\r\n")


@pytest.mark.parametrize("path, headers", [
    ("/v1", {"Authorization": "Bearer k\r\nX-Injected: 1"}),
    ("/v1", {"Authorization": "Bearer k\nX-Injected: 1"}),
    ("/v1", {"X-Bad\r\nX-Injected": "1"}),
    ("/v1", {" Folded": "1"}),
    ("/v1", {"Bad:Name": "1"}),
    ("/v1/a b", {}),
    ("/v1/a\x01b", {}),
    ("/v1/a\x7fb", {}),
])
def test_an_unsafe_request_raises_before_anything_is_sent(raw, path, headers):
    sender = Sender()
    try:
        with pytest.raises(ValueError):
            sender(raw.url + path, {"n": 1}, 5.0, headers)
    finally:
        sender.close()
    assert sender.connections == raw.connections == 0


def test_a_key_that_would_inject_a_header_is_never_sent(raw, monkeypatch):
    monkeypatch.setenv("TRANSPORT_TEST_KEY", "k\r\nX-Injected: 1")
    endpoint = EndpointConfig(base_url=raw.url, model="m", api_key_env="TRANSPORT_TEST_KEY")
    with pytest.raises(ValueError):
        chat_complete(endpoint, MESSAGES, sleep=lambda s: pytest.fail("must not back off"))
    assert raw.connections == 0


def head_line(size):
    """A header line of ``size`` bytes, CRLF included."""
    return b"X-Long: " + b"a" * (size - 10) + b"\r\n"


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1 200 OK\r\n" + head_line(65537) + b"Content-Length: 2\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\n" + b"X-Pad: 1\r\n" * 101 + b"Content-Length: 2\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nok",
    b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\nok",
    b"SMTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
    # No answer on a new connection: not resent, so two connections in all.
    pytest.param(b"", id="no-answer"),
])
def test_a_malformed_answer_is_a_failed_attempt(raw, answer):
    raw.answer, raw.close = answer, True
    sender = Sender()
    try:
        with pytest.raises(RetryableFailure):
            sender(raw.url, {"n": 1}, 5.0)
        # The connection was closed: the next request opens another.
        raw.answer = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        assert sender(raw.url, {"n": 2}, 5.0) == (200, "ok")
    finally:
        sender.close()
    assert sender.connections == 2


@pytest.mark.parametrize("answer, connections", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", 1),
    (b"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", 1),
    (b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", 2),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", 2),
])
def test_the_connection_is_kept_unless_the_answer_ends_it(raw, answer, connections):
    raw.answer = answer
    sender = Sender()
    try:
        assert [sender(raw.url, {"n": n}, 5.0) for n in range(2)] == [(200, "ok")] * 2
    finally:
        sender.close()
    assert sender.connections == connections
    assert wait_for(lambda: raw.connections == connections)


class Unclosable(io.BytesIO):
    def close(self):
        pass


def http_client_reads(data):
    """``(status, text, keep_open, rest)`` as http.client reads ``data``,
    decoded by the Content-Type charset or UTF-8."""
    rfile = Unclosable(data)
    response = http.client.HTTPResponse(types.SimpleNamespace(makefile=lambda mode: rfile),
                                        method="POST")
    response.begin()
    raw = response.read()
    try:
        text = raw.decode(response.headers.get_content_charset() or "utf-8", errors="replace")
    except LookupError:
        text = raw.decode("utf-8", errors="replace")
    return response.status, text, not response.will_close, rfile.read()


def lean_reads(data):
    rfile = io.BytesIO(data)
    return (*_retry._read_response(rfile, rfile.readline(65537)), rfile.read())


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1 200 OK\r\n" + head_line(65536) + b"Content-Length: 2\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\n" + head_line(65537) + b"Content-Length: 2\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\n" + b"X-Pad: 1\r\n" * 98 + b"Content-Length: 2\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\n" + b"X-Pad: 1\r\n" * 99 + b"Content-Length: 2\r\n\r\nok",
])
def test_head_bounds_are_http_clients(answer):
    try:
        expected = http_client_reads(answer)
    except http.client.HTTPException:
        with pytest.raises(RetryableFailure):
            lean_reads(answer)
    else:
        assert lean_reads(answer) == expected


CHARSETS = ["utf-8", "UTF-8", "latin-1", "iso-8859-1", "ascii", "utf-16", "cp1252", "x-unknown", ""]


@st.composite
def answers(draw):
    """An answer's bytes, as a server might send them, and one more byte
    string after it that the reader must leave where it is."""
    text = st.text(alphabet="abcXYZ019 -=/", max_size=12)
    lines = [b"HTTP/1.1 100 Continue\r\n" + b"".join(
        b"X-Interim: %s\r\n" % value.encode() for value in draw(st.lists(text, max_size=2))
    ) + b"\r\n" for _ in range(draw(st.integers(0, 2)))]
    status = draw(st.sampled_from([200, 201, 204, 301, 302, 304, 307, 400, 404, 429, 500, 503]))
    reason = draw(st.sampled_from(["", " OK", " Some Reason"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    head = [f"{version} {status}{reason}"]
    charset = draw(st.sampled_from(CHARSETS))
    head += draw(st.sampled_from([
        [], ["Content-Type: application/json"],
        [f"Content-Type: application/json; charset={charset}"],
        [f'Content-Type: text/plain;Charset="{charset}"'],
        [f"Content-Type: text/plain; q=1; CHARSET = {charset}"],
    ]))
    head += [f"X-Pad-{i}: {value}" for i, value in enumerate(draw(st.lists(text, max_size=4)))]
    if draw(st.booleans()):
        head.append("Connection: close")
    body = draw(st.binary(max_size=300))
    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    if framing == "length":
        head.append(f"Content-Length: {len(body)}")
    elif framing == "chunked":
        head.append("Transfer-Encoding: chunked")
        cuts = sorted(set(draw(st.lists(st.integers(1, max(len(body) - 1, 1)), max_size=4))))
        pieces = [body[i:j] for i, j in zip([0] + cuts, cuts + [len(body)]) if body[i:j]]
        size = draw(st.sampled_from(["%x", "%X"]))
        extension = draw(st.sampled_from(["", ";name=value", "; ext"]))
        body = b"".join((size % len(piece) + extension + "\r\n").encode() + piece + b"\r\n"
                        for piece in pieces)
        trailer = "".join(f"X-Trailer-{i}: 1\r\n" for i in range(draw(st.integers(0, 2))))
        body += f"0{extension}\r\n{trailer}\r\n".encode()
    answer = b"".join(lines) + "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body
    return answer + (b"" if framing == "close" else b"NEXT")


@given(answers())
@settings(max_examples=300, deadline=None)
def test_the_response_reader_agrees_with_http_client(data):
    assert lean_reads(data) == http_client_reads(data)
