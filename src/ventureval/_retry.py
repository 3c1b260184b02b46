"""HTTP transport and retry loop with exponential backoff and full jitter.

Each eval worker sends its requests through a ``Sender`` of its own. Every
request follows one policy: retry on connection failures, timeouts, 429
and 5xx; fail immediately on any other status.
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
import time
import urllib.parse

from .errors import TransportError

BACKOFF_BASE_S = 1.0
BACKOFF_FACTOR = 2.0
# The User-Agent that urllib sent before this transport replaced it.
USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]


def _is_retryable(status: int) -> bool:
    return status == 429 or status >= 500


class RetryableFailure(Exception):
    """Raised by a transport for network-level failures worth retrying."""


# http.client's bounds on a line of an answer and on the lines of its head.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# The bound on an answer's body, which http.client does not set: a completion
# is a few kilobytes, and a claimed length is not allocated unchecked.
_MAX_BODY = 1 << 20
# The checks http.client makes before sending: a header name, a header value
# that would start a new line, and a control character in the request target.
_LEGAL_NAME = re.compile(rb"[^:\s][^:\r\n]*").fullmatch
_ILLEGAL_VALUE = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])").search
_CONTROL = re.compile("[\x00-\x20\x7f]").search
_CHARSET = re.compile(r';\s*charset\s*=\s*"?([^";\s]*)', re.IGNORECASE).search
_END_OF_HEAD = (b"\r\n", b"\n", b"")


def _field(name, value) -> bytes:
    name, value = name.encode("ascii"), str(value).encode("latin-1")
    if not _LEGAL_NAME(name) or _ILLEGAL_VALUE(value):
        raise ValueError(f"invalid header {name!r}: {value!r}")
    return b"%s: %s\r\n" % (name, value)


def _line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise RetryableFailure(f"answer line longer than {_MAX_LINE} bytes")
    return line


def _body_size(size) -> int:
    if size > _MAX_BODY:
        raise RetryableFailure(f"answer body longer than {_MAX_BODY} bytes")
    return size


def _exactly(rfile, size) -> bytes:
    data = rfile.read(max(size, 0))
    if len(data) != size:
        raise RetryableFailure(f"expected {size} body bytes, got {len(data)}")
    return data


def _read_response(rfile, line) -> tuple:
    """``(status, text, keep_open)`` of the answer whose status line is
    ``line``, read from ``rfile`` as http.client reads it, 1xx answers
    skipped. Malformed HTTP and a body longer than ``_MAX_BODY`` raise
    RetryableFailure or ValueError; a claimed length over it is refused
    before any of the body is read."""
    while True:
        version, status, *_ = line.decode("latin-1").split(None, 2) + ["", ""]
        status = int(status)
        if not (version.startswith("HTTP/1.") or version == "HTTP/0.9") or not 100 <= status <= 999:
            raise RetryableFailure(f"bad status line {line!r}")
        fields = {}  # by lower-case name; the first of a repeated one counts
        for _ in range(_MAX_HEADERS):
            line = _line(rfile)
            if line in _END_OF_HEAD:
                break
            name, _, value = line.decode("latin-1").partition(":")
            fields.setdefault(name.lower(), value.strip())
        else:
            raise RetryableFailure(f"more than {_MAX_HEADERS} head lines")
        if status >= 200:
            break
        line = _line(rfile)
    keep_open = (version not in ("HTTP/1.0", "HTTP/0.9")
                 and "close" not in fields.get("connection", "").lower())
    length = fields.get("content-length", "")
    if fields.get("transfer-encoding", "").lower() == "chunked":
        chunks, received = [], 0
        while size := int(_line(rfile).partition(b";")[0], 16):
            received = _body_size(received + size)
            chunks.append(_exactly(rfile, size))
            rfile.read(2)
        while _line(rfile) not in _END_OF_HEAD:  # the trailer
            pass
        body = b"".join(chunks)
    elif status in (204, 304):
        body = b""
    elif length.isdecimal():
        body = _exactly(rfile, _body_size(int(length)))
    else:
        body, keep_open = rfile.read(_MAX_BODY + 1), False
        _body_size(len(body))
    charset = _CHARSET(fields.get("content-type", ""))
    try:
        return status, body.decode(charset and charset[1] or "utf-8", errors="replace"), keep_open
    except LookupError:
        return status, body.decode("utf-8", errors="replace"), keep_open


class Sender:
    """POSTs JSON on one persistent HTTP/1.1 connection.

    ``sender(url, payload, timeout_s, headers)`` returns ``(status, text)``.
    Every HTTP status, 3xx included, comes back as a value, so
    ``run_with_retries`` decides what to retry. Connection failures,
    timeouts and malformed HTTP close the connection and raise
    RetryableFailure. A payload that cannot be encoded (NaN, say), an
    illegal header and a control character in the URL raise ValueError
    before anything is sent and are never retried.

    The connection serves one URL and timeout; a call with another URL or
    timeout closes it and opens one for the new pair. ``http.client`` opens
    each connection; each request then goes out in one write, as
    http.client would send it, and ``_read_response`` reads the answer.

    A request that fails on a reused connection before its status line
    arrives was never answered: the server had closed the idle socket. It is
    sent once more on a new connection, within the same attempt.

    Proxies follow ``http_proxy``/``https_proxy``/``no_proxy``, read when
    the sender is made; TLS verifies against the system CA store.
    ``connections`` counts the connections opened; ``close()`` closes the
    open one. A sender serves one thread: it is not safe to share.
    """

    def __init__(self):
        # Imported on first use: http.client, email and ssl add about 30 ms
        # to every CLI process, and only the eval stage sends requests.
        import socket
        import urllib.request

        self._proxies = urllib.request.getproxies()
        # http.client sets TCP_NODELAY. A server that writes headers and body
        # separately with Nagle on holds the body back until the headers are
        # acknowledged, and a delayed ACK makes that about 40 ms a response.
        quickack = getattr(socket, "TCP_QUICKACK", None)
        self._quickack = quickack and (socket.IPPROTO_TCP, quickack, 1)
        self._tls = None
        self._for = None  # the (url, timeout_s) the connection serves
        self._conn = self._rfile = None
        self.connections = 0

    def __call__(self, url, payload, timeout_s, headers=None):
        import http.client

        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        if (url, timeout_s) != self._for:
            self._open(url, timeout_s)
        fields = {"User-Agent": USER_AGENT, "Content-Type": "application/json",
                  **(headers or {}), **self._extra}
        request = b"".join([self._head, b"Content-Length: %d\r\n" % len(body),
                            *(_field(name, value) for name, value in fields.items()),
                            b"\r\n", body])
        reused = self._rfile is not None
        try:
            try:
                line = self._send(request)
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                self.close()
                line = self._send(request)
            status, text, keep_open = _read_response(self._rfile, line)
        except (OSError, ValueError, RetryableFailure, http.client.HTTPException) as exc:
            self.close()
            raise RetryableFailure(str(exc))
        if not keep_open:
            self.close()
        return status, text

    def _send(self, request) -> bytes:
        """Sends ``request``, connecting first if the connection is closed;
        returns the first line of the answer."""
        if self._rfile is None:
            self._conn.connect()
            self._rfile = self._conn.sock.makefile("rb")
            self.connections += 1
        sock = self._conn.sock
        sock.sendall(request)
        if self._quickack:
            sock.setsockopt(*self._quickack)
        line = _line(self._rfile)
        if not line:
            raise ConnectionResetError("the server closed the connection without answering")
        return line

    def _open(self, url, timeout_s) -> None:
        """Closes the connection and sets up an unconnected one for ``url``
        and ``timeout_s``, with its request head.

        The Host header names the endpoint as http.client would. Through a
        proxy, plain http sends the absolute URI with the proxy's
        credentials; https tunnels with CONNECT, which carries them.
        """
        import base64
        import http.client
        import urllib.request

        parts = urllib.parse.urlsplit(url)
        host, port = parts.hostname, parts.port
        target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        if parts.scheme == "https":
            if self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
                self._tls.set_alpn_protocols(["http/1.1"])
            kind = functools.partial(http.client.HTTPSConnection, context=self._tls)
        else:
            kind = http.client.HTTPConnection
        name = f"[{host}]" if ":" in host else host
        if port not in (None, 443 if parts.scheme == "https" else 80):
            name = f"{name}:{port}"
        extra = auth = {}
        proxy = self._proxies.get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass(parts.netloc):
            conn = kind(host, port, timeout=timeout_s)
        else:
            proxy = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if proxy.username is not None:
                user_pass = ":".join(urllib.parse.unquote(part)
                                     for part in (proxy.username, proxy.password or ""))
                auth = {"Proxy-Authorization": "Basic " + base64.b64encode(user_pass.encode()).decode()}
            conn = kind(proxy.hostname, proxy.port, timeout=timeout_s)
            if parts.scheme == "https":
                conn.set_tunnel(host, port, headers=auth)
            else:
                target, name, extra = f"http://{parts.netloc}{target}", parts.netloc, auth
        if _CONTROL(target):
            raise ValueError(f"control character in the request target {target!r}")
        name = name.encode("ascii") if name.isascii() else name.encode("idna")
        head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (
            target.encode("ascii"), name)
        self.close()
        self._conn, self._head, self._extra, self._for = conn, head, extra, (url, timeout_s)

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._conn is not None:
            self._conn.close()


def post_json(url, payload, timeout_s, headers=None):
    """POST ``payload`` as JSON on a connection of its own; returns
    ``(status, text)``. The one-shot form of ``Sender``."""
    sender = Sender()
    try:
        return sender(url, payload, timeout_s, headers)
    finally:
        sender.close()


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
