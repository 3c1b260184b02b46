"""HTTP transport and retry loop with exponential backoff and full jitter.

The chat-completion client sends every request through one ``Sender`` and
follows one policy: retry on connection failures, timeouts, 429 and 5xx;
fail immediately on any other status.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import threading
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


def _decode(raw: bytes, headers) -> str:
    charset = headers.get_content_charset() or "utf-8"
    try:
        return raw.decode(charset, errors="replace")
    except LookupError:
        return raw.decode("utf-8", errors="replace")


class Sender:
    """POSTs JSON on one persistent HTTP/1.1 connection per thread and origin.

    ``sender(url, payload, timeout_s, headers)`` returns ``(status, text)``.
    Every HTTP status, 3xx included, comes back as a value, so
    ``run_with_retries`` decides what to retry. Connection failures,
    timeouts and malformed HTTP close the connection and raise
    RetryableFailure. A payload that cannot be encoded (NaN, say) raises
    ValueError before anything is sent and is never retried.

    A request that fails on a reused connection before its status line
    arrives was never answered: the server had closed the idle socket. It is
    sent once more on a new connection, within the same attempt.

    Proxies follow ``http_proxy``/``https_proxy``/``no_proxy``, read when
    the sender is made; TLS verifies against the system CA store.
    ``connections`` counts the connections opened; ``close()`` closes them.
    """

    def __init__(self):
        # Imported on first use: http.client, email and ssl add about 30 ms
        # to every CLI process, and only the eval stage sends requests.
        import urllib.request

        self._proxies = urllib.request.getproxies()
        self._tls = None
        self._conns = {}
        self._lock = threading.Lock()
        self.connections = 0

    def __call__(self, url, payload, timeout_s, headers=None):
        import http.client

        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        conn, target, extra = self._connection(url, timeout_s)
        headers = {"User-Agent": USER_AGENT, "Content-Type": "application/json",
                   **(headers or {}), **extra}
        reused = conn.sock is not None
        try:
            try:
                response = self._exchange(conn, target, body, headers)
            except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one
                if not reused:
                    raise
                conn.close()
                response = self._exchange(conn, target, body, headers)
            with response:
                return response.status, _decode(response.read(), response.headers)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise RetryableFailure(str(exc))

    def _exchange(self, conn, target, body, headers):
        import socket

        fresh = conn.sock is None
        conn.request("POST", target, body, headers)
        if fresh:
            with self._lock:
                self.connections += 1
        # http.client sets TCP_NODELAY. A server that writes headers and body
        # separately with Nagle on holds the body back until the headers are
        # acknowledged, and a delayed ACK makes that about 40 ms a response.
        quickack = getattr(socket, "TCP_QUICKACK", None)
        if quickack is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
        return conn.getresponse()

    def _connection(self, url, timeout_s):
        """``(connection, request target, extra headers)`` for ``url`` on
        this thread; a connection serves one thread, origin and timeout."""
        parts = urllib.parse.urlsplit(url)
        key = (threading.get_ident(), parts.scheme, parts.netloc, timeout_s)
        entry = self._conns.get(key)
        if entry is None:
            entry = self._conns[key] = self._open(parts, timeout_s)
        conn, prefix, extra = entry
        target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        return conn, prefix + target, extra

    def _open(self, parts, timeout_s):
        """A new ``(connection, target prefix, extra headers)`` for ``parts``.

        Through a proxy, plain http sends the absolute URI with the proxy's
        credentials; https tunnels with CONNECT, which carries them.
        """
        import base64
        import http.client
        import urllib.request

        host, port = parts.hostname, parts.port
        if parts.scheme == "https":
            if self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
                self._tls.set_alpn_protocols(["http/1.1"])
            kind = functools.partial(http.client.HTTPSConnection, context=self._tls)
        else:
            kind = http.client.HTTPConnection
        proxy = self._proxies.get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass(parts.netloc):
            return kind(host, port, timeout=timeout_s), "", {}
        proxy = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        auth = {}
        if proxy.username is not None:
            user_pass = ":".join(urllib.parse.unquote(part)
                                 for part in (proxy.username, proxy.password or ""))
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode()
        conn = kind(proxy.hostname, proxy.port, timeout=timeout_s)
        if parts.scheme == "https":
            conn.set_tunnel(host, port, headers=auth)
            return conn, "", {}
        return conn, f"http://{parts.netloc}", auth

    def close(self) -> None:
        for conn, _, _ in list(self._conns.values()):
            conn.close()
        self._conns.clear()


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
