"""Exception types shared across the pipeline.

The CLI maps these onto exit codes: usage problems (bad flags or config,
missing inputs) exit 2, DataError exits 3, TransportError/ProtocolError
exit 4. Any other exception is a bug and exits 1 with a traceback.
"""


class DataError(ValueError):
    """Input data violates a contract (malformed rows, empty classes, ...).
    A ValueError, so callers that catch ValueError still catch it."""


class _RequestFailure(Exception):
    """A request that ended without a usable answer. ``attempts`` is the
    retry loop's log, one entry per request sent."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = list(attempts or [])


class TransportError(_RequestFailure):
    """An HTTP request failed after exhausting retries, or was non-retryable."""


class ProtocolError(_RequestFailure):
    """The remote endpoint answered, but not in the expected wire format."""
