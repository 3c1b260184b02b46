"""Exception types shared across the pipeline.

The CLI maps these onto exit codes: usage problems (bad flags or config,
missing inputs) exit 2, DataError exits 3, TransportError exits 4. Any
other exception is a bug and exits 1 with a traceback.
"""


class DataError(ValueError):
    """Input data violates a contract (malformed rows, empty classes, ...).
    A ValueError, so callers that catch ValueError still catch it."""


class TransportError(Exception):
    """A request that ended without a usable answer: it failed after
    exhausting retries, was non-retryable, or was answered in another format
    than the expected one. ``attempts`` is the retry loop's log, one entry per
    request sent."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = list(attempts or [])
