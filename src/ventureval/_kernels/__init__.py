"""Kernel backend selection.

The boosted-tree trainer spends nearly all of its time scanning sorted
gradient/hessian arrays for the best split. A Cython build of that scan is
used when available; otherwise a NumPy fallback with identical numerics
takes over.
"""

from . import fallback

try:
    from . import _split as _impl

    BACKEND = "compiled"
except ImportError:
    _impl = fallback
    BACKEND = "fallback"

scan_split = _impl.scan_split


def backend_name() -> str:
    """Name of the active kernel backend: 'compiled' or 'fallback'."""
    return BACKEND
