"""Company-data evaluation pipeline.

Turns relational company tables into engineered features and labels,
compiles them into chat prompts with supervised targets, trains a native
boosted-tree baseline, and evaluates chat-completion endpoints on the
resulting prediction + justification task.
"""

__version__ = "0.1.0"

__all__ = ["backend_name", "__version__"]


def backend_name() -> str:
    """Name of the active kernel backend: 'compiled' or 'fallback'.

    The kernels load NumPy, so they are imported here rather than with the
    package: the data stages never need them."""
    from . import _kernels

    return _kernels.backend_name()
