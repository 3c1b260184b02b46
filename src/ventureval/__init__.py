"""Company-data evaluation pipeline.

Turns relational company tables into engineered features and labels,
compiles them into chat prompts with supervised targets, trains a native
boosted-tree baseline, and evaluates chat-completion endpoints on the
resulting prediction + justification task.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
