"""Split-scan kernel of the boosted-tree trainer (NumPy).

One scan covers a node's whole ``(features, bins)`` histogram. Prefix sums
are np.cumsum along the bins (sequential accumulation); the gain formula
runs at every bin, then inadmissible cuts are masked. Ties resolve to the
first maximum in (feature, bin) order; a NaN gain (0/0 with zero hessians
and lambda = 0) counts as a maximum, as in np.argmax. gbdt.fit's clipped
probabilities keep every row's hessian above 0.
"""

from __future__ import annotations

import numpy as np

# perfbench/tracer.py reads this name into each traced run's detail.
BACKEND = "fallback"


def scan_split(counts, grad, hess, reg_lambda, gamma, min_child_weight):
    """Best split over the row counts, gradient sums and hessian sums of
    each (feature, bin), bins in ascending threshold order.

    A cut at bin ``b`` of feature ``f`` sends bins ``0..b`` left; it needs
    rows in bin ``b`` and in both children, and ``min_child_weight`` hessian
    mass in both. Returns ``(gain, f * bins + b)``, or ``(-inf, -1)`` when
    no cut is admissible. Gain is 0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda)
    - G^2/(H+lambda)) - gamma, G and H summing all of the feature's bins.
    """
    ccum = np.cumsum(counts, axis=1)
    gl = np.cumsum(grad, axis=1)
    hl = np.cumsum(hess, axis=1)
    g_total, h_total = gl[:, -1:], hl[:, -1:]
    hr = h_total - hl
    admissible = (
        (counts > 0) & (ccum < ccum[:, -1:]) & (hl >= min_child_weight) & (hr >= min_child_weight)
    )
    if not admissible.any():
        return float("-inf"), -1
    gr = g_total - gl
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = (g_total * g_total) / (h_total + reg_lambda)
        gains = (
            0.5 * ((gl * gl) / (hl + reg_lambda) + (gr * gr) / (hr + reg_lambda) - parent)
            - gamma
        )
    gains = np.where(admissible, gains, float("-inf"))
    best = int(np.argmax(gains))
    return float(gains.flat[best]), best
