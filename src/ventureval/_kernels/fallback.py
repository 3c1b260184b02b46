"""NumPy implementation of the split-scan kernel.

Prefix sums are np.cumsum over every row (sequential accumulation, the same
floating-point order as the compiled loop). The gain formula then runs only
at admissible cuts (between distinct neighbouring values, both children
heavy enough), which on low-cardinality features is a small fraction of the
rows; ties resolve to the first maximum, so both backends pick bit-identical
splits.
"""

from __future__ import annotations

import numpy as np


def scan_split(values, grad, hess, reg_lambda, gamma, min_child_weight):
    """Best binary split of a node whose rows are pre-sorted by one feature.

    ``values``/``grad``/``hess`` are float64 arrays in ascending value order.
    Candidate cuts sit between distinct neighbouring values; the left child
    takes rows ``0..i`` (value <= values[i]). Returns ``(gain, cut_index)``
    with ``cut_index == -1`` when no admissible cut exists. Gain is
    0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma.
    """
    n = values.shape[0]
    if n < 2:
        return float("-inf"), -1
    gcum = np.cumsum(grad)
    hcum = np.cumsum(hess)
    g_total = gcum[-1]
    h_total = hcum[-1]

    cuts = np.flatnonzero(values[:-1] != values[1:])
    hl = hcum[cuts]
    hr = h_total - hl
    heavy = (hl >= min_child_weight) & (hr >= min_child_weight)
    cuts, hl, hr = cuts[heavy], hl[heavy], hr[heavy]
    if cuts.shape[0] == 0:
        return float("-inf"), -1

    gl = gcum[cuts]
    gr = g_total - gl
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = (g_total * g_total) / (h_total + reg_lambda)
        gains = (
            0.5 * ((gl * gl) / (hl + reg_lambda) + (gr * gr) / (hr + reg_lambda) - parent)
            - gamma
        )
    best = int(np.argmax(gains))
    return float(gains[best]), int(cuts[best])
