"""Deterministic one-step maps for the expected decline of the ball count,
the one-step envelope built from them, and the phase thresholds they induce.

expected_next_count and one_step_envelope are checked against exact kernel
rows: the first against each row's mean, the second against the mass a row
puts above it."""

from __future__ import annotations

import math

import numpy as np

from .distributions import ProbabilityVector

__all__ = [
    "empty_boxes_proxy",
    "occupancy_proxy",
    "expected_next_count",
    "one_step_envelope",
    "envelope_margin",
    "early_threshold",
    "late_threshold",
]

Ks = float | np.ndarray  # a ball count k, or an array of them


def empty_boxes_proxy(p: ProbabilityVector, k: Ks) -> Ks:
    """Sum of exp(-k * p_j): the smoothed count of boxes a k-ball round misses.

    k is a scalar (a float is returned) or an array (an array of its shape),
    and the sum runs over p.levels: one exp per (k, level)."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("k must be nonnegative")
    levels, counts = p.levels
    flat, out = k.ravel(), np.empty(k.size)
    step = max((1 << 18) // levels.size, 1)  # k per block: bounded for distinct weights
    for i in range(0, flat.size, step):
        out[i : i + step] = np.exp(-np.multiply.outer(flat[i : i + step], levels)) @ counts
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def occupancy_proxy(p: ProbabilityVector, k: Ks) -> Ks:
    """Smoothed predictor of the next ball count: n minus the empty-box proxy."""
    return p.n - empty_boxes_proxy(p, k)


def expected_next_count(p: ProbabilityVector, k: int) -> float:
    """Exact conditional mean of the next ball count given k balls now."""
    if not 1 <= k <= p.n:
        raise ValueError(f"k={k} outside [1, n={p.n}]")
    return float((1.0 - (1.0 - p.weights) ** k).sum())


def one_step_envelope(p: ProbabilityVector, k: Ks) -> Ks:
    """Midpoint of k and the occupancy proxy: the high-probability one-step cap."""
    return 0.5 * (k + occupancy_proxy(p, k))


def envelope_margin(p: ProbabilityVector, k: Ks) -> Ks:
    """Squared gap between envelope and proxy, scaled by 1/k; increasing in k."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("k must be positive")
    gap = 0.5 * (k - p.n + empty_boxes_proxy(p, k))
    with np.errstate(over="ignore"):
        margin = gap * gap / k
    # gap * gap overflows from |gap| ~ 1.3e154, where the margin is still about k / 4
    big = np.isinf(margin)
    if np.any(big):
        margin = np.where(big, gap * (gap / np.where(big, k, 1.0)), margin)[()]
    return margin


def _check_threshold_args(c2: float, n: int, eps: float) -> None:
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 1/4)")
    if not 0.0 < c2 <= 1.0:
        raise ValueError("c2 must lie in (0, 1]")
    if n < 3:
        raise ValueError("n must be at least 3")


def early_threshold(c2: float, n: int, eps: float) -> float:
    """Ball count below which the process leaves its early phase."""
    _check_threshold_args(c2, n, eps)
    return math.log(n) ** (-eps) / c2


def late_threshold(c2: float, n: int, eps: float) -> float:
    """Ball count below which the process enters its late phase."""
    _check_threshold_args(c2, n, eps)
    return math.log(n) ** (-eps / 4.0) / math.sqrt(c2)
