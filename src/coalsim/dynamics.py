"""Deterministic one-step maps for the expected decline of the ball count,
the envelopes built from them, and the phase thresholds they induce."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProbabilityVector

__all__ = [
    "DeterministicTrajectory",
    "empty_boxes_proxy",
    "occupancy_proxy",
    "expected_next_count",
    "one_step_envelope",
    "envelope_margin",
    "early_threshold",
    "late_threshold",
    "iterate_envelope",
    "topheavy_envelope",
    "harmonic_envelope_root",
    "harmonic_envelope_constant",
    "lower_step_curve",
    "lower_decay_rate",
]

Ks = float | np.ndarray  # a ball count k, or an array of them


def _weights(p: ProbabilityVector | np.ndarray) -> np.ndarray:
    w = getattr(p, "weights", None)
    return w if w is not None else np.asarray(p, dtype=float)


def empty_boxes_proxy(p: ProbabilityVector | np.ndarray, k: Ks) -> Ks:
    """Sum of exp(-k * p_j): the smoothed count of boxes a k-ball round misses.

    k is a scalar (a float is returned) or an array (an array of its shape),
    and the sum runs over the distinct weights: one exp per (k, level)."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("k must be nonnegative")
    levels, counts = np.unique(_weights(p), return_counts=True)
    flat, out = k.ravel(), np.empty(k.size)
    step = max((1 << 18) // levels.size, 1)  # k per block: bounded for distinct weights
    for i in range(0, flat.size, step):
        out[i : i + step] = np.exp(-np.multiply.outer(flat[i : i + step], levels)) @ counts
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def occupancy_proxy(p: ProbabilityVector | np.ndarray, k: Ks) -> Ks:
    """Smoothed predictor of the next ball count: n minus the empty-box proxy."""
    return _weights(p).size - empty_boxes_proxy(p, k)


def expected_next_count(p: ProbabilityVector | np.ndarray, k: int) -> float:
    """Exact conditional mean of the next ball count given k balls now."""
    w = _weights(p)
    if not 1 <= k <= w.size:
        raise ValueError(f"k={k} outside [1, n={w.size}]")
    return float((1.0 - (1.0 - w) ** k).sum())


def one_step_envelope(p: ProbabilityVector | np.ndarray, k: Ks) -> Ks:
    """Midpoint of k and the occupancy proxy: the high-probability one-step cap."""
    return 0.5 * (k + occupancy_proxy(p, k))


def envelope_margin(p: ProbabilityVector | np.ndarray, k: Ks) -> Ks:
    """Squared gap between envelope and proxy, scaled by 1/k; increasing in k."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("k must be positive")
    gap = 0.5 * (k - _weights(p).size + empty_boxes_proxy(p, k))
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


@dataclass(frozen=True)
class DeterministicTrajectory:
    """States under an iterated map, index = time."""

    values: np.ndarray
    stop_reason: str  # "reached_threshold" | "max_iterations"
    hitting_time: int | None

    def __len__(self) -> int:
        return self.values.size


def iterate_envelope(
    p: ProbabilityVector | np.ndarray, b0: float, stop_at: float, max_t: int
) -> DeterministicTrajectory:
    """Iterate the one-step envelope from b0 until it falls to stop_at.

    The envelope never increases a state in [0, n], which is asserted per
    step; exhausting max_t is flagged via stop_reason, not raised.
    """
    w = _weights(p)
    n = w.size
    if not 0.0 < stop_at <= b0 <= n:
        raise ValueError(f"need 0 < stop_at <= b0 <= n, got ({stop_at}, {b0}, {n})")
    values = [float(b0)]
    x = float(b0)
    reason = "max_iterations"
    hit: int | None = None
    if x <= stop_at:
        return DeterministicTrajectory(np.array(values), "reached_threshold", 0)
    for t in range(1, max_t + 1):
        nxt = 0.5 * (x + n - float(np.exp(-x * w).sum()))
        if nxt > x + 1e-9:
            raise ArithmeticError(f"envelope increased at step {t}: {x} -> {nxt}")
        values.append(nxt)
        x = nxt
        if x <= stop_at:
            reason, hit = "reached_threshold", t
            break
    return DeterministicTrajectory(np.array(values), reason, hit)


def topheavy_envelope(c2: float, n: int, t: int) -> float:
    """Closed-form cap n(1 - sqrt(c2)/4)^t + 2/sqrt(c2) for heavy collision rates."""
    if c2 < 2.0 / n:
        raise ValueError("closed-form cap needs c2 >= 2/n")
    return n * (1.0 - math.sqrt(c2) / 4.0) ** t + 2.0 / math.sqrt(c2)


def _harmonic_roots(t: np.ndarray) -> np.ndarray:
    """Positive roots of 1 - exp(-x) = x (1 - 2/(t+2)) for each t >= 1, by
    bisection on the bracket [1e-12, 2(t+2)/t]."""
    slope = 1.0 - 2.0 / (t + 2.0)
    lo = np.full_like(t, 1e-12)
    hi = 2.0 * (t + 2.0) / t
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        pos = 1.0 - np.exp(-mid) - slope * mid > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def harmonic_envelope_root(t: int) -> float:
    """Positive root of 1 - exp(-x) = x (1 - 2/(t+2)).

    t = 0 makes the right side vanish and the root diverge, so t >= 1 is
    required.  The root decreases in t and (t+2) times it tends to 4.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    return float(_harmonic_roots(np.array([t], dtype=float))[0])


def harmonic_envelope_constant(t_max: int = 100_000) -> float:
    """Largest value of (t+1) times the harmonic envelope root over t <= t_max.

    Any constant at least this large (and at least 1) makes A*n/(t+1) an upper
    envelope for the iterated one-step cap started at n.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    t = np.arange(1, t_max + 1, dtype=float)
    return float(((t + 1.0) * _harmonic_roots(t)).max())


def lower_step_curve(x: float) -> float:
    """1.5(1 - exp(-x)) - x/2: the one-step lower envelope scale for slow runs."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return 1.5 * (1.0 - math.exp(-x)) - 0.5 * x


def lower_decay_rate(c: float) -> float:
    """Per-step retention factor 1 - 2 sqrt(c) used with the lower envelope."""
    if not 0.0 < c < 0.25:
        raise ValueError("c must lie in (0, 1/4)")
    return 1.0 - 2.0 * math.sqrt(c)
