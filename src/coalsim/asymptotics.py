"""Desk-scale experiments: the limit law of the normalized coalescence time,
the slow-distribution threshold sweep, and the exact early-phase passage times.

Acceptance bands used by callers are finite-n proxies for limiting claims and
are documented as such in the emitted reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import ProbabilityVector, topheavy, uniform
from .dynamics import early_threshold, late_threshold
from .exact_chain import phase_decomposition
from .simulate import SimConfig, replicate_rng, runs

__all__ = [
    "ks_two_sample",
    "kingman_limit_samples",
    "LimitLawResult",
    "limit_law_experiment",
    "ThresholdRow",
    "threshold_experiment",
    "EarlyPhaseResult",
    "early_phase_experiment",
    "LAMBDA_RULES",
]


_KINGMAN_BLOCK = 1 << 14  # exponentials per block of kingman_limit_samples


def ks_two_sample(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_x - F_y|."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(cdf_x - cdf_y).max())


def kingman_limit_samples(rng, truncation: int, size: int) -> np.ndarray:
    """Draws of the truncated pairwise-merge limit sum.

    sum_{k=2..K} 2/(k(k-1)) Y_k with unit exponentials Y_k, plus the constant
    2/K that the dropped tail contributes in expectation (the tail weights
    telescope to exactly 2/K, and their variance is O(K^-3), negligible).
    Exponentials are drawn per k in increasing order, so two generators with
    the same state and different truncations share their common prefix.  They
    come in blocks of rows of k, about _KINGMAN_BLOCK values each, whose rows
    are added in order of k (a cumsum down the block adds in that order too,
    but numpy runs it as one short loop per column, twice as slow at size 5000).
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    total = np.full(size, 2.0 / truncation)
    rows = max(1, _KINGMAN_BLOCK // max(size, 1))
    for lo in range(2, truncation + 1, rows):
        k = np.arange(lo, min(lo + rows, truncation + 1))
        block = rng.exponential(size=(k.size, size))
        block *= (2.0 / (k * (k - 1)))[:, None]
        for term in block:
            total += term
    return total


def _child_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def _coalescence_samples(p: ProbabilityVector, replicates: int, master_seed: int) -> np.ndarray:
    config = SimConfig(p=p, replicates=replicates, master_seed=master_seed)
    return np.array([r.T for r in runs(config)], dtype=float)


@dataclass(frozen=True)
class LimitLawResult:
    n: int
    replicates: int
    mean_T: float
    mean_ratio: float  # mean(T) / (2n)
    ks_distance: float


def limit_law_experiment(
    n: int, replicates: int, seed: int, truncation: int = 1000
) -> LimitLawResult:
    """Compare normalized coalescence times under equal weights with the limit sum.

    Simulates T from n balls and reports mean(T)/(2n) plus the two-sample KS
    distance between the normalized times and an equal number of truncated
    limit draws.  The limit sum telescopes to mean 2, so the self-normalized
    times T/mean(T) are doubled to put both samples on the same scale.
    Deterministic given (n, replicates, seed, truncation).
    """
    ts = _coalescence_samples(uniform(n), replicates, _child_seed(seed, 0))
    mean_t = float(ts.mean())
    reference = kingman_limit_samples(replicate_rng(seed, 1), truncation, replicates)
    return LimitLawResult(
        n=n,
        replicates=replicates,
        mean_T=mean_t,
        mean_ratio=mean_t / (2.0 * n),
        ks_distance=ks_two_sample(2.0 * ts / mean_t, reference),
    )


LAMBDA_RULES: dict[str, Callable[[int], float]] = {
    "ln": math.log,
    "sqrt_ln": lambda n: math.sqrt(math.log(n)),
}


@dataclass(frozen=True)
class ThresholdRow:
    n: int
    c2: float
    scaled_mean_top: float    # mean(T) * c2 for the single-heavy-entry vector
    slow_fraction: float      # share of replicates with T >= sqrt(lambda)/(20 c2)
    scaled_mean_uniform: float  # mean(T) / n for the equal-weights control


def threshold_experiment(
    ns: Sequence[int],
    lam: str | Callable[[int], float],
    replicates: int,
    seed: int,
) -> list[ThresholdRow]:
    """Sweep n with collision rate lambda(n)/ln^2 n on the heavy family.

    Per n: the scaled mean coalescence time of the single-heavy-entry vector
    (expected to grow when lambda diverges), the fraction of slow replicates,
    and the equal-weights control whose scaled mean stays near 2.
    """
    rule = LAMBDA_RULES[lam] if isinstance(lam, str) else lam
    rows = []
    for i, n in enumerate(ns):
        if n < 2:
            raise ValueError("n must be at least 2")
        lam_n = rule(n)
        c2 = lam_n / math.log(n) ** 2
        if not 0.0 < c2 <= 1.0:
            raise ValueError(f"collision rate {c2} out of range at n={n}")
        heavy = topheavy(n, c2)
        ts = _coalescence_samples(heavy, replicates, _child_seed(seed, i, 0))
        cutoff = math.sqrt(lam_n) / (20.0 * c2)
        ctrl = _coalescence_samples(uniform(n), replicates, _child_seed(seed, i, 1))
        rows.append(
            ThresholdRow(
                n=n,
                c2=c2,
                scaled_mean_top=float(ts.mean()) * c2,
                slow_fraction=float((ts >= cutoff).mean()),
                scaled_mean_uniform=float(ctrl.mean()) / n,
            )
        )
    return rows


@dataclass(frozen=True)
class EarlyPhaseResult:
    n: int
    eps: float
    k_star: float
    k_1: float
    mean_tau_early: float      # expected first passage to k_star
    qs_bound: float            # 5 ln(n) / sqrt(c2)
    early_ratio: float         # mean_tau_early * c2, expected well below 1
    mean_middle: float         # expected passage gap tau(k_1) - tau(k_star)
    middle_ratio: float        # mean_middle * c2


def early_phase_experiment(n: int, eps: float) -> EarlyPhaseResult:
    """Exact expected passage times to the early and late thresholds under
    equal weights.  A passage is the first round at or below a threshold and
    the count never rises, so the passage to k_star and the gap to k_1 are the
    rounds spent above k_star and in (k_1, k_star]: the early and middle parts
    of phase_decomposition on the streamed vector."""
    c2 = 1.0 / n
    k_star = early_threshold(c2, n, eps)
    k_1 = late_threshold(c2, n, eps)
    phases = phase_decomposition(uniform(n), k_star, k_1)
    return EarlyPhaseResult(
        n=n,
        eps=eps,
        k_star=k_star,
        k_1=k_1,
        mean_tau_early=phases.early,
        qs_bound=5.0 * math.log(n) / math.sqrt(c2),
        early_ratio=phases.early * c2,
        mean_middle=phases.middle,
        middle_ratio=phases.middle * c2,
    )
