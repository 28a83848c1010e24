"""Desk-scale experiments: the limit law of the normalized coalescence time,
the slow-distribution threshold sweep, and early-phase passage statistics.

Acceptance bands used by callers are finite-n proxies for limiting claims and
are documented as such in the emitted reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import ProbabilityVector, _whole, topheavy, uniform
from .dynamics import early_threshold, late_threshold
from .simulate import SimConfig, first_passages, replicate_rng, runs

__all__ = [
    "ks_two_sample",
    "kingman_limit_samples",
    "LimitLawResult",
    "limit_law_experiment",
    "ThresholdRow",
    "threshold_experiment",
    "EarlyPhaseResult",
    "early_phase_experiment",
    "ExperimentConfig",
    "LAMBDA_RULES",
]


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
    the same state and different truncations share their common prefix.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    total = np.full(size, 2.0 / truncation)
    for k in range(2, truncation + 1):
        total += (2.0 / (k * (k - 1))) * rng.exponential(size=size)
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
    limit_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(1,))
    )
    reference = kingman_limit_samples(limit_rng, truncation, replicates)
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
    mean_tau_early: float      # mean first passage to k_star
    qs_bound: float            # 5 ln(n) / sqrt(c2)
    early_ratio: float         # mean_tau_early * c2, expected well below 1
    mean_middle: float         # mean passage gap tau(k_1) - tau(k_star)
    middle_ratio: float        # mean_middle * c2


def early_phase_experiment(
    n: int, eps: float, replicates: int, seed: int
) -> EarlyPhaseResult:
    """Passage statistics to the early and late thresholds under equal weights."""
    p = uniform(n)
    c2 = 1.0 / n
    k_star = early_threshold(c2, n, eps)
    k_1 = late_threshold(c2, n, eps)
    taus_star = np.empty(replicates)
    taus_mid = np.empty(replicates)
    if k_star >= n:
        taus_star.fill(0.0)
        if k_1 >= n:
            taus_mid.fill(0.0)
        else:
            for i in range(replicates):
                passages = first_passages(p, (k_1,), replicate_rng(seed, i))
                taus_mid[i] = passages[k_1]
    else:
        for i in range(replicates):
            passages = first_passages(p, (k_star, k_1), replicate_rng(seed, i))
            taus_star[i] = passages[k_star]
            taus_mid[i] = passages[k_1] - passages[k_star]
    mean_star = float(taus_star.mean())
    mean_mid = float(taus_mid.mean())
    return EarlyPhaseResult(
        n=n,
        eps=eps,
        k_star=k_star,
        k_1=k_1,
        mean_tau_early=mean_star,
        qs_bound=5.0 * math.log(n) / math.sqrt(c2),
        early_ratio=mean_star * c2,
        mean_middle=mean_mid,
        middle_ratio=mean_mid * c2,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description consumed by the command line."""

    kind: str                      # "limit" | "threshold" | "early_phase"
    n_values: tuple[int, ...]
    replicates: int
    seed: int
    c2_rule: str | float = "ln"    # lambda name, or a fixed collision rate
    truncation: int = 1000

    def __post_init__(self):
        rule = self.c2_rule
        if isinstance(rule, bool) or not isinstance(rule, (str, int, float)):
            raise ValueError(
                f"'lambda' must be a rule name or a collision rate, got {rule!r}"
            )
        if isinstance(rule, int):
            object.__setattr__(self, "c2_rule", float(rule))
        if self.truncation < 2:
            raise ValueError("truncation must be at least 2")
        if self.kind in ("limit",) and self.replicates < 100:
            raise ValueError("distributional experiments need at least 100 replicates")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not self.n_values:
            raise ValueError("need at least one n")
        if isinstance(self.c2_rule, str) and self.c2_rule not in LAMBDA_RULES:
            raise ValueError(
                f"unknown 'lambda' rule {self.c2_rule!r}; "
                f"choose from {', '.join(LAMBDA_RULES)}"
            )

    @classmethod
    def from_dict(cls, kind: str, payload: dict, seed: int):
        field = "n_values" if payload.get("n_values") else "n"
        ns = payload.get("n_values") or [payload.get("n")]
        if ns == [None]:
            raise ValueError(f"{kind} config needs 'n_values' or 'n'")
        return cls(
            kind=kind,
            n_values=tuple(_whole(v, field) for v in ns),
            replicates=_whole(payload.get("replicates", 1000), "replicates"),
            seed=seed,
            c2_rule=payload.get("lambda", payload.get("c2", "ln")),
            truncation=_whole(payload.get("K", 1000), "K"),
        )
