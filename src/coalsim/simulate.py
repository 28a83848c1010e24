"""Seeded Monte Carlo engine for the coalescing allocation process:
single-round sampling, full trajectories with their first passages (from
run, the one loop over a replicate's rounds), and exact integer batch
statistics."""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import exact_chain
from .distributions import ProbabilityVector
from .dynamics import one_step_envelope

__all__ = [
    "AliasTable",
    "SimConfig",
    "RunResult",
    "RunningStats",
    "BatchSummary",
    "step",
    "run",
    "runs",
    "batch",
    "delta_audit",
    "replicate_rng",
]

# Below this many balls the chain runs as the jump chain of the exact kernel
# rows 2..63, which the box pass builds in O(n * 63^3) at worst; from it up,
# each round throws every ball.
_VECTOR_MIN = 64
# A vector whose positive weights take at most this many distinct values,
# at most one of them on more than one box, throws a round level by level;
# otherwise the alias table is cheaper.  An `integers` call costs about 4 us
# whatever its size, so a second multi-box level loses at 64 to 256 balls,
# where most rounds fall: per level, rounds of 64 balls on three_level with
# nu = 3 (boxes 3, 1, n - 4) ran 28% (n = 1e3) and 23% (n = 1e4) slower than
# alias draws, while uniform, topheavy and three_level with nu = 1 ran
# 12-37% faster (BENCH_simulate.json).  More levels were not measured.
_MAX_LEVELS = 3


class AliasTable:
    """Vose alias structure for O(1) draws from a fixed weight vector."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        n = w.size
        scaled = (w * n).tolist()
        prob = [1.0] * n
        alias = list(range(n))
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            (small if scaled[g] < 1.0 else large).append(g)
        self.n = n
        self.prob = np.array(prob)
        self.alias = np.array(alias, dtype=np.int64)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(0, self.n, size=size)
        keep = rng.random(size) < self.prob[idx]
        return np.where(keep, idx, self.alias[idx])


def _level_round(levels: list[tuple[float, int]]):
    """Round function over the (weight, multiplicity) levels of the positive
    weights: one multinomial split of the balls among the levels (none for a
    single level), then the distinct boxes hit inside each level, whose boxes
    are equally likely.  This is the law of throwing every ball by p, with no
    table to build."""
    sizes = [m for _, m in levels]
    # a rounded-up mass fails numpy's pvals <= 1 check; the last is implied
    masses = np.minimum([w * m for w, m in levels], 1.0)

    def throw(rng: np.random.Generator, b: int) -> int:
        hit = 0
        split = rng.multinomial(b, masses).tolist() if len(sizes) > 1 else [b]
        for m, c in zip(sizes, split):
            if c:
                hit += 1 if m == 1 else _distinct(rng.integers(0, m, c))
        return hit

    return throw


_round_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _round(p: ProbabilityVector):
    """The function (rng, b) -> number of distinct boxes hit by b balls
    thrown by p, picked once per vector and shared read-only: level by level
    for at most _MAX_LEVELS distinct positive weights with at most one of them
    on several boxes, else by alias draws."""
    throw = _round_cache.get(p)
    if throw is None:
        levels = [(w, m) for w, m in p.grouped() if w > 0.0]
        if len(levels) <= _MAX_LEVELS and sum(m > 1 for _, m in levels) <= 1:
            throw = _level_round(levels)
        else:
            table = AliasTable(p.weights)
            throw = lambda rng, b: _distinct(table.draw(rng, b))
        _round_cache[p] = throw
    return throw


_jump_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _jump_rows(p: ProbabilityVector) -> list:
    """Entry k of 2..min(n, 63): (log(1 - leave), first count, cumulative jump
    law from that count) at k.

    leave = P(k -> j < k), summed by exact_chain._leave.  Counts below the
    band have chance 0, so the law starts there.
    """
    rows = _jump_cache.get(p)
    if rows is None:
        rows = [None, None]
        bands = exact_chain._bands(p, min(p.n, _VECTOR_MIN - 1))
        next(bands)  # row 1 is absorbing
        for k, (lo, band, _) in enumerate(bands, start=2):
            first, down, leave = exact_chain._leave(k, lo, band)
            rate = math.log1p(-leave) if leave < 1.0 else -math.inf
            cum = np.cumsum(down)
            rows.append((rate, first, (cum / cum[-1]).tolist()))
        _jump_cache[p] = rows
    return rows


def _distinct(boxes: np.ndarray) -> int:
    """Number of distinct box indices in boxes."""
    # counting beats np.unique's sort: indices are below n and rounds are short
    return int(np.count_nonzero(np.bincount(boxes)))


def step(p: ProbabilityVector, k: int, rng: np.random.Generator) -> int:
    """Throw k balls once and return the number of distinct boxes hit."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _round(p)(rng, k)


def _jumps(p: ProbabilityVector, b: int, rng: np.random.Generator):
    """Yield (0, b), then (t, b) at each round t that lowers the count, to 1.

    From _VECTOR_MIN balls up every round throws every ball, as in step().
    Below, the count runs as the jump chain of the exact kernel: at k balls
    the holding time is Geometric(leave) and the jump follows row k without
    its self-loop, both read off one block of uniforms per replicate.
    """
    t, throw = 0, _round(p)
    yield t, b
    while b >= _VECTOR_MIN:
        t += 1
        nxt = throw(rng, b)
        if nxt < b:
            b = nxt
            yield t, b
    rows = _jump_rows(p)
    uniforms = iter(rng.random(2 * (b - 1)).tolist())  # two per jump at most
    while b > 1:
        rate, first, cum = rows[b]
        t += 1 + int(math.log1p(-next(uniforms)) / rate)
        b = bisect.bisect_right(cum, next(uniforms)) + first
        yield t, b


def replicate_rng(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one replicate.

    Streams depend only on (master_seed, replicate_index), so results are
    identical whatever the order in which replicates are run.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate_index,))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class SimConfig:
    """Declarative description of a Monte Carlo batch."""

    p: ProbabilityVector
    replicates: int = 1
    master_seed: int = 0
    b0: int | None = None  # defaults to n
    record_trajectory: bool = False
    passage_thresholds: tuple[float, ...] = ()

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        start = self.start_count
        if not 1 <= start <= self.p.n:
            raise ValueError(f"b0={start} outside [1, n={self.p.n}]")
        if any(th < 1.0 for th in self.passage_thresholds):
            raise ValueError("passage thresholds must be at least 1")

    @property
    def start_count(self) -> int:
        return self.p.n if self.b0 is None else self.b0


@dataclass(frozen=True)
class RunResult:
    """One trajectory: coalescence time, optional ball counts, first passages."""

    T: int
    trajectory: np.ndarray | None
    passages: dict[float, int]


def run(config: SimConfig, replicate_index: int) -> RunResult:
    """Simulate one replicate to absorption at a single ball; a recorded
    trajectory repeats the count through each holding segment."""
    rng = replicate_rng(config.master_seed, replicate_index)
    pending = sorted(set(config.passage_thresholds), reverse=True)
    passages: dict[float, int] = {}
    traj: list[int] = []
    for t, b in _jumps(config.p, config.start_count, rng):
        if config.record_trajectory:
            traj += traj[-1:] * (t - len(traj)) + [b]
        while pending and b <= pending[0]:
            passages[pending.pop(0)] = t
    return RunResult(
        T=t,
        trajectory=np.array(traj, dtype=np.int64) if config.record_trajectory else None,
        passages=passages,
    )


@dataclass(frozen=True)
class RunningStats:
    """Count/sum/sum-of-squares over integer samples.

    All fields are exact integers, so the statistics do not depend on the
    order in which the samples are given.
    """

    count: int = 0
    total: int = 0
    total_sq: int = 0

    @classmethod
    def from_samples(cls, xs) -> "RunningStats":
        xs = [int(x) for x in xs]
        return cls(len(xs), sum(xs), sum(x * x for x in xs))

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no samples")
        return self.total / self.count

    @property
    def variance(self) -> float | None:
        """Sample variance; None (flagged, not raised) below two samples."""
        if self.count < 2:
            return None
        num = self.count * self.total_sq - self.total * self.total
        return num / (self.count * (self.count - 1))

    @property
    def stderr(self) -> float | None:
        var = self.variance
        if var is None:
            return None
        return (max(var, 0.0) / self.count) ** 0.5

    @property
    def ci95(self) -> tuple[float, float] | None:
        se = self.stderr
        if se is None:
            return None
        m = self.mean
        return (m - 1.96 * se, m + 1.96 * se)


@dataclass(frozen=True)
class BatchSummary:
    """Statistics of a batch: coalescence times plus per-threshold passages."""

    t: RunningStats
    passages: dict[float, RunningStats] = field(default_factory=dict)

    @classmethod
    def from_runs(
        cls, results: list[RunResult], thresholds: tuple[float, ...]
    ) -> "BatchSummary":
        """Statistics of the given replicates, in any order."""
        return cls(
            RunningStats.from_samples(r.T for r in results),
            {
                th: RunningStats.from_samples(r.passages[th] for r in results)
                for th in thresholds
            },
        )


def runs(config: SimConfig) -> list[RunResult]:
    """Every replicate of the batch, in index order."""
    return [run(config, i) for i in range(config.replicates)]


def batch(config: SimConfig) -> BatchSummary:
    """Run all replicates and summarize their statistics.

    The result depends only on (config, master_seed): replicate streams are
    index-derived and the accumulators are exact integers, so replicate
    order does not change it.
    """
    return BatchSummary.from_runs(runs(config), config.passage_thresholds)


def delta_audit(result: RunResult, p: ProbabilityVector, k_star: float) -> int:
    """Count envelope violations above the early threshold.

    A violation is a step from a recorded state at or above k_star that lands
    strictly above the one-step envelope of that state.
    """
    if result.trajectory is None:
        raise ValueError("trajectory was not recorded")
    b, nxt = result.trajectory[:-1], result.trajectory[1:]
    early = b >= k_star
    return int(np.count_nonzero(nxt[early] > one_step_envelope(p, b[early])))
