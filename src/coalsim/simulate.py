"""Seeded Monte Carlo engine for the coalescing allocation process:
single-round sampling, full trajectories, first passages, and exactly
mergeable batch statistics."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

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
    "first_passages",
    "delta_audit",
    "replicate_rng",
]

# below this many balls the buffered scalar path beats vectorized sampling
_VECTOR_MIN = 64
_BUFFER_START = 256   # grows by doubling; short runs stay cheap to set up
_BUFFER_MAX = 8192


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


_alias_cache: "weakref.WeakKeyDictionary[ProbabilityVector, AliasTable]" = (
    weakref.WeakKeyDictionary()
)


def alias_table(p: ProbabilityVector) -> AliasTable:
    """The alias table for p, built once per vector and shared read-only."""
    table = _alias_cache.get(p)
    if table is None:
        table = AliasTable(p.weights)
        _alias_cache[p] = table
    return table


def _distinct(boxes: np.ndarray) -> int:
    """Number of distinct box indices in boxes."""
    # counting beats np.unique's sort: indices are below n and rounds are short
    return int(np.count_nonzero(np.bincount(boxes)))


def step(p: ProbabilityVector, k: int, rng: np.random.Generator) -> int:
    """Throw k balls once and return the number of distinct boxes hit."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _distinct(alias_table(p).draw(rng, k))


class _Engine:
    """Per-replicate sampler: buffered scalar draws with a generation-stamped
    scratch array for small rounds, vectorized draws above _VECTOR_MIN."""

    __slots__ = (
        "_table", "_rng", "_n", "_plist", "_alist",
        "_scratch", "_stamp", "_ibuf", "_ubuf", "_pos", "_cap",
    )

    def __init__(self, table: AliasTable, rng: np.random.Generator):
        self._table = table
        self._rng = rng
        self._n = table.n
        self._plist = table.prob.tolist()
        self._alist = table.alias.tolist()
        self._scratch = [0] * table.n
        self._stamp = 0
        self._ibuf: list[int] = []
        self._ubuf: list[float] = []
        self._pos = 0
        self._cap = _BUFFER_START

    def step(self, k: int) -> int:
        if k >= _VECTOR_MIN:
            return _distinct(self._table.draw(self._rng, k))
        if self._pos + k > len(self._ibuf):
            self._ibuf = self._rng.integers(0, self._n, size=self._cap).tolist()
            self._ubuf = self._rng.random(self._cap).tolist()
            self._pos = 0
            self._cap = min(self._cap * 2, _BUFFER_MAX)
        stamp = self._stamp = self._stamp + 1
        scratch, plist, alist = self._scratch, self._plist, self._alist
        ibuf, ubuf, pos = self._ibuf, self._ubuf, self._pos
        hit = 0
        for _ in range(k):
            j = ibuf[pos]
            if ubuf[pos] >= plist[j]:
                j = alist[j]
            pos += 1
            if scratch[j] != stamp:
                scratch[j] = stamp
                hit += 1
        self._pos = pos
        return hit


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
    """Simulate one replicate to absorption at a single ball."""
    rng = replicate_rng(config.master_seed, replicate_index)
    engine = _Engine(alias_table(config.p), rng)
    b = config.start_count
    pending = sorted(set(config.passage_thresholds), reverse=True)
    passages: dict[float, int] = {}
    while pending and b <= pending[0]:
        passages[pending.pop(0)] = 0
    traj = [b] if config.record_trajectory else None
    t = 0
    while b > 1:
        b = engine.step(b)
        t += 1
        if traj is not None:
            traj.append(b)
        while pending and b <= pending[0]:
            passages[pending.pop(0)] = t
    return RunResult(
        T=t,
        trajectory=None if traj is None else np.array(traj, dtype=np.int64),
        passages=passages,
    )


def first_passages(
    p: ProbabilityVector,
    thresholds: tuple[float, ...],
    rng: np.random.Generator,
    b0: int | None = None,
) -> dict[float, int]:
    """First times the count falls to each threshold, stopping at the lowest.

    Cheaper than a full run when only early passages matter.
    """
    if not thresholds or any(th < 1.0 for th in thresholds):
        raise ValueError("need thresholds, all at least 1")
    engine = _Engine(alias_table(p), rng)
    b = p.n if b0 is None else b0
    pending = sorted(set(thresholds), reverse=True)
    passages: dict[float, int] = {}
    t = 0
    while pending and b <= pending[0]:
        passages[pending.pop(0)] = 0
    while pending:
        b = engine.step(b)
        t += 1
        while pending and b <= pending[0]:
            passages[pending.pop(0)] = t
    return passages


@dataclass(frozen=True)
class RunningStats:
    """Count/sum/sum-of-squares over integer samples.

    All fields are exact integers, so merging two accumulators equals
    accumulating the concatenated samples, in any order.
    """

    count: int = 0
    total: int = 0
    total_sq: int = 0

    @classmethod
    def from_samples(cls, xs) -> "RunningStats":
        xs = [int(x) for x in xs]
        return cls(len(xs), sum(xs), sum(x * x for x in xs))

    def add(self, x: int) -> "RunningStats":
        x = int(x)
        return RunningStats(self.count + 1, self.total + x, self.total_sq + x * x)

    def merge(self, other: "RunningStats") -> "RunningStats":
        return RunningStats(
            self.count + other.count,
            self.total + other.total,
            self.total_sq + other.total_sq,
        )

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
    """Merged statistics of a batch: coalescence times plus per-threshold passages."""

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

    def merge(self, other: "BatchSummary") -> "BatchSummary":
        keys = set(self.passages) | set(other.passages)
        empty = RunningStats()
        merged = {
            th: self.passages.get(th, empty).merge(other.passages.get(th, empty))
            for th in keys
        }
        return BatchSummary(self.t.merge(other.t), merged)


def runs(config: SimConfig) -> list[RunResult]:
    """Every replicate of the batch, in index order."""
    return [run(config, i) for i in range(config.replicates)]


def batch(config: SimConfig) -> BatchSummary:
    """Run all replicates and merge their statistics.

    The result depends only on (config, master_seed): replicate streams are
    index-derived and the integer accumulators merge exactly, so neither
    scheduling nor replicate order changes it.
    """
    return BatchSummary.from_runs(runs(config), config.passage_thresholds)


def delta_audit(result: RunResult, p: ProbabilityVector, k_star: float) -> int:
    """Count envelope violations above the early threshold.

    A violation is a step from a recorded state at or above k_star that lands
    strictly above the one-step envelope of that state.
    """
    if result.trajectory is None:
        raise ValueError("trajectory was not recorded")
    traj = result.trajectory
    violations = 0
    for t in range(traj.size - 1):
        b = int(traj[t])
        if b >= k_star and traj[t + 1] > one_step_envelope(p, b):
            violations += 1
    return violations
