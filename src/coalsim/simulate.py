"""Seeded Monte Carlo engine for the coalescing allocation process: single
rounds, trajectories with their first passages, and exact batch statistics.
Replicates run as lanes on replicate_rng(seed, i)'s PCG64 streams: rounds
from 64 balls up one lane at a time, then the jump chains below in lockstep.
A lane over equal boxes takes its rounds after the first from one block of
box indices, then rewinds and redraws the values used; level and alias rounds
cannot, as their binomial, multinomial or double draws sit between the integer
draws.  Every round counts the boxes it hit with _distinct."""

from __future__ import annotations

import bisect
import math
import threading
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
# Equal boxes: a lane left with _BLOCK_ROUNDS rounds or more (by the mean
# recursion) takes them from one block of box indices; blocks from three or
# two rounds made uniform n = 200 2% or 10% slower.
_BLOCK_ROUNDS = 4
# _distinct counts b balls over m boxes with an O(b) stamp array when
# b * _SPARSE + _FLAGS < m, else by marking m flags.  The stamp costs about
# 1 us more per call in numpy overhead and a few ns more per ball; clearing
# and scanning m flags costs about 0.08 ns per box.  Measured per call
# (2-vCPU VM), the stamp won from m = 3e4 at b = 64 and up to b = m/50 at
# m = 1e5 to 3e5; the flags won at every b for m <= 2e4.
_SPARSE, _FLAGS = 32, 1 << 14
_LANE_BLOCK = 1 << 16  # jump-chain uniforms per block of lanes, as variational's blocks
_local = threading.local()  # .rng: this thread's generator, which takes each lane's state
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


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
    weights: one split of the balls among the levels (none for a single level,
    a binomial for two, else a multinomial), then the distinct boxes hit inside
    each level, whose boxes are equally likely.  This is the law of throwing
    every ball by p, with no table to build.  numpy's multinomial over two
    levels draws exactly binomial(b, first mass), which costs less."""
    sizes = [m for _, m in levels]
    # a rounded-up mass fails numpy's pvals <= 1 check; the last is implied
    masses = np.minimum([w * m for w, m in levels], 1.0)
    first, count = float(masses[0]), len(sizes)

    def throw(rng: np.random.Generator, b: int) -> int:
        if count == 2:
            c = rng.binomial(b, first)
            split = (c, b - c)
        else:
            split = rng.multinomial(b, masses).tolist() if count > 1 else (b,)
        hit = 0
        for m, c in zip(sizes, split):
            if c:
                hit += 1 if m == 1 else _distinct(rng.integers(0, m, c), m)
        return hit

    return throw


_round_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _route(p: ProbabilityVector):
    """(throw, m), picked once per vector and shared read-only: the function
    (rng, b) -> number of distinct boxes hit by b balls thrown by p, level by
    level for at most _MAX_LEVELS distinct positive weights with at most one of
    them on several boxes, else by alias draws; m when the positive weights are
    m > 1 equal boxes, else 0."""
    route = _round_cache.get(p)
    if route is None:
        levels = p.grouped()
        if len(levels) <= _MAX_LEVELS and sum(m > 1 for _, m in levels) <= 1:
            throw = _level_round(levels)
        else:
            table = AliasTable(p.weights)
            throw = lambda rng, b: _distinct(table.draw(rng, b), table.n)
        equal = levels[0][1] if len(levels) == 1 and levels[0][1] > 1 else 0
        route = _round_cache[p] = (throw, equal)
    return route


def _block_rounds(m: int, b0: int):
    """For m equal boxes and lanes from b0 balls: (rounds, least), where
    rounds(rng, b) gives the counts after each round from b balls down to the
    first below _VECTOR_MIN, for b >= least, the fewest balls from which the
    mean recursion b <- m(1 - (1 - 1/m)^b) expects _BLOCK_ROUNDS rounds.  The
    rounds take their boxes from one block of rng.integers(m, size=.), sized
    by that recursion plus 5% and grown when short, at most 4 * b0 values at a
    time; then rng is rewound and draws the values used once more.  Split
    integers calls draw what one call does, so rng ends where step() would."""
    path, drawn, x, q = [], [0.0], float(b0), math.log1p(-1.0 / m)
    while x >= _VECTOR_MIN:
        path.append(-x)  # ascending, for bisect
        drawn.append(drawn[-1] + x)  # the recursion's draws up to each count
        x = -m * math.expm1(x * q)

    def size(b: int) -> int:  # the recursion's draws from b balls plus 5%, capped
        j = min(bisect.bisect_left(path, -b) + 1, len(path))  # its counts above b, and b
        return min(int(1.05 * (b + drawn[-1] - drawn[j])), 4 * b0)

    def rounds(rng: np.random.Generator, b: int) -> list[int]:
        state, used, out = rng.bit_generator.state, 0, []
        block, pos = rng.integers(m, size=size(b)), 0
        while b >= _VECTOR_MIN:
            if pos + b > block.size:
                block, pos = np.concatenate([block[pos:], rng.integers(m, size=size(b))]), 0
            boxes = block[pos : pos + b]
            pos, used = pos + b, used + b
            b = _distinct(boxes, m)
            out.append(b)
        rng.bit_generator.state = state
        rng.integers(m, size=used)
        return out

    return rounds, (-path[-_BLOCK_ROUNDS] if len(path) >= _BLOCK_ROUNDS else math.inf)


_jump_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _jump_rows(p: ProbabilityVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rate, first, cum) at k = 2..min(n, 63) of 0..63: log(1 - leave), first
    count, and cumulative jump law from that count, padded with +inf; row 1
    (first 1, cum all +inf) keeps a finished chain at one ball.

    leave = P(k -> j < k), summed by exact_chain._leave.  Counts below the
    band have chance 0, so the law starts there.
    """
    rows = _jump_cache.get(p)
    if rows is None:
        rate = np.full(_VECTOR_MIN, -math.inf)
        first = np.ones(_VECTOR_MIN, dtype=np.int64)
        cum = np.full((_VECTOR_MIN, _VECTOR_MIN - 1), math.inf)
        bands = exact_chain._bands(p, min(p.n, _VECTOR_MIN - 1))
        next(bands)  # row 1 is absorbing
        for k, (lo, band, _) in enumerate(bands, start=2):
            first[k], down, leave = exact_chain._leave(k, lo, band)
            rate[k] = math.log1p(-leave) if leave < 1.0 else -math.inf
            total = np.cumsum(down)
            cum[k, : total.size] = total / total[-1]
        rows = _jump_cache[p] = (rate, first, cum)
    return rows


def _distinct(boxes: np.ndarray, m: int) -> int:
    """Number of distinct box indices in boxes, each in [0, m): O(b) for a
    sparse round of b balls, else by marking an array of m flags."""
    if boxes.size * _SPARSE + _FLAGS < m:
        # each box keeps the position of one ball that hit it, whichever write
        # wins, so exactly one ball per box reads back its own
        stamp, order = np.empty(m, dtype=np.intp), np.arange(boxes.size)
        stamp[boxes] = order
        return int(np.count_nonzero(stamp.take(boxes) == order))
    hit = np.zeros(m, dtype=bool)
    hit[boxes] = True
    return int(np.count_nonzero(hit))


def step(p: ProbabilityVector, k: int, rng: np.random.Generator) -> int:
    """Throw k balls once and return the number of distinct boxes hit."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _route(p)[0](rng, k)


def _holding(u: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Holding times 1 + int(math.log1p(-u) / rate) per lane.  numpy's log1p
    can differ from math.log1p by an ulp, which moves the truncation only
    where the quotient lies next to an integer: those lanes use math.log1p."""
    q = np.log1p(-u) / rate
    near = np.abs(q - np.rint(q)) < 1e-9 * q  # q = 0 is exact either way
    q[near] = [math.log1p(-x) / r for x, r in zip(u[near].tolist(), rate[near].tolist())]
    return 1 + q.astype(np.int64)


def _hash(value: np.ndarray, h: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash of uint32 value by count successive constants from
    h, one per row: xor with a constant, times the next, high half folded in."""
    c = np.array([h * pow(mult, j, 1 << 32) & _MASK32 for j in range(count + 1)], np.uint32)
    x = (value ^ c[:-1, None]) * c[1:, None]
    return x ^ x >> 16


def _seed_states(master_seed: int, indices) -> list[dict]:
    """numpy's PCG64 state when seeded by SeedSequence(entropy=master_seed,
    spawn_key=(i,)), for each i in indices, by uint32 lane arithmetic: the
    pool of SeedSequence(master_seed) is the spawned one's before its last
    entropy word, the index, is mixed in, and gives PCG64's seeding words."""
    index = np.asarray(indices)
    if index.size and not 0 <= index.min() <= index.max() <= _MASK32:
        raise ValueError("replicate indices must lie in [0, 2**32)")
    pool = np.random.SeedSequence(master_seed).pool[:, None]
    done = 16 + 4 * max(0, -(-int(master_seed).bit_length() // 32) - 4)  # hashes so far
    x = pool * _MIX_L - _hash(index.astype(np.uint32), _INIT_A * _MULT_A**done, _MULT_A, 4) * _MIX_R
    # x is SeedSequence's mix of each pool word with the index's hash: fold it, then draw
    words = _hash((x ^ x >> 16)[[0, 1, 2, 3] * 2], _INIT_B, _MULT_B, 8).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    incs = [(c << 65 | d << 1 | 1) & _MASK128 for c, d in zip(i_hi, i_lo)]
    return [
        {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
         "state": {"state": ((a << 64 | b) + inc) * _PCG_MULT + inc & _MASK128, "inc": inc}}
        for a, b, inc in zip(s_hi, s_lo, incs)
    ]


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
        if self.replicates > 1 << 32:  # lanes seed indices below 2**32
            raise ValueError("replicates must be at most 2**32")
        start = self.start_count
        if not 1 <= start <= self.p.n:
            raise ValueError(f"b0={start} outside [1, n={self.p.n}]")
        if any(not th >= 1.0 for th in self.passage_thresholds):  # NaN fails too
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


def _lanes(config: SimConfig, indices: range) -> list[RunResult]:
    """The replicates of indices, lane i on replicate_rng(seed, i)'s stream:
    each lane throws its rounds from _VECTOR_MIN balls up as step() does (an
    equal-box lane its rounds after the first by _block_rounds) and draws one
    block of uniforms, two per jump at most; then the jump chains
    run in lockstep by row k, and their Geometric(leave) holding times at k
    follow from the counts visited, all at once."""
    p, b0, lanes = config.p, config.start_count, len(indices)
    (throw, equal), (rate, first, cum) = _route(p), _jump_rows(p)
    blocks, least = _block_rounds(equal, b0) if equal and b0 >= _VECTOR_MIN else (None, math.inf)
    track = bool(config.passage_thresholds) or config.record_trajectory
    if not hasattr(_local, "rng"):
        _local.rng = np.random.Generator(np.random.PCG64(0))
    rng, jumps = _local.rng, min(b0, _VECTOR_MIN - 1) - 1
    u = np.zeros((lanes, 2 * jumps))  # a finished lane reads zeros, which row 1 ignores
    t, b = np.zeros(lanes, dtype=np.int64), np.full(lanes, b0)
    above = []  # per lane: (0, b0), then if tracked (t, b) at each change from 64 balls up
    for i, state in enumerate(_seed_states(config.master_seed, indices)):
        rng.bit_generator.state = state
        ti, bi, changes = 0, b0, [(0, b0)]
        while bi >= _VECTOR_MIN:
            for nxt in blocks(rng, bi) if ti and bi >= least else (throw(rng, bi),):
                ti += 1
                if nxt < bi:
                    bi = nxt
                    changes += [(ti, bi)] * track
        rng.random(out=u[i, : 2 * (bi - 1)])
        t[i], b[i] = ti, bi
        above.append(changes)
    ks = np.ones((lanes, jumps + 1), dtype=np.int64)  # count before each jump, then 1
    for col in range(jumps):
        if (top := b.max()) == 1:
            break
        ks[:, col] = b
        b = (cum[b, : top - 1] <= u[:, 2 * col + 1, None]).sum(1) + first[b]  # row 1 keeps 1
    hold = np.where(ks[:, :-1] > 1, _holding(u[:, 0::2], rate[ks[:, :-1]]), 0)
    if not track:
        return [RunResult(T, None, {}) for T in (t + hold.sum(1)).tolist()]
    width = max(map(len, above))  # each lane's (t, b) history, its start repeated ahead
    seq = np.array([c[:1] * (width - len(c)) + c for c in above])
    reached = np.cumsum(np.c_[t, hold], axis=1)  # when each count of ks is reached
    seq = np.concatenate([seq, np.stack([reached, ks], axis=2)], axis=1)
    ths = sorted(set(config.passage_thresholds), reverse=True)
    at = [seq[np.arange(lanes), (seq[..., 1] <= th).argmax(1), 0].tolist() for th in ths]
    return [
        RunResult(T, np.repeat(seq[i, :, 1], np.diff(seq[i, :, 0], append=T + 1))
                  if config.record_trajectory else None, {th: a[i] for th, a in zip(ths, at)})
        for i, T in enumerate(seq[:, -1, 0].tolist())
    ]


def run(config: SimConfig, replicate_index: int, *, _batch=None) -> RunResult:
    """Simulate one replicate to absorption at a single ball; a recorded
    trajectory repeats the count through each holding segment.  runs()
    passes its iterator over the batch's lanes as _batch, so each replicate
    still comes out of one run call, as a wrapper of run expects; the call
    that reaches a new block of lanes simulates the whole block."""
    if _batch is not None:
        return next(_batch)
    return _lanes(config, range(replicate_index, replicate_index + 1))[0]


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
    """Every replicate of the batch, in index order, one run call each; the
    lanes run in blocks of about _LANE_BLOCK jump-chain uniforms."""
    n = config.replicates
    size = _LANE_BLOCK // max(2 * (min(config.start_count, _VECTOR_MIN - 1) - 1), 1)
    lanes = (r for lo in range(0, n, size) for r in _lanes(config, range(lo, min(lo + size, n))))
    return [run(config, i, _batch=lanes) for i in range(n)]


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
