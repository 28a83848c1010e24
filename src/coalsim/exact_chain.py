"""Exact transition kernel of the ball-count chain, expected coalescence
times, hitting-time distributions, and the early/middle/late decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import ProbabilityVector

__all__ = [
    "TransitionRow",
    "TriangularKernel",
    "transition_row",
    "uniform_row_exact",
    "collision_probability_bound",
    "expected_coalescence_times",
    "coalescence_time_cdf",
    "PhaseTimes",
    "phase_decomposition",
    "write_kernel_csv",
]


@dataclass(frozen=True)
class TransitionRow:
    """Next-state distribution from k balls; probs[b] = P(next count = b)."""

    k: int
    probs: np.ndarray  # length k+1, index 0 unused (always 0)

    @property
    def mean(self) -> float:
        return float(np.arange(self.k + 1) @ self.probs)

    def tail_split(self, b: int) -> tuple[float, float]:
        """(mass strictly below b, mass strictly above b)."""
        if not 1 <= b <= self.k:
            raise ValueError(f"b={b} outside [1, k={self.k}]")
        return float(self.probs[1:b].sum()), float(self.probs[b + 1 :].sum())


# The recurrence tracks S = prod(m_g + 1) joint states over the positive
# weight groups and builds all n rows in O(n * S), where the box pass costs
# O(n * k^3) for all rows up to k.  S <= n^2 keeps the recurrence the cheaper
# route; the cap bounds its arrays to a few megabytes.
_MAX_STATES = 1 << 20


def _occupancy_groups(p: ProbabilityVector) -> list[tuple[float, int]] | None:
    """Positive (weight, multiplicity) groups of p when the occupancy
    recurrence is its cheaper route, else None."""
    groups = [(w, m) for w, m in p.grouped() if w > 0.0]
    states = math.prod(m + 1 for _, m in groups)
    return groups if states <= min(p.n * p.n, _MAX_STATES) else None


def _occupancy_rows(groups: list[tuple[float, int]], k_max: int):
    """Yield rows 1..k_max, throwing one ball at a time.

    The state is the joint law of the occupied-box counts (l_g) of the weight
    groups (w_g, m_g), one array axis per group.  A ball lands in an occupied
    box of group g with chance l_g*w_g and opens a new one with chance
    (m_g - l_g)*w_g.  Row k is the law after k balls, summed over the states
    with sum(l_g) = b.  Every term is a sum of nonnegative products, so there
    is no cancellation and no scaling.
    """
    caps = [min(m, k_max) for _, m in groups]
    dims = len(caps)
    axes = np.ix_(*(np.arange(c + 1) for c in caps))
    stay = sum(l * w for l, (w, _) in zip(axes, groups))
    opens = [
        ((m - np.arange(c)) * w).reshape([c if a == g else 1 for a in range(dims)])
        for g, ((w, m), c) in enumerate(zip(groups, caps))
    ]
    lower = [(slice(None),) * g + (slice(None, -1),) for g in range(dims)]
    upper = [(slice(None),) * g + (slice(1, None),) for g in range(dims)]
    occupied = sum(axes).ravel()
    state = np.zeros(stay.shape)
    state[(0,) * dims] = 1.0
    for k in range(1, k_max + 1):
        nxt = state * stay
        for g, rate in enumerate(opens):
            nxt[upper[g]] += state[lower[g]] * rate
        state = nxt
        if k == 1:
            yield TransitionRow(1, np.array([0.0, 1.0]))  # absorbing, exactly
        else:
            probs = np.bincount(occupied, weights=state.ravel(), minlength=k + 1)
            yield TransitionRow(k, probs[: k + 1])


def _box_rows(weights, k_max: int):
    """Yield rows 1..k_max, adding one box at a time.

    law[j, b] is the chance that j balls, thrown by the normalized weights of
    the boxes added so far, occupy b of them.  A box of weight w joining boxes
    of total weight W keeps j - i of the j balls with chance
    Binomial(j, W/(W+w)) at i, so law'[j, b] = keep[j, j] law[j, b] +
    sum_{i<j} keep[j, i] law[i, b-1]: one (k+1)x(k+1) matmul per box.  The
    binomial tables come from the Pascal recurrence, run for a block of boxes
    at once; blocks of about 2^16 floats keep it off the peak memory.  Every
    term is a nonnegative product, so there is no cancellation and no scaling.
    """
    size = k_max + 1
    w = weights[weights > 0.0]
    total = np.cumsum(w)
    old, new = np.concatenate(([0.0], total[:-1])) / total, w / total
    law = np.zeros((size, size))
    law[0, 0] = 1.0
    block = max(1, (1 << 16) // (size * size))
    for first in range(0, w.size, block):
        olds, news = old[first : first + block, None], new[first : first + block, None]
        keep = np.zeros((olds.size, size, size))  # keep[box, j, i]: i of j balls old
        keep[:, 0, 0] = 1.0
        for j in range(1, size):
            keep[:, j, : j + 1] = news * keep[:, j - 1, : j + 1]
            keep[:, j, 1 : j + 1] += olds * keep[:, j - 1, :j]
        for box in keep:
            nxt = law * np.diag(box)[:, None]
            nxt[:, 1:] += np.tril(box, -1) @ law[:, :-1]
            law = nxt
    yield TransitionRow(1, np.array([0.0, 1.0]))  # absorbing, exactly
    for k in range(2, size):
        yield TransitionRow(k, law[k, : k + 1].copy())


def _rows(p: ProbabilityVector, k_max: int):
    """Rows 1..k_max of p by its one route, which follows from p.grouped()."""
    groups = _occupancy_groups(p)
    if groups is None:
        return _box_rows(p.weights, k_max)
    return _occupancy_rows(groups, k_max)


def transition_row(p: ProbabilityVector, k: int) -> TransitionRow:
    """Exact distribution of the occupied-box count after throwing k balls.

    This is the classical occupancy law of k balls landing independently by
    p.  Vectors with few distinct weights (uniform, topheavy, three_level and
    small explicit vectors) run the ball-by-ball occupancy recurrence up to k,
    in O(k * S) for S joint occupied-count states.  Vectors whose S is too
    large, such as explicit vectors with all-distinct weights, take the
    box-by-box pass, O(n * k^3).
    """
    n = p.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, n={n}]")
    for row in _rows(p, k):
        pass
    return row


def uniform_row_exact(n: int, k: int) -> TransitionRow:
    """Uniform-weights row by surjection counting in big-integer arithmetic.

    P(next = b) = C(n,b) * b! * S(k,b) / n^k with Stirling numbers of the
    second kind; exact integer arithmetic keeps this an independent check for
    n up to a few hundred.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, n={n}]")
    if n > 300:
        raise ValueError("exact integer route is kept to n <= 300")
    # S[j][b] built row by row: S(j, b) = b S(j-1, b) + S(j-1, b-1)
    stirling = [1] + [0] * k
    for j in range(1, k + 1):
        nxt = [0] * (k + 1)
        for b in range(1, j + 1):
            nxt[b] = b * stirling[b] + stirling[b - 1]
        stirling = nxt
    denom = n**k
    probs = np.zeros(k + 1)
    for b in range(1, k + 1):
        num = math.comb(n, b) * math.factorial(b) * stirling[b]
        probs[b] = float(Fraction(num, denom))
    return TransitionRow(k, probs)


def collision_probability_bound(p: ProbabilityVector, k: int) -> float:
    """Second-order Bonferroni floor on the chance of any collision.

    choose(k,2) c2 - 3 choose(k,3) c3 - choose(k,2) choose(k-2,2) c2^2 / 2.
    Two pair events overlap in one ball in three ways per ball triple, hence
    the factor 3; disjoint pairs collide independently with chance c2^2.
    May go negative for large k, which callers must tolerate.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    m = p.moments()
    return (
        math.comb(k, 2) * m.c2
        - 3.0 * math.comb(k, 3) * m.c3
        - 0.5 * math.comb(k, 2) * math.comb(k - 2, 2) * m.c2 * m.c2
    )


class TriangularKernel:
    """Lower-triangular transition kernel of one vector; rows are cached.

    The kernel carries the row pass of transition_row's route up to n: a
    request for row k advances it from the last row built and caches every
    row it passes, so all n rows cost one pass in any request order.
    Building rows mutates the kernel, so threads must not share one while it
    is still building.
    """

    def __init__(self, p: ProbabilityVector):
        self.source = p
        self._rows: dict[int, TransitionRow] = {}
        self._pass = _rows(p, p.n)

    @property
    def n(self) -> int:
        return self.source.n

    def row(self, k: int) -> TransitionRow:
        row = self._rows.get(k)
        if row is not None:
            return row
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} outside [1, n={self.n}]")
        while len(self._rows) < k:  # rows 1..len(self._rows) are built
            row = next(self._pass)
            self._rows[row.k] = row
        return row


def _back_substitute(source: TriangularKernel | ProbabilityVector, reward: np.ndarray):
    """First-step analysis down the chain, reading rows in increasing count.

    e[m] = (reward[m] + sum_{j<m} P(m->j) e[j]) / leave(m), e[1] = 0, per reward
    column.  leave(m) = sum_{j<m} P(m->j) is summed off the row, since 1 - P(stay)
    loses it to rounding.  A kernel serves its cached rows; a vector streams
    _rows(p, n) and holds none, in O(n) memory; the rows are the same, bit for bit.
    """
    if isinstance(source, TriangularKernel):
        rows = map(source.row, range(1, source.n + 1))
    else:
        rows = _rows(source, source.n)
    next(rows)  # row 1 is absorbing: e[1] = 0
    e = np.zeros(reward.shape)
    for row in rows:
        m = row.k
        down = row.probs[1:m]
        leave = float(down.sum())
        if not leave > 0.0:
            raise ArithmeticError(f"no way down from state {m}; kernel corrupted")
        e[m] = (reward[m] + down @ e[1:m]) / leave
    return e


def expected_coalescence_times(source: TriangularKernel | ProbabilityVector) -> np.ndarray:
    """Expected rounds to reach one ball from every start count.

    Returns an array e with e[m] = expected time from m balls (e[0] unused,
    e[1] = 0), by back-substitution through the rows of a kernel, or of a
    vector, whose rows are then streamed and not kept.
    """
    return _back_substitute(source, np.ones(source.n + 1))


def coalescence_time_cdf(kernel: TriangularKernel, m: int, t_max: int) -> np.ndarray:
    """P(coalescence time <= t) for t = 0..t_max, starting from m balls.

    A dense forward pass: the law of the count after t rounds is the law
    after t - 1 rounds times the (m+1)x(m+1) matrix of rows 1..m.
    """
    if not 1 <= m <= kernel.n:
        raise ValueError(f"m={m} outside [1, n={kernel.n}]")
    matrix = np.zeros((m + 1, m + 1))
    for k in range(1, m + 1):
        matrix[k, : k + 1] = kernel.row(k).probs
    dist = np.zeros(m + 1)
    dist[m] = 1.0
    cdf = np.zeros(t_max + 1)
    cdf[0] = dist[1]
    for t in range(1, t_max + 1):
        dist = dist @ matrix
        cdf[t] = dist[1]
    return cdf


@dataclass(frozen=True)
class PhaseTimes:
    """Expected rounds attributed to the early, middle, and late state bands."""

    early: float
    middle: float
    late: float

    @property
    def total(self) -> float:
        return self.early + self.middle + self.late


def phase_decomposition(
    source: TriangularKernel | ProbabilityVector, k_star: float, k_1: float
) -> PhaseTimes:
    """Split the expected coalescence time from n balls across state bands.

    The time spent in a band is a back-substitution with the band's indicator
    as the reward per round, so the three parts add up to the expected
    coalescence time from n.  States above k_star are early, those in
    (k_1, k_star] are middle, and those in (1, k_1] are late.  A vector's rows
    are streamed, as in expected_coalescence_times.
    """
    n = source.n
    if not 1.0 <= k_1 <= k_star <= n:
        raise ValueError(f"need 1 <= k_1 <= k_star <= n, got ({k_1}, {k_star}, {n})")
    k = np.arange(n + 1)[:, None]
    bands = np.hstack((k > k_star, (k_1 < k) & (k <= k_star), k <= k_1))
    return PhaseTimes(*map(float, _back_substitute(source, bands.astype(float))[n]))


def write_kernel_csv(kernel: TriangularKernel, path) -> None:
    """Dump all rows as k,b,prob lines for external validation."""
    with open(path, "w", newline="") as fh:
        fh.write("k,b,prob\n")
        for k in range(1, kernel.n + 1):
            probs = kernel.row(k).probs
            for b in range(1, k + 1):
                fh.write(f"{k},{b},{probs[b]:.17g}\n")
