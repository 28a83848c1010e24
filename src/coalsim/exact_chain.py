"""Exact transition kernel of the ball-count chain, expected coalescence
times, hitting-time distributions, and the early/middle/late decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._tables import write_triangle
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
    """Next-state distribution from k balls; probs[b] = P(next count = b).

    probs is zero outside probs[lo:hi] (hi None: to the end).  dropped is the
    mass the banded pass has left out up to this row, which bounds how far the
    row falls short of the exact one in total.
    """

    k: int
    probs: np.ndarray  # length k+1, index 0 unused (always 0)
    lo: int = 0
    hi: int | None = None
    dropped: float = 0.0

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
# route.  Its arrays hold (side states) x (counts 0..sum m_g) cells, the side
# states being the joint counts of every group but the largest; _MAX_CELLS
# bounds each array at 32 MB.  Rows past _BOX_K_MAX, which the box pass does
# not build, also take the recurrence for a vector of at most _MAX_STATES
# joint states, at up to 21 * 2^19 cells (twenty single boxes): below it, the
# box pass is at least 10x faster on such vectors.
_MAX_CELLS = 1 << 22
_MAX_STATES = 1 << 20
_BOX_K_MAX = 2000
# Slices of the joint state lighter than this are dropped at the ends of its
# window; at n = 1e5 the dropped mass stays near 1e-15.
_TRIM = 1e-20


def _occupancy_groups(
    p: ProbabilityVector, k_max: int | None = None
) -> list[tuple[float, int]] | None:
    """Positive (weight, multiplicity) groups of p when the occupancy
    recurrence is the cheaper route to rows 1..k_max (None: all n), else None."""
    groups = p.grouped()
    states = math.prod(m + 1 for _, m in groups)
    cells = states // (max(m for _, m in groups) + 1) * (sum(m for _, m in groups) + 1)
    past_box = (p.n if k_max is None else k_max) > _BOX_K_MAX
    held = cells <= _MAX_CELLS or (past_box and states <= _MAX_STATES)
    return groups if states <= p.n * p.n and held else None


def _occupancy_bands(groups: list[tuple[float, int]], k_max: int):
    """Yield (lo, band, dropped) for rows 1..k_max, throwing one ball at a time.

    The state is the joint law of the occupied-box counts (l_g) of the weight
    groups (w_g, m_g).  A ball lands in an occupied box of group g with chance
    l_g*w_g and opens a new one with chance (m_g - l_g)*w_g.  Row k is the law
    after k balls, summed over the states with sum(l_g) = b.  Every term is a
    sum of nonnegative products, so there is no cancellation and no scaling.

    The array holds state[s, b]: s indexes the counts of every group but the
    largest (the side groups, C order) and b = sum(l_g), so a row is the sum
    over s.  b is kept on a window, which grows by one count with each ball.
    After each ball the leading side states and the leading and trailing counts
    lighter than _TRIM are dropped and their mass is added to dropped: finite
    state projection, where the kept mass never exceeds the exact one and falls
    short of it by dropped in total.  Leading side states and counts never come
    back, and a dropped top count is fed again from the one below it.
    """
    caps = [min(m, k_max) for _, m in groups]
    main = caps.index(max(caps))
    sizes = [c + 1 for g, c in enumerate(caps) if g != main]
    states = math.prod(sizes)
    side = np.indices(sizes).reshape(len(sizes), states)
    counts = side.sum(axis=0)
    top = min(k_max, sum(caps))  # the largest count
    # l_g of every state: a side group's by s, the largest group's by (s, b)
    mains = np.clip(np.arange(top + 1) - counts[:, None], 0, caps[main])
    levels = [*side[:main], mains, *side[main:]]
    stay = sum(l.reshape(states, -1) * w for l, (w, _) in zip(levels, groups))
    shifts = []  # (side states down, rate): a ball opens a box of group g
    for g, ((w, m), l, c) in enumerate(zip(groups, levels, caps)):
        if g == main:
            shifts.append((0, (m - l) * w))
        else:
            stride = math.prod(sizes[g - (g > main) + 1 :])  # of side axis g - (g > main)
            shifts.append((stride, np.where(l < c, (m - l) * w, 0.0)[:, None]))
    # The leading side state has no inflow, as every side group's count only
    # grows, so its mass shrinks by the factor kept[s] with each ball; it is
    # summed only when that bound, lead, falls below _TRIM.
    kept = 1.0 - sum((rate[:, 0] for down, rate in shifts if down), np.zeros(states))

    def window(first: int):
        """stay and the shifts over side states first..; one state is 1-D."""
        pick = first if first == states - 1 else slice(first, None)
        moves = [
            (0, rate[pick]) if down == 0 else (down, rate[first : states - down])
            for down, rate in shifts
            if down < states - first
        ]
        return stay[pick], moves

    first_s = first_b = 0
    stay_s, shifts_s = window(0)
    state = np.zeros(stay_s.shape[:-1] + (1,))
    state.flat[0] = 1.0
    dropped, lead = 0.0, 1.0
    for k in range(1, k_max + 1):
        width = state.shape[-1]
        moves = min(width, top - first_b)  # counts with one above them in the window
        nxt = np.zeros(state.shape[:-1] + (moves + 1,))
        np.multiply(state, stay_s[..., first_b : first_b + width], out=nxt[..., :width])
        for down, rate in shifts_s:
            if down == 0:
                nxt[..., 1:] += state[..., :moves] * rate[..., first_b : first_b + moves]
            else:
                nxt[down:, 1:] += state[:-down, :moves] * rate
        lead *= kept[first_s]
        while lead < _TRIM and first_s < states - 1:
            lead = float(np.add.reduce(nxt[0]))
            if lead >= _TRIM:
                break
            dropped += lead
            first_s += 1
            nxt = nxt[1:] if first_s < states - 1 else nxt[1]
            stay_s, shifts_s = window(first_s)
            lead = float(np.add.reduce(nxt[0])) if nxt.ndim == 2 else 1.0
        band = nxt if nxt.ndim == 1 else np.add.reduce(nxt)
        lo, hi = 0, band.size
        while lo < hi - 1 and band[lo] < _TRIM:
            dropped += float(band[lo])
            lo += 1
        while hi > lo + 1 and band[hi - 1] < _TRIM:
            hi -= 1
            dropped += float(band[hi])
        state, first_b = nxt[..., lo:hi], first_b + lo
        if k == 1:
            yield 1, np.array([1.0]), dropped  # absorbing, exactly
        else:
            yield first_b, band[lo:hi], dropped


def _box_rows(weights, k_max: int):
    """Yield rows 1..k_max from the product of the boxes' occupancy factors.

    With p = w/W, sum_b P(b boxes hit by j balls) y^b = j! [t^j] prod_boxes
    (1 + y(e^{p t} - 1)) (Feller Vol. I; Flajolet & Sedgewick ch. VIII).
    law[b, j] holds [y^b t^j] of the product times lam^j, so a box adds
    law[b-1] @ U to law[b], with U[i, j] = (lam p)^{j-i}/(j-i)! for j > i: one
    matmul per box of nonnegative terms, without cancellation.  The U of a
    block of about 2^16 floats come from one cumprod and one gather.  Column
    j's mass is lam^j/j!: lam = (k_max+1)/e keeps it within
    [~1/sqrt(k), e^lam], and lam = 700 from k_max = 1902 on keeps e^lam
    finite and column k_max's mass above 1e-46 up to k_max = _BOX_K_MAX =
    2000, the largest taken.
    """
    size = k_max + 1
    if k_max > _BOX_K_MAX:
        raise ValueError(f"the box pass builds rows up to k = {_BOX_K_MAX}, not {k_max}")
    lam = min(size / math.e, 700.0)
    x = lam / weights.sum() * weights[weights > 0.0]
    law = np.zeros((size, size))
    law[0, 0] = 1.0
    gap = np.arange(size) - np.arange(size)[:, None] + k_max  # gap[i, j] = k_max + j - i
    block = max(1, (1 << 16) // (size * size))
    for xs in np.split(x[:, None], range(block, x.size, block)):
        powers = np.zeros((xs.size, 2 * size - 1))  # powers[:, k_max + a] = xs^a/a!, a >= 1
        powers[:, size:] = np.cumprod(xs / np.arange(1, size), axis=1)
        for box in powers[:, gap]:  # box[i, j] = (lam p)^{j-i}/(j-i)!, 0 unless j > i
            law[1:] += law[:-1] @ box
    law *= np.cumprod(np.r_[1.0, np.arange(1, size) / lam])  # times j!/lam^j
    yield TransitionRow(1, np.array([0.0, 1.0]))  # absorbing, exactly
    for k in range(2, size):
        yield TransitionRow(k, law[: k + 1, k].copy())


def _bands(p: ProbabilityVector, k_max: int):
    """(lo, band, dropped) of rows 1..k_max of p by its one route, which
    follows from p.grouped(); box rows are whole, at lo = 0."""
    groups = _occupancy_groups(p, k_max)
    if groups is None:
        return ((0, row.probs, 0.0) for row in _box_rows(p.weights, k_max))
    return _occupancy_bands(groups, k_max)


def _row(k: int, lo: int, band: np.ndarray, dropped: float) -> TransitionRow:
    probs = np.zeros(k + 1)
    probs[lo : lo + band.size] = band
    return TransitionRow(k, probs, lo, lo + band.size, dropped)


def transition_row(p: ProbabilityVector, k: int) -> TransitionRow:
    """Exact distribution of the occupied-box count after throwing k balls.

    Vectors with few distinct weights (uniform, topheavy, three_level, small
    explicit ones) run the ball-by-ball occupancy recurrence over S joint
    occupied-count states, dropping states lighter than 1e-20 at the ends of
    its window: the row is zero outside probs[lo:hi] and dropped bounds the
    mass left out.  Others, such as all-distinct weights, multiply the boxes'
    occupancy generating functions, O(n * k^3), and drop nothing.
    """
    n = p.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, n={n}]")
    for band in _bands(p, k):
        pass
    return _row(k, *band)


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
    """Lower-triangular transition kernel of one vector: it holds the (lo,
    band, dropped) of rows 1..n from one pass of transition_row's route, built
    when it is made, and row(k) builds a fresh dense TransitionRow of band k."""

    def __init__(self, p: ProbabilityVector):
        self.source = p
        self._bands = list(_bands(p, p.n))

    @property
    def n(self) -> int:
        return self.source.n

    def row(self, k: int) -> TransitionRow:
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} outside [1, n={self.n}]")
        return _row(k, *self._bands[k - 1])


def _leave(m: int, lo: int, band: np.ndarray):
    """(start, down, leave(m)): row m's band at counts start = max(lo, 1) to m - 1,
    and its sum P(m -> j < m), since 1 - P(stay) loses it to rounding."""
    start = max(lo, 1)
    down = band[start - lo : m - lo]
    return start, down, float(down.sum())


def _back_substitute(source: TriangularKernel | ProbabilityVector, reward: np.ndarray):
    """First-step analysis down the chain, reading bands in increasing count.

    e[m] = (reward[m] + sum_{j<m} P(m->j) e[j]) / leave(m), e[1] = 0, per reward
    column, summed over the row's band below m only, as _leave gives it.  A
    kernel's held bands are read as they are; a vector streams the bands of
    _bands(p, n) and holds none, in O(n) memory, and costs O(n * w) for bands
    of width w.  Both are the same bands, bit for bit.
    """
    kernel = isinstance(source, TriangularKernel)
    bands = iter(source._bands) if kernel else _bands(source, source.n)
    next(bands)  # row 1 is absorbing: e[1] = 0
    e = np.zeros(reward.shape)
    for m, (lo, band, _) in enumerate(bands, start=2):
        start, down, leave = _leave(m, lo, band)
        if not leave > 0.0:
            raise ArithmeticError(f"no way down from state {m}; kernel corrupted")
        e[m] = (reward[m] + down @ e[start : start + down.size]) / leave
    return e


def expected_coalescence_times(source: TriangularKernel | ProbabilityVector) -> np.ndarray:
    """Expected rounds to reach one ball from every start count.

    Returns an array e with e[m] = expected time from m balls (e[0] unused,
    e[1] = 0), by back-substitution through the bands a kernel holds, or
    through a vector's, which are then streamed and not kept.
    """
    return _back_substitute(source, np.ones(source.n + 1))


def coalescence_time_cdf(kernel: TriangularKernel, m: int, t_max: int) -> np.ndarray:
    """P(coalescence time <= t) for t = 0..t_max, starting from m balls.

    A dense forward pass: the law of the count after t rounds is the law
    after t - 1 rounds times the (m+1)x(m+1) matrix of rows 1..m.
    """
    if not (1 <= m <= kernel.n and t_max >= 0):
        raise ValueError(f"need 1 <= m <= n={kernel.n} and t_max >= 0, got m={m}, t_max={t_max}")
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


def _times_and_phases(
    source: TriangularKernel | ProbabilityVector, k_star: float, k_1: float
) -> tuple[np.ndarray, PhaseTimes]:
    """Expected times and the phase split, from one back-substitution whose
    reward columns are ones and the three band indicators."""
    n = source.n
    if not 1.0 <= k_1 <= k_star <= n:
        raise ValueError(f"need 1 <= k_1 <= k_star <= n, got ({k_1}, {k_star}, {n})")
    k = np.arange(n + 1)[:, None]
    rewards = np.hstack((k >= 0, k > k_star, (k_1 < k) & (k <= k_star), k <= k_1))
    e = _back_substitute(source, rewards.astype(float))
    return e[:, 0], PhaseTimes(*map(float, e[n, 1:]))


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
    return _times_and_phases(source, k_star, k_1)[1]


def write_kernel_csv(kernel: TriangularKernel, path) -> None:
    """Dump all rows as k,b,prob lines for external validation, by the one dump
    writer from the bands the kernel holds: each cell is "%.17g" of its value,
    and k, b and the 0 of entries outside a row's band print from fixed words."""
    write_triangle(path, ["k", "b", "prob"], [(lo, band) for lo, band, _ in kernel._bands])
