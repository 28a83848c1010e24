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
    binomial table comes from the Pascal recurrence.  Every term is a
    nonnegative product, so there is no cancellation and no scaling.
    """
    size = k_max + 1
    law = np.zeros((size, size))
    law[0, 0] = 1.0
    total = 0.0
    for w in weights:
        if w <= 0.0:
            continue
        old, new = total / (total + w), w / (total + w)
        total += w
        keep = np.zeros((size, size))  # keep[j, i]: i of j balls in old boxes
        keep[0, 0] = 1.0
        for j in range(1, size):
            keep[j, : j + 1] = new * keep[j - 1, : j + 1]
            keep[j, 1 : j + 1] += old * keep[j - 1, :j]
        nxt = law * np.diag(keep)[:, None]
        nxt[:, 1:] += np.tril(keep, -1) @ law[:, :-1]
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


def expected_coalescence_times(kernel: TriangularKernel) -> np.ndarray:
    """Expected rounds to reach one ball from every start count.

    Returns an array e with e[m] = expected time from m balls (e[0] unused,
    e[1] = 0), by back-substitution through the triangular kernel.
    """
    n = kernel.n
    et = np.zeros(n + 1)
    for m in range(2, n + 1):
        row = kernel.row(m).probs
        stay = float(row[m])
        if stay >= 1.0:
            raise ArithmeticError(
                f"self-loop probability is 1 at state {m}; kernel corrupted"
            )
        et[m] = (1.0 + float(row[1:m] @ et[1:m])) / (1.0 - stay)
    return et


def coalescence_time_cdf(kernel: TriangularKernel, m: int, t_max: int) -> np.ndarray:
    """P(coalescence time <= t) for t = 0..t_max, starting from m balls."""
    n = kernel.n
    if not 1 <= m <= n:
        raise ValueError(f"m={m} outside [1, n={n}]")
    dist = np.zeros(n + 1)
    dist[m] = 1.0
    cdf = np.zeros(t_max + 1)
    cdf[0] = dist[1]
    for t in range(1, t_max + 1):
        nxt = np.zeros(n + 1)
        nxt[1] = dist[1]
        for k in range(2, m + 1):
            mass = dist[k]
            if mass > 0.0:
                nxt[1 : k + 1] += mass * kernel.row(k).probs[1:]
        dist = nxt
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
    kernel: TriangularKernel, k_star: float, k_1: float
) -> PhaseTimes:
    """Split the expected coalescence time from n balls across state bands.

    Expected time at state k is the visit probability (forward pass through
    the self-loop-free jump chain from state n) divided by the exit rate
    1 - P(stay).  States above k_star are early, those in (k_1, k_star] are
    middle, and those in (1, k_1] are late; the three parts add up to the
    expected coalescence time from n.
    """
    n = kernel.n
    if not 1.0 <= k_1 <= k_star <= n:
        raise ValueError(f"need 1 <= k_1 <= k_star <= n, got ({k_1}, {k_star}, {n})")
    visit = np.zeros(n + 1)
    visit[n] = 1.0
    early = middle = late = 0.0
    for k in range(n, 1, -1):
        v = visit[k]
        if v <= 0.0:
            continue
        row = kernel.row(k).probs
        stay = float(row[k])
        hold = v / (1.0 - stay)
        if k > k_star:
            early += hold
        elif k > k_1:
            middle += hold
        else:
            late += hold
        if k > 2:
            visit[1:k] += v * row[1:k] / (1.0 - stay)
    return PhaseTimes(early, middle, late)


def write_kernel_csv(kernel: TriangularKernel, path) -> None:
    """Dump all rows as k,b,prob lines for external validation."""
    with open(path, "w", newline="") as fh:
        fh.write("k,b,prob\n")
        for k in range(1, kernel.n + 1):
            probs = kernel.row(k).probs
            for b in range(1, k + 1):
                fh.write(f"{k},{b},{probs[b]:.17g}\n")
