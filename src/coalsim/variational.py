"""Stochastic corroboration of the extremal-shape facts about the decline
proxy: constrained random search on moment slices of the simplex plus the two
closed-form positivity certificates behind them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .distributions import (
    DistributionError,
    ProbabilityVector,
    sample_fixed_c2_batch,
    three_level,
    topheavy,
)
from .dynamics import empty_boxes_proxy

__all__ = [
    "proxy_rows",
    "minimize_proxy_fixed_c2",
    "minimize_proxy_fixed_c2_c3",
    "OrderingReport",
    "proxy_ordering",
    "distinct_four_determinant",
    "middle_pair_excess",
    "level_count",
]

# d @ _CROSS = u x d for the turn axis u = (1, 1, 1) / sqrt(3)
_CROSS = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]) / math.sqrt(3.0)
_SAMPLE_BLOCK = 1 << 16  # entries (rows x n) per block of slice samples: 512 KB stays in L2
_BATCH = 32  # proposals scored together per descent step


def proxy_rows(weights: np.ndarray, k: float) -> np.ndarray:
    """Row-wise decline proxy sum(exp(-k w)) for a matrix of weight vectors."""
    terms = np.multiply(-k, weights, dtype=float)
    return np.exp(terms, out=terms).sum(axis=-1)


def _distinct_indices(rng: np.random.Generator, n: int, m: int, r: int) -> np.ndarray:
    """m uniform ordered r-tuples of distinct indices in [0, n), one per row: the
    j-th draw, over n - j values, skips the taken ones in increasing order."""
    idx = rng.integers(0, n - np.arange(r), size=(m, r))
    below = []  # the taken indices, ascending within each row
    for j, col in enumerate(idx.T):  # views: the shifts write idx
        for t in below:
            col += col >= t
        if j < r - 1:  # insert col among the taken ones
            for i, t in enumerate(below):
                below[i], col = np.minimum(t, col), np.maximum(t, col)
            below.append(col)
    return idx


def _check_search(k: float, budget: int) -> None:
    if not (0.0 < k < math.inf and budget >= 1):  # a NaN k fails too
        raise ValueError(f"need a finite k > 0 and budget >= 1, got k={k}, budget={budget}")


def _descend(q: np.ndarray, k: float, moves: int, propose) -> np.ndarray:
    """Best-of-batch descent of the proxy at k from each row of the stack q, in lockstep
    and in place; returns each row's proxy.  propose(m, sigma) gives, per row, m rows of
    indices and moved values, a negative or NaN value marking an infeasible move.  A
    row's sigma halves when none of its moves is feasible and shrinks by 0.7 when none
    improves; rows with sigma above 1e-10 are live, and each applies its best move,
    scored over the move's own entries."""
    terms = np.exp(-k * q)
    sigma = np.full(len(q), 0.5)
    rows = np.arange(len(q))
    while moves > 0 and (live := sigma > 1e-10).any():
        m = min(_BATCH, moves)
        moves -= m
        idx, moved = propose(m, sigma)
        ok = moved.min(axis=2) >= 0.0
        old = terms[rows[:, None, None], idx].sum(axis=2)
        delta = np.where(ok, proxy_rows(moved, k) - old, np.inf)
        j = np.argmin(delta, axis=1)
        step = live & (delta[rows, j] < -1e-15)
        sigma *= np.where(step, 1.0, np.where(ok.any(axis=1), 0.7, 0.5))
        r, j = rows[step], j[step]
        q[r[:, None], idx[r, j]] = moved[r, j]
        terms[r] = np.exp(-k * q[r])
    return terms.sum(axis=1)


def _turns(rng: np.random.Generator, q: np.ndarray, m: int, sigma: np.ndarray):
    """m coordinate triples of each row of q, each turned about (1, 1, 1) by an
    N(0, sigma) angle, which keeps the triple's sum and sum of squares."""
    s, n = q.shape
    idx = _distinct_indices(rng, n, s * m, 3).reshape(s, m, 3)
    angles = rng.standard_normal((s, m, 1)) * sigma[:, None, None]
    trip = q[np.arange(s)[:, None, None], idx]
    center = trip.sum(axis=2, keepdims=True) / 3.0
    dev = trip - center
    return idx, center + np.cos(angles) * dev + np.sin(angles) * (dev @ _CROSS)


def _quartic_moves(rng: np.random.Generator, q: np.ndarray, m: int, sigma: np.ndarray):
    """m blocks of four coordinates of the one row of q, each moved keeping its first
    three power sums.

    Those fix e1, e2 and e3 (Newton's identities), so the moved block is the root
    set of P + delta, P(x) = x^4 - e1 x^3 + e2 x^2 - e3 x + e4, read off companion
    eigenvalues and assigned sorted, in the block's order; non-real rows are NaN.
    delta is sigma N(0, 1) times P at the gap midpoints on its side: roots stay real
    from -(P's hump in the middle gap) to its shallower dip in the outer gaps.
    """
    (row,) = q
    idx = _distinct_indices(rng, row.size, m, 4)
    idx = np.take_along_axis(idx, np.argsort(row[idx], axis=1), axis=1)
    block = row[idx]
    coef = np.zeros((m, 5))  # P's coefficients, highest power first
    coef[:, 0] = 1.0
    for i in range(4):
        coef[:, 1:] -= block[:, i : i + 1] * coef[:, :-1]
    mids = 0.5 * (block[:, 1:] + block[:, :-1])
    p_mid = np.prod(mids[:, :, None] - block[:, None, :], axis=2)  # <= 0, >= 0, <= 0
    z = rng.standard_normal(m)
    reach = np.where(z < 0.0, p_mid[:, 1], -np.maximum(p_mid[:, 0], p_mid[:, 2]))
    coef[:, 4] += sigma * z * reach
    companion = np.zeros((m, 4, 4))
    companion[:, 1:, :3] = np.eye(3)
    companion[:, :, 3] = -coef[:, :0:-1]
    roots = np.linalg.eigvals(companion)
    moved = np.sort(roots.real, axis=1)
    moved[(roots.imag != 0.0).any(axis=1)] = np.nan
    return idx[None], moved[None]


def _sample_seeds(
    n: int, c2: float, k: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The 8 lowest-proxy rows of `size` slice samples, lowest first, and
    their proxies.  Drawn in blocks of about _SAMPLE_BLOCK entries, the rows are
    those of one sample_fixed_c2_batch call of `size` rows."""
    best, values = np.empty((0, n)), np.empty(0)
    rows = max(1, _SAMPLE_BLOCK // n)
    for start in range(0, size, rows):
        block = sample_fixed_c2_batch(n, c2, rng, min(rows, size - start))
        block_values = proxy_rows(block, k)
        top = np.argsort(block_values, kind="stable")[:8]  # ties keep draw order
        best, values = np.vstack((best, block[top])), np.append(values, block_values[top])
        keep = np.argsort(values, kind="stable")[:8]
        best, values = best[keep], values[keep]
    return best, values


def minimize_proxy_fixed_c2(
    n: int, c2: float, k: float, budget: int, rng: np.random.Generator
) -> tuple[ProbabilityVector, float]:
    """Search the fixed-c2 slice for the smallest decline proxy at k.

    Random restarts drawn on the slice, the best 8 refined together by
    three-coordinate circle moves that preserve the sum and sum of squares
    exactly.  The budget counts proxy evaluations across sampling and
    refinement; a move is scored by the proxy's change over its three entries.  A c2 within 1e-12 relative of 1/n
    returns topheavy(n, c2), and one below raises DistributionError.
    """
    _check_search(k, budget)
    if c2 * n <= 1.0 + 1e-12:
        u = topheavy(n, c2)
        return u, empty_boxes_proxy(u, k)

    n_samples = max(budget // 2, 1)
    seeds, values = _sample_seeds(n, c2, k, rng, n_samples)
    best_q, best_f = seeds[0].copy(), float(values[0])

    # a triple move needs three boxes; the two-box slice is two mirror points
    per_seed = (budget - n_samples) // len(seeds) if n > 2 else 0
    f = _descend(seeds, k, per_seed, partial(_turns, rng, seeds))
    j = int(np.argmin(f))  # the first seed of the lowest proxy, if below the best sample
    if f[j] < best_f:
        best_q, best_f = seeds[j], float(f[j])
    return ProbabilityVector(best_q, normalize=True), best_f


def minimize_proxy_fixed_c2_c3(
    n: int,
    c2: float,
    c3: float,
    k: float,
    budget: int,
    rng: np.random.Generator,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Descent on the fixed-(c2, c3) slice for the smallest proxy at k.

    Budget moves of four coordinates that keep their first three power sums
    (see _quartic_moves), from start or else the best three-level vector over
    all shape counts; below four boxes no move exists and the start is returned.
    """
    _check_search(k, budget)
    if start is None:
        starts = []
        for nu in range(1, n - 1):
            try:
                starts.append(three_level(n, c2, c3, nu).weights)
            except DistributionError:
                continue
        if not starts:
            raise DistributionError(f"no feasible three-level start for n={n}, c2={c2}, c3={c3}")
        start = min(starts, key=lambda w: proxy_rows(w, k))
    q = np.array(start, dtype=float, ndmin=2)
    (f,) = _descend(q, k, budget if n > 3 else 0, partial(_quartic_moves, rng, q))
    return q[0], float(f)


@dataclass(frozen=True)
class OrderingReport:
    """Proxy values of a vector against its matched extremal families."""

    k: float
    f_value: float
    f_three: dict[int, float] = field(default_factory=dict)
    infeasible: dict[int, str] = field(default_factory=dict)
    f_topheavy: float = math.nan
    f_uniform: float = math.nan

    @property
    def ordered(self) -> bool:
        """Vector above every matched three-level, above topheavy, above uniform."""
        tol = 1e-9
        chain = [self.f_value]
        if self.f_three:
            chain.append(max(self.f_three.values()))
        chain.extend([self.f_topheavy, self.f_uniform])
        return all(a >= b - tol for a, b in zip(chain, chain[1:]))


def proxy_ordering(
    p: ProbabilityVector, k: float, nu_values: range | None = None
) -> OrderingReport:
    """Compare the proxy of p with its moment-matched extremal vectors at k."""
    if not 0.0 < k < math.inf:  # a NaN k fails too
        raise ValueError(f"need a finite k > 0, got k={k}")
    m = p.moments()
    n = p.n
    f_three: dict[int, float] = {}
    infeasible: dict[int, str] = {}
    for nu in nu_values if nu_values is not None else range(1, n - 1):
        try:
            f_three[nu] = empty_boxes_proxy(three_level(n, m.c2, m.c3, nu), k)
        except DistributionError as exc:
            infeasible[nu] = str(exc)
    return OrderingReport(
        k=k,
        f_value=empty_boxes_proxy(p, k),
        f_three=f_three,
        infeasible=infeasible,
        f_topheavy=empty_boxes_proxy(topheavy(n, m.c2), k),
        f_uniform=n * math.exp(-k / n),
    )


def distinct_four_determinant(x1: float, x2: float, x3: float, x4: float) -> float:
    """4x4 determinant with rows (exp(-x), 1, x, x^2) over four decreasing points.

    Strict positivity certifies that no minimizer of the decline proxy on a
    fixed-moment slice can hold four distinct values.
    """
    if not (x1 > x2 > x3 > x4 >= 0.0):
        raise ValueError("need x1 > x2 > x3 > x4 >= 0")
    xs = np.array([x1, x2, x3, x4])
    mat = np.vstack([np.exp(-xs), np.ones(4), xs, xs * xs])
    return float(np.linalg.det(mat))


def middle_pair_excess(x1: float, x: float, x4: float) -> float:
    """Positivity certificate for splitting a doubled middle value.

    -(x-x4)^2 e^{-x1} + (D - (x1-x4)(x1+x4-2x)) e^{-x} + (x-x1)^2 e^{-x4}
    with D = (x-x1)(x4-x1)(x4-x); strictly positive on x1 > x > x4 >= 0.
    """
    if not (x1 > x > x4 >= 0.0):
        raise ValueError("need x1 > x > x4 >= 0")
    delta = (x - x1) * (x4 - x1) * (x4 - x)
    return (
        -((x - x4) ** 2) * math.exp(-x1)
        + (delta - (x1 - x4) * (x1 + x4 - 2.0 * x)) * math.exp(-x)
        + (x - x1) ** 2 * math.exp(-x4)
    )


def level_count(weights: np.ndarray, tol: float = 1e-6) -> int:
    """Number of distinct weight levels after clustering at tolerance tol."""
    w = np.sort(np.asarray(weights, dtype=float))
    return int(1 + (np.diff(w) > tol).sum())
