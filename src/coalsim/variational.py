"""Stochastic corroboration of the extremal-shape facts about the decline
proxy: constrained random search on moment slices of the simplex plus the two
closed-form positivity certificates behind them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

# d @ _CROSS = u x d for the turn axis u = (1, 1, 1) / sqrt(3); samples drawn at once
_CROSS = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]) / math.sqrt(3.0)
_SAMPLE_BLOCK = 4096


def proxy_rows(weights: np.ndarray, k: float) -> np.ndarray:
    """Row-wise decline proxy sum(exp(-k w)) for a matrix of weight vectors."""
    return np.exp(-k * np.asarray(weights, dtype=float)).sum(axis=-1)


def _distinct_triples(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """m uniform ordered triples of distinct indices in [0, n), one per row: the
    second and third draws, over n - 1 and n - 2 values, skip the taken ones."""
    idx = rng.integers(0, (n, n - 1, n - 2), size=(m, 3))
    a, b, c = idx.T  # views: the shifts write idx
    b += b >= a
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return idx


def _rotate_triples(trip: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Turn coordinate triples, one per row, by an (m, 1) column of angles about (1, 1, 1).

    A turn keeps each triple's sum and sum of squares, so it stays on the
    slice; triples that leave the nonnegative orthant are the caller's problem.
    """
    center = trip.mean(axis=1, keepdims=True)
    dev = trip - center
    return center + np.cos(angles) * dev + np.sin(angles) * (dev @ _CROSS)


def _sample_seeds(
    n: int, c2: float, k: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The 8 lowest-proxy rows of `size` slice samples, lowest first, and
    their proxies.  Drawn in blocks, in O(block * n) memory, the rows are those
    of one sample_fixed_c2_batch call of `size` rows."""
    best, values = np.empty((0, n)), np.empty(0)
    for start in range(0, size, _SAMPLE_BLOCK):
        block = sample_fixed_c2_batch(n, c2, rng, min(_SAMPLE_BLOCK, size - start))
        best, values = np.vstack((best, block)), np.append(values, proxy_rows(block, k))
        keep = np.argsort(values, kind="stable")[:8]
        best, values = best[keep], values[keep]
    return best, values


def minimize_proxy_fixed_c2(
    n: int, c2: float, k: float, budget: int, rng: np.random.Generator
) -> tuple[ProbabilityVector, float]:
    """Search the fixed-c2 slice for the smallest decline proxy at k.

    Random restarts drawn on the slice, refined by three-coordinate circle
    moves that preserve the sum and sum of squares exactly.  The budget counts
    proxy evaluations across sampling and refinement; a move is scored by the
    proxy's change over its three entries.  A c2 within 1e-12 relative of 1/n
    returns topheavy(n, c2), and one below raises DistributionError.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    if c2 * n <= 1.0 + 1e-12:
        u = topheavy(n, c2)
        return u, empty_boxes_proxy(u, k)

    n_samples = max(budget // 2, 1)
    seeds, values = _sample_seeds(n, c2, k, rng, n_samples)
    best_q, best_f = seeds[0].copy(), float(values[0])

    # a triple move needs three boxes; the two-box slice is two mirror points
    per_seed = (budget - n_samples) // len(seeds) if n > 2 else 0
    batch_size = 32
    for q in seeds:
        terms = np.exp(-k * q)
        sigma = 0.5
        left = per_seed
        while left > 0 and sigma > 1e-10:
            m = min(batch_size, left)
            left -= m
            idx = _distinct_triples(rng, n, m)
            moved = _rotate_triples(q[idx], rng.normal(0.0, sigma, size=(m, 1)))
            ok = moved.min(axis=1) >= 0.0
            if not ok.any():
                sigma *= 0.5
                continue
            delta = np.where(ok, proxy_rows(moved, k) - terms[idx].sum(axis=1), np.inf)
            j = int(np.argmin(delta))
            if delta[j] < -1e-15:
                q[idx[j]] = moved[j]
                terms = np.exp(-k * q)
            else:
                sigma *= 0.7
        f = float(terms.sum())  # the full proxy of q
        if f < best_f:
            best_q, best_f = q, f
    return ProbabilityVector(best_q, normalize=True), best_f


def _project_moments(y: np.ndarray, targets: tuple[float, float, float]) -> np.ndarray | None:
    """Gauss-Newton return of a 4-point block onto its three moment targets."""
    s, q, c = targets
    for _ in range(40):
        res = np.array(
            [y.sum() - s, (y * y).sum() - q, (y**3).sum() - c]
        )
        if np.abs(res).max() <= 1e-14:
            return y
        jac = np.vstack([np.ones_like(y), 2.0 * y, 3.0 * y * y])
        try:
            corr = jac.T @ np.linalg.solve(jac @ jac.T, res)
        except np.linalg.LinAlgError:
            return None
        y = y - corr
    return y if np.abs(res).max() <= 1e-12 else None


def minimize_proxy_fixed_c2_c3(
    n: int,
    c2: float,
    c3: float,
    k: float,
    budget: int,
    rng: np.random.Generator,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Random walk on the fixed-(c2, c3) slice, keeping the best proxy value.

    Moves pick four coordinates; the three moment constraints leave one degree
    of freedom, realized as a step along the tangent null direction followed
    by a Gauss-Newton return to the slice (the cubic constraint has no closed
    form).  Starts from a feasible point, by default the best three-level
    vector over all shape counts.
    """
    if start is None:
        best = None
        for nu in range(1, n - 1):
            try:
                v = three_level(n, c2, c3, nu)
            except DistributionError:
                continue
            f = empty_boxes_proxy(v, k)
            if best is None or f < best[1]:
                best = (v.weights.copy(), f)
        if best is None:
            raise DistributionError(
                f"no feasible three-level start for n={n}, c2={c2}, c3={c3}"
            )
        q = best[0]
    else:
        q = np.asarray(start, dtype=float).copy()
    best_q = q.copy()
    best_f = float(proxy_rows(q[None, :], k)[0])
    f = best_f
    scale = 0.1
    for _ in range(budget):
        idx = rng.choice(n, size=4, replace=False)
        block = q[idx]
        diffs = block[:, None] - block[None, :]
        np.fill_diagonal(diffs, 1.0)
        prods = diffs.prod(axis=1)
        if np.any(np.abs(prods) < 1e-30):
            continue  # repeated values: null direction degenerates
        direction = 1.0 / prods
        direction /= np.linalg.norm(direction)
        h = rng.normal(0.0, scale)
        targets = (block.sum(), float(block @ block), float((block**3).sum()))
        moved = _project_moments(block + h * direction, targets)
        if moved is None or moved.min() < 0.0:
            scale *= 0.95
            continue
        cand = q.copy()
        cand[idx] = moved
        cf = float(proxy_rows(cand[None, :], k)[0])
        if cf < f:
            q, f = cand, cf
            if cf < best_f:
                best_q, best_f = cand.copy(), cf
        else:
            # hill-climb with occasional sideways drift to keep exploring
            if rng.random() < 0.1:
                q, f = cand, cf
            scale = max(scale * 0.999, 1e-4)
    return best_q, best_f


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
    if k <= 0:
        raise ValueError("k must be positive")
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
