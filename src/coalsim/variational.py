"""Exact minima of the decline proxy sum(exp(-k w)) on moment slices of the
simplex, the two positivity certificates behind them, and a sampled check.

The minima follow from the Karush-Kuhn-Tucker conditions (Nocedal & Wright,
Numerical Optimization, ch. 12).  On the fixed-c2 slice every positive entry
of a stationary point solves k e^{-k w} = lam + 2 mu w, and a convex function
meets a line at most twice, so a minimizer holds at most two positive levels
plus zeros; constraint qualification fails only where all positive entries
are equal, a shape of the same family.  On the fixed-(c2, c3) slice
`distinct_four_determinant` rules out four distinct values and
`middle_pair_excess` a doubled middle one, which leaves `three_level`'s
shapes.  Both minimizers scan their whole shape family, with zeros added, so
they are exact up to rounding and draw no random numbers.  `sampled_proxy_min`
scores random points of the fixed-c2 slice, an independent check that no
sample falls below the scanned minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DistributionError,
    ProbabilityVector,
    _two_level,
    sample_fixed_c2_batch,
    three_level,
    topheavy,
)
from .dynamics import empty_boxes_proxy

__all__ = [
    "proxy_rows",
    "sampled_proxy_min",
    "minimize_proxy_fixed_c2",
    "minimize_proxy_fixed_c2_c3",
    "OrderingReport",
    "proxy_ordering",
    "distinct_four_determinant",
    "middle_pair_excess",
    "level_count",
]

_SAMPLE_BLOCK = 1 << 16  # entries (rows x n) per block of slice samples: 512 KB stays in L2


def proxy_rows(weights: np.ndarray, k: float) -> np.ndarray:
    """Row-wise decline proxy sum(exp(-k w)) for a matrix of weight vectors."""
    terms = np.multiply(-k, weights, dtype=float)
    return np.exp(terms, out=terms).sum(axis=-1)


def _check_k(k: float) -> None:
    if not 0.0 < k < math.inf:  # a NaN k fails too
        raise ValueError(f"need a finite k > 0, got k={k}")


def sampled_proxy_min(
    n: int, c2: float, k: float, rng: np.random.Generator, size: int
) -> float:
    """The smallest proxy at k over the rows of sample_fixed_c2_batch(n, c2,
    rng, size), drawn and scored in blocks of about _SAMPLE_BLOCK entries so
    that memory does not grow with size; inf when size is 0."""
    best = math.inf
    rows = max(1, _SAMPLE_BLOCK // n)
    for start in range(0, size, rows):
        block = sample_fixed_c2_batch(n, c2, rng, min(rows, size - start))
        best = min(best, float(proxy_rows(block, k).min()))
    return best


def minimize_proxy_fixed_c2(n: int, c2: float, k: float) -> tuple[ProbabilityVector, float]:
    """The smallest decline proxy at k on the fixed-c2 slice, and a vector there.

    Scans the n(n-1)/2 shapes of z <= n - 2 zeros, h >= 1 entries at a and
    l = n - z - h >= 1 entries at b, with a >= b >= 0 from _two_level: one z at
    a time and every h at once, until n - z boxes cannot reach c2.  The first
    lowest shape wins, and its proxy is taken again on the returned vector.  A
    c2 within 1e-12 relative of 1/n counts as 1/n, and one further below raises
    DistributionError.
    """
    _check_k(k)
    topheavy(n, c2)  # raises DistributionError for n < 2 or c2 outside [1/n, 1]
    c2 = min(max(c2, 1.0 / n), 1.0)
    best = (math.inf, 0, 1)  # proxy, z, h
    for z in range(n - 1):
        m = n - z
        if c2 * m < 1.0 - 1e-12:  # m boxes hold c2 >= 1/m, and fewer boxes more
            break
        h = np.arange(1, m)
        a, b = _two_level(h, m - h, 1.0, c2)
        f = z + h * np.exp(-k * a) + (m - h) * np.exp(-k * np.maximum(b, 0.0))
        f[b < -1e-12] = math.inf  # h entries at a would hold more than all the mass
        j = int(np.argmin(f))
        if f[j] < best[0]:
            best = (f[j], z, j + 1)
    _, z, h = best
    a, b = _two_level(h, n - z - h, 1.0, c2)
    w = np.zeros(n)
    w[:h], w[h : n - z] = a, max(b, 0.0)
    q = ProbabilityVector(w, normalize=True)
    return q, float(empty_boxes_proxy(q, k))


def minimize_proxy_fixed_c2_c3(
    n: int, c2: float, c3: float, k: float
) -> tuple[ProbabilityVector, float]:
    """The smallest decline proxy at k on the fixed-(c2, c3) slice, and a vector there.

    Scans three_level(n - z, c2, c3, nu) padded with z zeros over every pair
    (z, nu), skipping those that raise DistributionError; the first lowest
    wins.  Raises DistributionError when no pair is feasible.
    """
    _check_k(k)
    best, best_f = None, math.inf
    for z in range(n - 2):
        for nu in range(1, n - z - 1):
            try:
                q = three_level(n - z, c2, c3, nu)
            except DistributionError:
                continue
            if z:  # padding rescales; q unpadded is proxy_ordering's vector bit for bit
                q = ProbabilityVector(np.concatenate((q.weights, np.zeros(z))))
            f = float(empty_boxes_proxy(q, k))  # as proxy_ordering sums it
            if f < best_f:
                best, best_f = q, f
    if best is None:
        raise DistributionError(f"no feasible three-level shape for n={n}, c2={c2}, c3={c3}")
    return best, best_f


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


def proxy_ordering(p: ProbabilityVector, k: float) -> OrderingReport:
    """Compare the proxy of p with its moment-matched extremal vectors at k."""
    _check_k(k)
    m = p.moments()
    n = p.n
    f_three: dict[int, float] = {}
    infeasible: dict[int, str] = {}
    for nu in range(1, n - 1):
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


def level_count(p: ProbabilityVector) -> int:
    """Number of levels of p at resolution 1e-6: distinct weights more than 1e-6 apart."""
    return int(1 + (np.diff(p.levels[0]) > 1e-6).sum())
