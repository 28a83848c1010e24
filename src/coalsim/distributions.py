"""Probability vectors over boxes: validated construction, power-sum moments,
and the extremal two- and three-level families."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DistributionError",
    "SolverError",
    "Moments",
    "ProbabilityVector",
    "uniform",
    "topheavy",
    "three_level",
    "sample_fixed_c2",
    "sample_fixed_c2_batch",
    "from_descriptor",
]

# accept user input with this much sum noise; constructed vectors are rescaled
INPUT_SUM_TOL = 1e-9


class DistributionError(ValueError):
    """Invalid weights or infeasible distribution parameters."""


class SolverError(DistributionError):
    """An iterative solve failed to reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = float(residual)


@dataclass(frozen=True)
class Moments:
    """Power sums sum(p^2) and sum(p^3) of a probability vector.

    c2 is the probability that two fixed balls collide in one round, c3 the
    triple-collision analogue.  Always 1/n <= c2 <= 1 and c2^2 <= c3 <= c2^(3/2).
    """

    c2: float
    c3: float


class ProbabilityVector:
    """Immutable nonnegative weights of length n >= 2 summing to one.

    Stored order is preserved; use :meth:`sorted_desc` for a nonincreasing copy
    and :meth:`grouped` for a run-length compression over equal values (it
    picks the kernel's row algorithm).  Instances are immutable after
    construction and safe to share across threads.
    """

    __slots__ = ("_w", "__weakref__")

    def __init__(self, weights: Sequence[float] | np.ndarray, *, normalize: bool = False):
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DistributionError("need a one-dimensional vector with n >= 2 entries")
        if not np.all(np.isfinite(w)):
            raise DistributionError("weights must be finite")
        if np.any(w < 0.0):
            bad = int(np.argmin(w))
            raise DistributionError(f"negative weight {w[bad]!r} at index {bad}")
        total = float(w.sum())
        if total <= 0.0:
            raise DistributionError("weights sum to zero")
        if not normalize and abs(total - 1.0) > INPUT_SUM_TOL:
            raise DistributionError(
                f"weights sum to {total!r}, not 1; pass normalize=True to rescale"
            )
        w /= total
        w.setflags(write=False)
        self._w = w

    @property
    def weights(self) -> np.ndarray:
        """The stored weights as a read-only array."""
        return self._w

    @property
    def n(self) -> int:
        return self._w.size

    def moments(self) -> Moments:
        w = self._w
        return Moments(c2=float(w @ w), c3=float((w * w) @ w))

    def sorted_desc(self) -> np.ndarray:
        """Nonincreasing copy of the weights; the stored order is untouched."""
        return np.sort(self._w)[::-1].copy()

    def grouped(self) -> list[tuple[float, int]]:
        """(value, multiplicity) pairs, largest value first."""
        values, counts = np.unique(self._w, return_counts=True)
        return [(float(v), int(c)) for v, c in zip(values[::-1], counts[::-1])]

    def __repr__(self) -> str:
        w = self._w
        if self.n <= 8:
            body = ", ".join(f"{x:.6g}" for x in w)
        else:
            body = f"{w[0]:.6g}, {w[1]:.6g}, ..., {w[-1]:.6g}"
        return f"ProbabilityVector(n={self.n}, [{body}])"


def uniform(n: int) -> ProbabilityVector:
    """Equal weights over n boxes."""
    if n < 2:
        raise DistributionError("n must be at least 2")
    return ProbabilityVector(np.full(n, 1.0 / n), normalize=True)


def topheavy(n: int, c2: float) -> ProbabilityVector:
    """Two-valued vector with a single large entry and the requested sum of squares.

    The large entry is (1 + sqrt((n-1)(c2*n - 1)))/n and the remaining n-1
    entries share the leftover mass equally.  c2 = 1/n gives the uniform
    vector, c2 = 1 the point mass.
    """
    if n < 2:
        raise DistributionError("n must be at least 2")
    lo = 1.0 / n
    if c2 < lo - 1e-12 or c2 > 1.0 + 1e-12:
        raise DistributionError(f"c2={c2!r} outside [1/n, 1] for n={n}")
    c2 = min(max(c2, lo), 1.0)
    radicand = (n - 1.0) * (c2 * n - 1.0)
    big = (1.0 + math.sqrt(max(radicand, 0.0))) / n
    small = (1.0 - big) / (n - 1)
    w = np.full(n, max(small, 0.0))
    w[0] = big
    return ProbabilityVector(w, normalize=True)


def _three_level_weights(r1: float, r2: float, r3: float, nu: int, n: int) -> np.ndarray:
    w = np.empty(n)
    w[:nu] = r1
    w[nu] = r2
    w[nu + 1 :] = r3
    return w


def _three_level_residual(x: np.ndarray, nu: int, mu: int, c2: float, c3: float) -> np.ndarray:
    r1, r2, r3 = x
    return np.array(
        [
            nu * r1 + r2 + mu * r3 - 1.0,
            nu * r1 * r1 + r2 * r2 + mu * r3 * r3 - c2,
            nu * r1**3 + r2**3 + mu * r3**3 - c3,
        ]
    )


def _three_level_newton(
    nu: int, mu: int, c2: float, c3: float, n: int, tol: float, max_iter: int
) -> tuple[np.ndarray, float]:
    r1 = math.sqrt(c2 / nu)
    r3 = (1.0 - nu * r1) / (n - nu)
    x = np.array([r1, 0.5 * (r1 + r3), r3])
    res = _three_level_residual(x, nu, mu, c2, c3)
    norm = float(np.abs(res).max())
    for _ in range(max_iter):
        if norm <= tol:
            break
        r1, r2, r3 = x
        jac = np.array(
            [
                [nu, 1.0, mu],
                [2.0 * nu * r1, 2.0 * r2, 2.0 * mu * r3],
                [3.0 * nu * r1 * r1, 3.0 * r2 * r2, 3.0 * mu * r3 * r3],
            ]
        )
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        lam, improved = 1.0, False
        while lam > 1e-12:
            trial = x + lam * step
            trial_res = _three_level_residual(trial, nu, mu, c2, c3)
            trial_norm = float(np.abs(trial_res).max())
            if trial_norm < norm:
                x, res, norm, improved = trial, trial_res, trial_norm, True
                break
            lam *= 0.5
        if not improved:
            break
    return x, norm


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, float] | None:
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    lo, hi = (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)
    return (lo, hi) if lo <= hi else (hi, lo)


def _three_level_reduced(
    nu: int, mu: int, c2: float, c3: float, tol: float
) -> tuple[np.ndarray, float]:
    """Reduce to a one-dimensional root problem in the top value.

    For a fixed top value the linear and quadratic equations pin the lower two
    values in closed form (discriminant branch keeping the singleton above the
    bottom level); the cubic residual is then bracketed and bisected over the
    feasible top-value range.  The range endpoints are computed analytically,
    which nails roots sitting exactly on the degenerate boundary where the
    two lower values coincide and the full Jacobian is singular.
    """

    def lower_pair(r1: float) -> tuple[float, float]:
        s = 1.0 - nu * r1
        q = c2 - nu * r1 * r1
        disc = max(mu * ((mu + 1.0) * q - s * s), 0.0)
        r3 = (s * mu - math.sqrt(disc)) / (mu * (mu + 1.0))
        r2 = s - mu * r3
        return r2, max(r3, 0.0)

    def cubic_gap(r1: float) -> float:
        r2, r3 = lower_pair(r1)
        return nu * r1**3 + r2**3 + mu * r3**3 - c3

    # feasibility in the top value r1:
    #   q >= 0 and s >= 0 :            r1 <= min(sqrt(c2/nu), 1/nu)
    #   discriminant >= 0 :            between the roots of a downward parabola
    #   bottom level >= 0 (s^2 >= q):  outside the roots of an upward parabola
    upper = min(math.sqrt(c2 / nu), 1.0 / nu)
    disc_roots = _quadratic_roots(-nu * (mu + 1.0 + nu), 2.0 * nu, (mu + 1.0) * c2 - 1.0)
    if disc_roots is None:
        return np.zeros(3), math.inf
    lo, hi = max(disc_roots[0], 0.0), min(disc_roots[1], upper)
    if lo > hi:
        return np.zeros(3), math.inf
    intervals = [(lo, hi)]
    neg_roots = _quadratic_roots(nu * (nu + 1.0), -2.0 * nu, 1.0 - c2)
    if neg_roots is not None and neg_roots[0] < neg_roots[1]:
        cut_lo, cut_hi = neg_roots
        intervals = []
        if lo < cut_lo:
            intervals.append((lo, min(hi, cut_lo)))
        if hi > cut_hi:
            intervals.append((max(lo, cut_hi), hi))

    # the moment system does not know the shape, so a mirror root with the
    # singleton on top can appear; prefer roots with r1 >= r2
    best: dict[bool, tuple[float, float] | None] = {True: None, False: None}

    def consider(x: float, gap: float) -> None:
        valid = x >= lower_pair(x)[0] - 1e-9
        cur = best[valid]
        if cur is None or gap < cur[1]:
            best[valid] = (x, gap)

    for a, b in intervals:
        if not a <= b:
            continue
        grid = np.linspace(a, b, 2001)
        vals = [cubic_gap(float(r)) for r in grid]
        for i, (x, g) in enumerate(zip(grid, vals)):
            consider(float(x), abs(g))
            if i + 1 < len(grid) and (g < 0.0) != (vals[i + 1] < 0.0):
                lo_x, hi_x = float(grid[i]), float(grid[i + 1])
                for _ in range(100):
                    mid = 0.5 * (lo_x + hi_x)
                    if (cubic_gap(mid) < 0.0) == (g < 0.0):
                        lo_x = mid
                    else:
                        hi_x = mid
                root = 0.5 * (lo_x + hi_x)
                consider(root, abs(cubic_gap(root)))
    pick = best[True] if best[True] is not None else best[False]
    if pick is None:
        return np.zeros(3), math.inf
    r2, r3 = lower_pair(pick[0])
    return np.array([pick[0], r2, r3]), pick[1]


def three_level(n: int, c2: float, c3: float, nu: int) -> ProbabilityVector:
    """Vector with values (r1 x nu, r2 x 1, r3 x (n-nu-1)) matching (c2, c3).

    Solved by damped Newton from the start r1 = sqrt(c2/nu),
    r3 = (1 - nu*r1)/(n - nu), r2 midway, with a one-dimensional bracketing
    fallback for the degenerate boundary r2 = r3 where the Jacobian is
    singular.  Raises SolverError when no solution is reachable and
    DistributionError when the solved values violate r1 >= r2 >= r3 >= 0.
    """
    if n < 3:
        raise DistributionError("three-level vectors need n >= 3")
    if not 1 <= nu <= n - 2:
        raise DistributionError(f"nu={nu} outside [1, n-2] for n={n}")
    if c2 < 1.0 / n - 1e-12 or c2 > 1.0 + 1e-12:
        raise DistributionError(f"c2={c2!r} outside [1/n, 1]")
    if c3 < c2 * c2 - 1e-12 or c3 > c2**1.5 + 1e-12:
        raise DistributionError(f"c3={c3!r} outside [c2^2, c2^(3/2)]")
    mu = n - nu - 1
    tol = 1e-12

    x, norm = _three_level_newton(nu, mu, c2, c3, n, tol, max_iter=200)
    near_fold = abs(x[1] - x[2]) < 1e-5  # Newton is singular where r2 = r3
    # the moment system has mirror roots with the levels out of order; fall
    # back whenever Newton's root is unusable, not only when it failed
    shape_bad = x[1] < x[2] - 1e-9 or x[0] < x[1] - 1e-9
    if norm > tol or near_fold or shape_bad or np.any(x < -1e-10):
        x_alt, norm_alt = _three_level_reduced(nu, mu, c2, c3, tol)
        alt_ok = x_alt[0] >= x_alt[1] - 1e-9
        if (norm_alt <= tol and (alt_ok or shape_bad or norm > tol)) or norm_alt < norm:
            x, norm = x_alt, norm_alt
    if norm > 1e-9:
        raise SolverError(f"no three-level solution for n={n}, nu={nu}", norm)
    # the square-root fold at r2 = r3 amplifies float noise to ~1e-8; snap to
    # exact coincidence when that loses nothing measurable in the moments
    if 0.0 <= x[1] - x[2] < 1e-6:
        mid = (1.0 - nu * x[0]) / (mu + 1.0)
        snapped = np.array([x[0], mid, mid])
        snap_norm = float(
            np.abs(_three_level_residual(snapped, nu, mu, c2, c3)).max()
        )
        if snap_norm <= max(norm, 1e-10):
            x, norm = snapped, snap_norm
    r1, r2, r3 = (float(v) for v in x)
    shape_tol = 1e-9
    if r2 < r3 - shape_tol or r1 < r2 - shape_tol or r3 < -shape_tol:
        raise DistributionError(
            f"nu={nu} infeasible: solved values ({r1:.6g}, {r2:.6g}, {r3:.6g}) "
            "violate the nonincreasing three-level shape"
        )
    r3 = max(r3, 0.0)
    r2 = max(r2, r3)
    r1 = max(r1, r2)
    return ProbabilityVector(_three_level_weights(r1, r2, r3, nu, n), normalize=True)


def sample_fixed_c2_batch(
    n: int, c2: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sample `size` simplex points with sum of squares c2, one per row.

    Draws a uniform simplex point, then slides it along the straight segment
    toward the uniform vector (when its sum of squares is too high) or toward
    the point mass at its own largest coordinate (too low); the sum of squares
    is monotone along both segments, so the matching blend solves a scalar
    quadratic per row.
    """
    if n < 2:
        raise DistributionError("n must be at least 2")
    lo = 1.0 / n
    if c2 < lo - 1e-12 or c2 >= 1.0:
        raise DistributionError(f"c2={c2!r} outside [1/n, 1) for n={n}")
    if c2 <= lo + 1e-15:
        return np.full((size, n), lo)

    e = rng.standard_exponential((size, n))
    q0 = e / e.sum(axis=1, keepdims=True)
    c0 = np.einsum("ij,ij->i", q0, q0)
    out = np.empty_like(q0)

    down = c0 > c2
    if np.any(down):
        # blend weight toward uniform: sum of squares is linear in (1-s)^2
        w = (c2 - lo) / (c0[down] - lo)
        s = 1.0 - np.sqrt(np.clip(w, 0.0, 1.0))
        out[down] = (1.0 - s)[:, None] * q0[down] + (s / n)[:, None]
    up = ~down
    if np.any(up):
        rows = q0[up]
        jmax = np.argmax(rows, axis=1)
        qm = rows[np.arange(rows.shape[0]), jmax]
        # (1-s)^2 c0 + 2 s (1-s) qm + s^2 = c2, upward parabola with one root in (0,1)
        a = 1.0 - 2.0 * qm + c0[up]
        b = 2.0 * (qm - c0[up])
        c = c0[up] - c2
        disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        s = np.where(a > 1e-300, (-b + disc) / (2.0 * a), -c / np.where(b == 0, 1.0, b))
        s = np.clip(s, 0.0, 1.0)
        blended = (1.0 - s)[:, None] * rows
        blended[np.arange(rows.shape[0]), jmax] += s
        out[up] = blended
    return out


def sample_fixed_c2(n: int, c2: float, rng: np.random.Generator) -> ProbabilityVector:
    """One random simplex point with the prescribed sum of squares."""
    return ProbabilityVector(sample_fixed_c2_batch(n, c2, rng, 1)[0], normalize=True)


def _whole(value, key: str) -> int:
    """value of field key as an int; a non-integral value or a bool is an
    error, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DistributionError(f"{key!r} must be a whole number, got {value!r}")


def from_descriptor(desc: dict) -> ProbabilityVector:
    """Build a vector from a JSON-style descriptor.

    Schema: {"family": "uniform"|"topheavy"|"three_level"|"explicit",
    "n": ..., "c2": ..., "c3": ..., "nu": ..., "weights": [...]}.
    """
    try:
        family = desc["family"]
    except (TypeError, KeyError):
        raise DistributionError("descriptor must be a mapping with a 'family' key")
    if family == "uniform":
        return uniform(_whole(desc["n"], "n"))
    if family == "topheavy":
        return topheavy(_whole(desc["n"], "n"), float(desc["c2"]))
    if family == "three_level":
        return three_level(
            _whole(desc["n"], "n"), float(desc["c2"]), float(desc["c3"]),
            _whole(desc["nu"], "nu"),
        )
    if family == "explicit":
        return ProbabilityVector(
            desc["weights"], normalize=bool(desc.get("normalize", False))
        )
    raise DistributionError(f"unknown distribution family {family!r}")
