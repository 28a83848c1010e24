"""Probability vectors over boxes: validated construction, power-sum moments,
and the extremal two- and three-level families."""

from __future__ import annotations

import math
import operator
import sys
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

    Stored order is preserved; use :meth:`sorted_desc` for a nonincreasing copy.
    :attr:`levels`, the distinct weights and their box counts, is found once at
    construction and read by every layer; :meth:`grouped` lists its positive
    levels.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("_w", "_levels", "__weakref__")

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
        self._w, self._levels = w, np.unique(w, return_counts=True)
        for array in (w, *self._levels):  # shared by every reader, so read-only
            array.setflags(write=False)

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

    @property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """np.unique(weights, return_counts=True), read-only: zero comes first when present."""
        return self._levels

    def grouped(self) -> list[tuple[float, int]]:
        """(value, multiplicity) pairs of the positive levels, largest value first."""
        values, counts = self._levels
        return [(float(v), int(c)) for v, c in zip(values[::-1], counts[::-1]) if v > 0.0]

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


def _two_level(heavy: int, light: int, s: float, q: float) -> tuple[float, float]:
    """(top, bottom) of the vector with `heavy` entries top and `light` entries
    bottom, sum s and sum of squares q, top >= bottom; a slightly negative
    variance from rounding counts as zero.  The counts may be integer arrays,
    one shape per entry; scalars keep to math, which is faster on one shape."""
    m = heavy + light
    radicand = light * (q * m - s * s) / heavy
    if isinstance(radicand, np.ndarray):
        top = (s + np.sqrt(np.maximum(radicand, 0.0))) / m
    else:
        top = (s + math.sqrt(max(radicand, 0.0))) / m
    return top, (s - heavy * top) / light


def topheavy(n: int, c2: float) -> ProbabilityVector:
    """Two-valued vector with a single large entry and the requested sum of squares.

    The large entry is (1 + sqrt((n-1)(c2*n - 1)))/n and the remaining n-1
    entries share the leftover mass equally.  c2 = 1/n gives the uniform
    vector, c2 = 1 the point mass.
    """
    if n < 2:
        raise DistributionError("n must be at least 2")
    lo = 1.0 / n
    if c2 < lo * (1.0 - 1e-12) or c2 > 1.0 + 1e-12:
        raise DistributionError(f"c2={c2!r} outside [1/n, 1] for n={n}")
    c2 = min(max(c2, lo), 1.0)
    big, small = _two_level(1, n - 1, 1.0, c2)
    w = np.full(n, max(small, 0.0))
    w[0] = big
    return ProbabilityVector(w, normalize=True)


def three_level(n: int, c2: float, c3: float, nu: int) -> ProbabilityVector:
    """Vector with values (r1 x nu, r2 x 1, r3 x (n-nu-1)) matching (c2, c3),
    r1 >= r2 >= r3 >= 0.

    With the sum fixed at 1 and the sum of squares at c2, the middle value r2
    pins (r1, r3) as a two-level vector with sum 1 - r2 and sum of squares
    c2 - r2^2, and c3 falls strictly in r2 (dc3/dr2 = -3(r1 - r2)(r2 - r3)).
    Its range runs from the end r2 = r3 (nu heavy, n - nu light) down to the
    end r2 = r1 (nu + 1 heavy), or r3 = 0 (nu heavy, one light) when that
    end's light value would be negative.  A c3 within 1e-12 relative of an
    end returns that end exactly; inside the range r2 is bisected until the
    bracket stops shrinking.

    Raises DistributionError when nu cannot carry (c2, c3): the r2 = r3 end
    already has r3 < 0, or c3 lies outside the range by more than 1e-12
    relative.  SolverError is a safety net for a returned vector missing the
    sum, c2 or c3 by more than 1e-12 relative.
    """
    if n < 3:
        raise DistributionError("three-level vectors need n >= 3")
    if not 1 <= nu <= n - 2:
        raise DistributionError(f"nu={nu} outside [1, n-2] for n={n}")
    if c2 < (1.0 - 1e-12) / n or c2 > 1.0 + 1e-12:
        raise DistributionError(f"c2={c2!r} outside [1/n, 1] for n={n}")
    if c3 < c2 * c2 - 1e-12 or c3 > c2**1.5 + 1e-12:
        raise DistributionError(f"c3={c3!r} outside [c2^2, c2^(3/2)]")
    mu = n - nu - 1
    tol = 1e-12

    def levels(r2: float) -> tuple[float, float, float]:
        r1, r3 = _two_level(nu, mu, 1.0 - r2, c2 - r2 * r2)
        return r1, r2, r3

    def cubic(r: tuple[float, float, float]) -> float:
        return nu * r[0] ** 3 + r[1] ** 3 + mu * r[2] ** 3

    top, bottom = _two_level(nu, mu + 1, 1.0, c2)
    if (mu + 1) * bottom < -tol:  # light mass below 0 beyond rounding
        raise DistributionError(
            f"nu={nu} infeasible: {nu} equal top values need c2 <= {1.0 / nu:.6g}"
        )
    first = (top, bottom, bottom)  # r2 = r3: largest c3
    top, bottom = _two_level(nu + 1, mu, 1.0, c2)
    # r2 = r1, or r3 = 0 where that end would need r3 < 0: smallest c3
    last = (top, top, bottom) if bottom >= 0.0 else (*_two_level(nu, 1, 1.0, c2), 0.0)
    c3_first, c3_last = cubic(first), cubic(last)
    if abs(c3 - c3_first) <= tol * c3:
        r = first
    elif abs(c3 - c3_last) <= tol * c3:
        r = last
    elif c3_last < c3 < c3_first:
        lo, hi = first[1], last[1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if cubic(levels(mid)) > c3:
                lo = mid
            else:
                hi = mid
        r = levels(lo)
    else:
        raise DistributionError(
            f"nu={nu} infeasible: c3={c3!r} outside [{c3_last:.17g}, {c3_first:.17g}], "
            f"the range of three-level vectors with n={n}, c2={c2!r}"
        )
    # rounding can leave a fold an ulp out of order
    r3 = max(r[2], 0.0)
    r2 = max(r[1], r3)
    w = np.repeat((max(r[0], r2), r2, r3), (nu, 1, mu))
    p = ProbabilityVector(w, normalize=True)
    m = p.moments()
    residual = max(abs(w.sum() - 1.0), abs(m.c2 - c2) / c2, abs(m.c3 - c3) / c3)
    if residual > tol:
        raise SolverError(f"three-level solve for n={n}, nu={nu} missed (c2, c3)", residual)
    return p


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
    if c2 < lo * (1.0 - 1e-12) or c2 >= 1.0:
        raise DistributionError(f"c2={c2!r} outside [1/n, 1) for n={n}")
    if c2 <= lo * (1.0 + 1e-12):
        return np.full((size, n), lo)

    q = rng.standard_exponential((size, n))
    q /= q.sum(axis=1, keepdims=True)
    c0 = np.einsum("ij,ij->i", q, q)
    down = c0 > c2
    up = np.flatnonzero(~down)
    s = np.empty(size)  # each row's blend weight
    # toward uniform: sum of squares is linear in (1-s)^2
    s[down] = 1.0 - np.sqrt(np.clip((c2 - lo) / (c0[down] - lo), 0.0, 1.0))
    jmax = q.argmax(axis=1)[up]
    qm, cu = q[up, jmax], c0[up]
    # toward the point mass at jmax: (1-s)^2 c0 + 2 s (1-s) qm + s^2 = c2,
    # an upward parabola with one root in (0,1)
    a = 1.0 - 2.0 * qm + cu
    b = 2.0 * (qm - cu)
    c = cu - c2
    disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    s_up = np.where(a > 1e-300, (-b + disc) / (2.0 * a), -c / np.where(b == 0, 1.0, b))
    s[up] = np.clip(s_up, 0.0, 1.0)
    q *= (1.0 - s)[:, None]
    q += np.where(down, s / n, 0.0)[:, None]
    q[up, jmax] += s[up]
    return q


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


def _is_finite(value) -> bool:
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _finite(value, key: str) -> float:
    """value of field key as a float; it must be a finite, non-bool number."""
    if _is_finite(value):
        return float(value)
    raise DistributionError(f"{key!r} must be a finite number, got {value!r}")


def _finite_numbers(value, key: str) -> list[float]:
    """value of field key as floats; it must be a list of finite, non-bool numbers."""
    if isinstance(value, list) and all(_is_finite(v) for v in value):
        return [float(v) for v in value]
    raise DistributionError(f"{key!r} must be a list of finite numbers, got {value!r}")


def _bool(value, key: str) -> bool:
    """value of field key; a string such as "false" or a number is an error."""
    if not isinstance(value, bool):
        raise DistributionError(f"{key!r} must be true or false, got {value!r}")
    return value


# Each family's builder and the keys it reads, with their parsers; every key
# is required but "normalize", and a descriptor may give no other.
_FAMILIES = {
    "uniform": (uniform, {"n": _whole}),
    "topheavy": (topheavy, {"n": _whole, "c2": _finite}),
    "three_level": (three_level, {"n": _whole, "c2": _finite, "c3": _finite, "nu": _whole}),
    "explicit": (ProbabilityVector, {"weights": _finite_numbers, "normalize": _bool}),
}


def from_descriptor(desc: dict) -> ProbabilityVector:
    """Build a vector from a JSON-style descriptor.

    Schema: {"family": "uniform"|"topheavy"|"three_level"|"explicit",
    "n": ..., "c2": ..., "c3": ..., "nu": ..., "weights": [...],
    "normalize": true|false}; a key its family lacks or does not read is an error.
    """
    try:
        family = desc["family"]
    except (TypeError, KeyError):
        raise DistributionError("descriptor must be a mapping with a 'family' key")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise DistributionError(f"unknown distribution family {family!r}")
    build, keys = _FAMILIES[family]
    for key in desc:
        if key != "family" and key not in keys:
            raise DistributionError(f"unknown key {key!r} for family {family!r}; expected {[*keys]}")
    missing = [key for key in keys if key not in desc and key != "normalize"]
    if missing:
        raise DistributionError(f"distribution descriptor needs {missing[0]!r}")
    return build(**{key: parse(desc[key], key) for key, parse in keys.items() if key in desc})
