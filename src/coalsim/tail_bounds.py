"""Exponential tail bounds for one allocation round and the tilted-measure
surface behind them: the two-parameter exponent, its stationary curve, and
the curvature facts that turn stationarity into Gaussian-type bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ProbabilityVector
from .dynamics import _weights, occupancy_proxy

__all__ = [
    "TiltPoint",
    "TiltSolveError",
    "tilt_exponent",
    "tilt_center",
    "solve_tilt",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "chernoff_lower_tail_log",
    "chernoff_upper_tail_log",
    "CurvaturePoint",
    "CurvatureReport",
    "curvature_report",
    "coalescence_time_lower_bound",
]

_RTOL = 1e-12  # a solve stands when |z h_z| <= _RTOL max(b, 1) and |r h_r| <= _RTOL k
_LOG_RANGE = 350.0  # past this |ln z| or |ln r|, b/z^2 or k/r^2 in _tilt_system may overflow
_FD_STEP = 2e-4  # curvature_report's difference step, as a fraction of k ...
_FD_END = 4e-3  # ... and at most this fraction of the distance to b = 0 or b = k
# Points closer than this fraction of k to b = 0 or b = k are skipped: there
# the step is so short that the solver's rounding swamps the differences
# (failures start near 2e-10 k on uniform, topheavy and three-level vectors).
_FD_MIN_GAP = 1e-9
_SLOPE_RTOL = 1e-4
_CURVATURE_SLACK = 1e-6


class TiltSolveError(ArithmeticError):
    """Stationary solve failed; carries the last iterate and residuals."""

    def __init__(self, b: float, z: float, r: float, res_z: float, res_r: float):
        super().__init__(
            f"no stationary point at b={b:.6g}; last (z, r)=({z:.6g}, {r:.6g}), "
            f"residuals ({res_z:.3e}, {res_r:.3e})"
        )
        self.b, self.z, self.r = b, z, r
        self.residual_z, self.residual_r = res_z, res_r


@dataclass(frozen=True)
class TiltPoint:
    """A solved point of the stationary system with its residuals."""

    b: float
    z: float
    r: float
    residual_z: float
    residual_r: float


def tilt_exponent(
    p: ProbabilityVector | np.ndarray, k: int, z: float, r: float, b: float
) -> float:
    """Value of the tilted exponent k ln(k/(rne)) - b ln z + sum ln(1 + z(e^{np_j r}-1)).

    Each product term is evaluated as a + ln(e^{-a} + z(1 - e^{-a})), a = np_j r:
    a sum of positive parts, so it keeps its precision for every z > 0 and
    stays finite for arbitrarily large a; vanishing weights contribute nothing.
    """
    if z <= 0.0 or r <= 0.0:
        raise ValueError("z and r must be positive")
    w = _weights(p)
    n = w.size
    a = n * r * w
    terms = a + np.log(np.exp(-a) + z * -np.expm1(-a))
    return float(k * math.log(k / (r * n * math.e)) - b * math.log(z) + terms.sum())


def tilt_center(p: ProbabilityVector | np.ndarray, k: int) -> float:
    """The next-count value at which the stationary system is solved by (1, k/n)."""
    return occupancy_proxy(p, k)


def _tilt_system(w: np.ndarray, k: int, z: float, r: float, b: float):
    """Gradient and Hessian entries of the exponent in (z, r).

    Parametrized through u = exp(-n p_j r) so every ratio stays bounded:
    denominators are u + z(1-u), between min(z, 1) and max(z, 1).
    """
    n = w.size
    a = n * r * w
    u = np.exp(-a)
    one_minus_u = -np.expm1(-a)
    den = u + z * one_minus_u
    den2 = den * den
    h_z = -b / z + float((one_minus_u / den).sum())
    h_r = -k / r + z * n * float((w / den).sum())
    h_zz = (b / z) / z - float((one_minus_u * one_minus_u / den2).sum())
    h_rr = (k / r) / r + z * (1.0 - z) * n * n * float((w * w * u / den2).sum())
    h_rz = n * float((w * u / den2).sum())
    return h_z, h_r, h_zz, h_rr, h_rz


def _root(fun, x: float, lo: float, hi: float):
    """Root of a rising fun on [lo, hi], where fun(x) = (f, f', ...): Newton
    steps, bisecting whenever one leaves the bracket.  Returns x and fun(x)."""
    x_new = min(max(x, lo), hi)
    for _ in range(200):  # a safety net: halving a bracket to 4 ulp takes fewer steps
        x = x_new
        val = fun(x)
        if val[0] == 0.0:
            break
        if val[0] < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - val[0] / val[1] if val[1] > 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x)):
            break
    return x, val


def _on_curve(lw: np.ndarray, cnt: np.ndarray, k: int, b: float, rho: float):
    """r h_r at ln r = rho on the inner curve z(r), its derivative in ln r, and
    ln z there, for positive weights grouped as cnt_j boxes with ln(n p_j) = lw_j."""
    t = math.log(b) - math.log(cnt.sum() - b)  # logit(b / n+)
    la = lw + rho
    a = np.exp(la)
    a_floor = np.maximum(a, 1e-300)
    m = a_floor / -np.expm1(-a_floor)  # a / (1 - e^{-a}), which tends to 1 as a -> 0
    L = a + la - np.log(m)  # ln(e^a - 1), increasing in a

    def z_equation(s):  # q = expit(s + L) and its derivative v = q(1 - q)
        e = np.exp(-np.maximum(s + L, -700.0))  # below -700, q underflows either way
        q = 1.0 / (1.0 + e)
        v = q * e * q
        return float(cnt @ q) - b, float(cnt @ v), q, v

    s_mid = t - float(cnt @ L) / cnt.sum()
    s, (_, _, q, v) = _root(z_equation, s_mid, t - L[-1], t - L[0])
    # d(r h_r)/d ln r = sum a m'(a) q plus the v-weighted spread of m: positive
    cv = cnt * v
    m_bar = float(cv @ m) / max(float(cv.sum()), 1e-300)
    slope = float(cnt @ (q * m * (1.0 - m * np.exp(-a)))) + float(cv @ (m - m_bar) ** 2)
    return float(cnt @ (m * q)) - k, slope, s


def solve_tilt(p: ProbabilityVector | np.ndarray, k: int, b: float) -> TiltPoint:
    """Solve the stationary system at next-count b as two nested 1-D roots.

    Only the n+ positive weights take part.  With a_j = n p_j r and
    L_j = ln(e^{a_j} - 1), the z-equation reads sum_j expit(ln z + L_j) = b,
    which rises strictly in ln z; its root z(r) lies in the closed-form
    bracket [logit(b/n+) - max L, logit(b/n+) - min L].  Along that curve
    r h_r = sum_j a_j q_j / (1 - e^{-a_j}) - k, with q_j = expit(ln z + L_j),
    rises strictly in r from b - k to infinity, so it has one root in ln r,
    bracketed by max a = (k - b)/b below and mean a = k/b above.  Both roots
    are safeguarded Newton (the outer one with the implicit dz/dr) falling
    back to bisection.  A solve stands when |z h_z| <= 1e-12 max(b, 1) and
    |r h_r| <= 1e-12 k.

    Raises ValueError for b <= 0, and TiltSolveError (with finite residuals)
    when b >= min(k, n+), where no stationary point exists, when z or r would
    leave the float range, or when the solved point misses the rule above.
    """
    w = _weights(p)
    n = w.size
    if not b > 0.0:
        raise ValueError("b must be positive")

    def unsolvable(z, r):  # with the residuals at the centre (1, k/n), always finite
        return TiltSolveError(b, z, r, *_tilt_system(w, k, 1.0, k / n, b)[:2])

    w_pos, counts = np.unique(w[w > 0.0], return_counts=True)
    lw, cnt = np.log(n * w_pos), counts.astype(float)  # ln a_j = lw_j + ln r, increasing
    if b >= min(k, cnt.sum()):
        raise unsolvable(1.0, k / n)
    rho_lo = math.log(k - b) - math.log(b) - lw[-1]
    rho_hi = math.log(k) + math.log(cnt.sum()) - math.log(b) - math.log(n)
    if rho_hi + lw[-1] > 300.0:
        # max a >= (k - b)/b > e^300/n+ at the root: ln z is far below -_LOG_RANGE
        raise unsolvable(0.0, k / n)
    rho, (_, _, s) = _root(lambda x: _on_curve(lw, cnt, k, b, x), math.log(k / n), rho_lo, rho_hi)
    if not (abs(s) <= _LOG_RANGE and abs(rho) <= _LOG_RANGE):
        raise unsolvable(math.exp(min(s, 709.0)), math.exp(min(rho, 709.0)))
    z, r = math.exp(s), math.exp(rho)
    h_z, h_r = _tilt_system(w, k, z, r, b)[:2]
    if abs(z * h_z) > _RTOL * max(b, 1.0) or abs(r * h_r) > _RTOL * k:
        raise TiltSolveError(b, z, r, h_z, h_r)
    return TiltPoint(b=b, z=z, r=r, residual_z=h_z, residual_r=h_r)


def _chernoff_exponent(p, k: int, b: float, upper: bool) -> float:
    center = tilt_center(p, k)
    gap = (b - center) if upper else (center - b)
    if gap < -1e-9:
        side = "above" if upper else "below"
        raise ValueError(f"b={b} is not {side} the proxy center {center:.6g}")
    gap = max(gap, 0.0)
    return math.log(3.0) + 0.5 * math.log(k) - gap * gap / (2.0 * k)


def chernoff_lower_tail_log(p, k: int, b: float) -> float:
    """Log of the lower-tail cap 3 sqrt(k) exp(-(center-b)^2 / 2k), b below center."""
    return _chernoff_exponent(p, k, b, upper=False)


def chernoff_upper_tail_log(p, k: int, b: float) -> float:
    """Log of the upper-tail cap 3 sqrt(k) exp(-(b-center)^2 / 2k), b above center."""
    return _chernoff_exponent(p, k, b, upper=True)


def chernoff_lower_tail(p, k: int, b: float) -> float:
    """Cap on P(next count < b); can exceed 1 (vacuous but valid)."""
    return math.exp(chernoff_lower_tail_log(p, k, b))


def chernoff_upper_tail(p, k: int, b: float) -> float:
    """Cap on P(next count > b); can exceed 1 (vacuous but valid)."""
    return math.exp(chernoff_upper_tail_log(p, k, b))


@dataclass(frozen=True)
class CurvaturePoint:
    """One solved grid point with its derivative and curvature diagnostics."""

    b: float
    z: float
    r: float
    h: float
    slope_analytic: float        # -ln z at the solved point
    slope_fd: float              # central difference of h
    curvature_fd: float          # second central difference of h
    hessian_det: float           # H_zz H_rr - H_rz^2 at the solved point
    slope_ok: bool
    curvature_ok: bool
    hessian_ok: bool


@dataclass(frozen=True)
class CurvatureReport:
    points: list[CurvaturePoint] = field(default_factory=list)
    skipped: list[tuple[float, str]] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return bool(self.points) and all(
            pt.slope_ok and pt.curvature_ok and pt.hessian_ok for pt in self.points
        )


def curvature_report(p: ProbabilityVector | np.ndarray, k: int, b_grid) -> CurvatureReport:
    """Check the exponent's slope, concavity, and Hessian sign on a b grid.

    At each solvable grid point: (i) the central difference of the solved
    exponent matches -ln z to 1e-4 relative to max(|ln z|, 0.01); (ii) the
    second central difference is at most -1/k + 1e-6; (iii) the Hessian
    determinant in (z, r) is positive.  Unsolvable points are skipped and
    reported, not fatal.  The difference step is 0.0002*k, cut to
    0.004*min(b, k - b) near the ends, where the exponent bends faster:
    small enough that truncation stays inside the slope tolerance at every
    scale tested.  Points within 1e-9*k of an end are skipped, since a step
    that short is below the solver's precision.
    """
    w = _weights(p)
    points: list[CurvaturePoint] = []
    skipped: list[tuple[float, str]] = []
    for b in b_grid:
        b = float(b)
        gap = min(b, k - b)
        if 0.0 <= gap < _FD_MIN_GAP * k:
            skipped.append((b, f"b within {_FD_MIN_GAP:g}*k of an end: difference step too short"))
            continue
        fd_step = min(_FD_STEP * k, _FD_END * gap)
        try:
            center, lo, hi = (solve_tilt(w, k, x) for x in (b, b - fd_step, b + fd_step))
        except (TiltSolveError, ValueError) as exc:
            skipped.append((b, str(exc)))
            continue
        h_mid, h_lo, h_hi = (tilt_exponent(w, k, pt.z, pt.r, pt.b) for pt in (center, lo, hi))
        slope_fd = (h_hi - h_lo) / (2.0 * fd_step)
        slope_an = -math.log(center.z)
        curv_fd = (h_hi - 2.0 * h_mid + h_lo) / (fd_step * fd_step)
        _, _, h_zz, h_rr, h_rz = _tilt_system(w, k, center.z, center.r, b)
        chi = h_zz * h_rr - h_rz * h_rz
        points.append(
            CurvaturePoint(
                b=b, z=center.z, r=center.r, h=h_mid,
                slope_analytic=slope_an,
                slope_fd=slope_fd,
                curvature_fd=curv_fd,
                hessian_det=chi,
                slope_ok=abs(slope_fd - slope_an) <= _SLOPE_RTOL * max(abs(slope_an), 1e-2),
                curvature_ok=curv_fd <= -1.0 / k + _CURVATURE_SLACK,
                hessian_ok=chi > 0.0,
            )
        )
    return CurvatureReport(points, skipped)


def coalescence_time_lower_bound(c2: float, c3: float, m: int) -> float:
    """Closed-form floor 2/c2 (1 - 1/m - (m-1)(m-2) c3 / (12 c2)) on the
    expected coalescence time from m balls."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 2.0 / c2 * (1.0 - 1.0 / m - (m - 1) * (m - 2) / 12.0 * (c3 / c2))
