"""Exponential tail bounds for one allocation round and the tilted-measure
surface behind them: the two-parameter exponent, its stationary curve, and
the curvature facts that turn stationarity into Gaussian-type bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ProbabilityVector
from .dynamics import occupancy_proxy

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


def tilt_exponent(p: ProbabilityVector, k: int, z: float, r: float, b: float) -> float:
    """Value of the tilted exponent k ln(k/(rne)) - b ln z + sum ln(1 + z(e^{np_j r}-1)).

    Each product term is evaluated as a + ln(e^{-a} + z(1 - e^{-a})), a = np_j r:
    a sum of positive parts, so it keeps its precision for every z > 0 and
    stays finite for arbitrarily large a; vanishing weights contribute nothing.
    """
    if z <= 0.0 or r <= 0.0:
        raise ValueError("z and r must be positive")
    return float(_tilt_system(*_groups(p, k), k, z, r, b)[5])


def tilt_center(p: ProbabilityVector, k: int) -> float:
    """The next-count value at which the stationary system is solved by (1, k/n)."""
    return occupancy_proxy(p, k)


def _total(x, cnt):
    """sum_j cnt_j x_j over the last axis.  Unlike a matrix product's, each
    lane's sum does not depend on the lanes batched with it, so a grid solves
    every target as a one-point call does."""
    return (x * cnt).sum(-1)


def _groups(p: ProbabilityVector, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The positive levels of p, increasing, their box counts and n (zero weights add
    nothing to any tilt sum), for a ball count k >= 1: else ValueError."""
    if not k >= 1:  # a NaN k fails too
        raise ValueError(f"need a ball count k >= 1, got k={k}")
    w, cnt = p.levels
    pos = int(w[0] == 0.0)  # zero is the least level when present
    return w[pos:], cnt[pos:], p.n


def _tilt_system(w, cnt, n: int, k: int, z, r, b):
    """Gradient and Hessian entries of the exponent in (z, r), and its value,
    at points z, r, b (broadcast against each other), for weights w held by
    cnt boxes each of n.

    Parametrized through u = exp(-n p_j r) so every ratio stays bounded:
    denominators are u + z(1-u), between min(z, 1) and max(z, 1).
    """
    z, r, b = (np.asarray(x, dtype=float) for x in (z, r, b))
    a = n * r[..., None] * w
    u = np.exp(-a)
    one_minus_u = -np.expm1(-a)
    den = u + z[..., None] * one_minus_u
    den2 = den * den
    with np.errstate(over="ignore"):  # b/z^2 may pass the float range: +inf
        h_zz = (b / z) / z - _total(one_minus_u * one_minus_u / den2, cnt)
    h_z = -b / z + _total(one_minus_u / den, cnt)
    h_r = -k / r + z * n * _total(w / den, cnt)
    h_rr = (k / r) / r + z * (1.0 - z) * n * n * _total(w * w * u / den2, cnt)
    h_rz = n * _total(w * u / den2, cnt)
    h = k * np.log(k / (r * n * math.e)) - b * np.log(z) + _total(a + np.log(den), cnt)
    return h_z, h_r, h_zz, h_rr, h_rz, h


def _root(fun, x, lo, hi):
    """Roots of rising functions, one per lane, where fun(x, i) = (f, f', ...)
    at x for the lanes i.  Each lane takes Newton steps, bisecting whenever one
    leaves its bracket [lo, hi], and stops when f = 0 or when its Newton step
    or the step it takes is at most 1e-15 max(1, |x|); only live lanes are
    evaluated.  Returns x and fun(x)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)  # one entry per lane
    x_new = np.minimum(np.maximum(x, lo), hi)
    x = x_new.copy()
    live = np.arange(x.size)
    vals = None
    for _ in range(200):  # a safety net: halving a bracket to 4 ulp takes fewer steps
        xl = x[live] = x_new[live]
        val = fun(xl, live)
        if vals is None:
            vals = [np.empty((x.size,) + np.shape(v)[1:]) for v in val]
        for out, v in zip(vals, val):
            out[live] = v
        f, df = val[0], val[1]
        below = f < 0.0
        lo[live[below]] = xl[below]
        hi[live[~below]] = xl[~below]
        rising = df > 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite step bisects
            newton = np.where(rising, xl - f / np.where(rising, df, 1.0), math.nan)
        lo_l, hi_l = lo[live], hi[live]
        step = np.where((lo_l < newton) & (newton < hi_l), newton, 0.5 * (lo_l + hi_l))
        x_new[live] = step
        # a Newton step that rounds back onto x has converged: bisecting it
        # instead would throw away every digit the steps had gained
        tol = 1e-15 * np.maximum(1.0, np.abs(xl))
        done = (f == 0.0) | (np.abs(newton - xl) <= tol) | (np.abs(step - xl) <= tol)
        live = live[~done]
        if live.size == 0:
            break
    return x, vals


def _on_curve(lw: np.ndarray, cnt: np.ndarray, k: int, b: np.ndarray, rho: np.ndarray):
    """Arrays of r h_r at ln r = rho on the inner curve z(r), its derivative in
    ln r, and ln z there, for positive weights grouped as cnt_j boxes with
    ln(n p_j) = lw_j.  b and rho are 1-D of one length; each (b, rho) pair is
    one lane of the inner root."""
    n_pos = cnt.sum()
    t = np.log(b) - np.log(n_pos - b)  # logit(b / n+)
    la = lw + rho[:, None]
    a = np.exp(la)
    a_floor = np.maximum(a, 1e-300)
    m = a_floor / -np.expm1(-a_floor)  # a / (1 - e^{-a}), which tends to 1 as a -> 0
    L = a + la - np.log(m)  # ln(e^a - 1), increasing in a

    def z_equation(s, i):  # q = expit(s + L) and its derivative v = q(1 - q)
        e = np.exp(-np.maximum(s[:, None] + L[i], -700.0))  # below -700, q underflows either way
        q = 1.0 / (1.0 + e)
        v = q * e * q
        return _total(q, cnt) - b[i], _total(v, cnt), q, v

    s_mid = t - _total(L, cnt) / n_pos
    s, (_, _, q, v) = _root(z_equation, s_mid, t - L[:, -1], t - L[:, 0])
    # d(r h_r)/d ln r = sum a m'(a) q plus the v-weighted spread of m: positive
    cv = cnt * v
    m_bar = (cv * m).sum(-1) / np.maximum(cv.sum(-1), 1e-300)
    slope = _total(q * m * (1.0 - m * np.exp(-a)), cnt) + (cv * (m - m_bar[:, None]) ** 2).sum(-1)
    return _total(m * q, cnt) - k, slope, s


def _solve_tilts(w_pos: np.ndarray, cnt: np.ndarray, n: int, k: int, b) -> list:
    """solve_tilt at every target of b together, for the weights _groups
    gives: per target its TiltPoint, or the ValueError or TiltSolveError that
    solve_tilt raises there.  The outer roots of all solvable targets are the
    lanes of one _root."""
    b = np.asarray(b, dtype=float)
    lw, n_pos = np.log(n * w_pos), cnt.sum()  # ln a_j = lw_j + ln r, increasing
    with np.errstate(divide="ignore", invalid="ignore"):  # b outside (0, k) is refused below
        rho_lo = np.log(k - b) - np.log(b) - lw[-1]
        rho_hi = math.log(k) + math.log(n_pos) - np.log(b) - math.log(n)
    # Past rho_hi + max lw = 300, max a >= (k - b)/b > e^300/n+ at the root, so
    # ln z is far below -_LOG_RANGE: such a target reports z = 0.
    lanes = np.flatnonzero((b > 0.0) & (b < min(k, n_pos)) & (rho_hi + lw[-1] <= 300.0))

    def curve(x, i):  # r h_r along the inner curve for the lanes i
        return _on_curve(lw, cnt, k, b[lanes[i]], x)

    rho, (_, _, s) = _root(curve, math.log(k / n), rho_lo[lanes], rho_hi[lanes])
    z, r = np.where(b < min(k, n_pos), 0.0, 1.0), np.full(b.size, k / n)
    z[lanes], r[lanes] = np.exp(np.minimum(s, 709.0)), np.exp(np.minimum(rho, 709.0))
    fit = np.zeros(b.size, dtype=bool)
    fit[lanes] = (np.abs(s) <= _LOG_RANGE) & (np.abs(rho) <= _LOG_RANGE)
    # the residuals at the solved point where it is in range, else at the
    # centre (1, k/n), where they are always finite
    res = np.empty((2, b.size))
    res[:, fit] = _tilt_system(w_pos, cnt, n, k, z[fit], r[fit], b[fit])[:2]
    if not fit.all():
        with np.errstate(invalid="ignore"):  # the exponent, unread, is NaN at b = +-inf
            centre = _tilt_system(w_pos, cnt, n, k, 1.0, k / n, b[~fit])
            res[:, ~fit] = np.broadcast_arrays(*centre[:2])
    out: list = []
    for bi, zi, ri, res_z, res_r, ok in zip(*np.vstack((b, z, r, res)).tolist(), fit):
        if not math.isfinite(bi):
            out.append(ValueError("b must be finite and positive"))
        elif not bi > 0.0:
            out.append(ValueError("b must be positive"))
        elif ok and abs(zi * res_z) <= _RTOL * max(bi, 1.0) and abs(ri * res_r) <= _RTOL * k:
            out.append(TiltPoint(bi, zi, ri, res_z, res_r))
        else:
            out.append(TiltSolveError(bi, zi, ri, res_z, res_r))
    return out


def solve_tilt(p: ProbabilityVector, k: int, b: float) -> TiltPoint:
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

    Raises ValueError for k < 1, b <= 0 or a non-finite b, and TiltSolveError
    (with finite residuals) when b >= min(k, n+), where no stationary point
    exists, when z or r would leave the float range, or when the solved point
    misses the rule above.
    """
    (pt,) = _solve_tilts(*_groups(p, k), k, [b])
    if isinstance(pt, Exception):
        raise pt
    return pt


def _chernoff_exponent(p, k: int, b: float, upper: bool) -> float:
    if not k >= 1:  # a NaN k fails too
        raise ValueError(f"need a ball count k >= 1, got k={k}")
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


def curvature_report(p: ProbabilityVector, k: int, b_grid) -> CurvatureReport:
    """Check the exponent's slope, concavity, and Hessian sign on a b grid.

    At each solvable grid point: (i) the central difference of the solved
    exponent matches -ln z to 1e-4 relative to max(|ln z|, 0.01); (ii) the
    second central difference is at most -1/k + 1e-6; (iii) the Hessian
    determinant in (z, r) is positive.  Unsolvable points are skipped and
    reported, not fatal; a k below 1 raises ValueError.  The difference
    step is 0.0002*k, cut to 0.004*min(b, k - b) near the ends, where the
    exponent bends faster: small enough that truncation stays inside the
    slope tolerance at every scale tested.  Points within 1e-9*k of an end
    are skipped, since a step that short is below the solver's precision.
    The targets b and b +- step of every other point are solved as one
    batch, as are the exponent and Hessian over the positive levels.
    """
    w_pos, cnt, n = _groups(p, k)
    grid = [float(b) for b in b_grid]
    gaps = [min(b, k - b) for b in grid]
    at_end = [0.0 <= gap < _FD_MIN_GAP * k for gap in gaps]
    steps = [min(_FD_STEP * k, _FD_END * gap) for gap in gaps]
    targets = [x for b, h, end in zip(grid, steps, at_end) if not end for x in (b, b - h, b + h)]
    solved = iter(_solve_tilts(w_pos, cnt, n, k, targets))
    skipped: list[tuple[float, str]] = []
    kept, fd_step = [], []  # the solved points of every kept trio, in order
    for b, h, end in zip(grid, steps, at_end):
        if end:
            skipped.append((b, f"b within {_FD_MIN_GAP:g}*k of an end: difference step too short"))
            continue
        trio = [next(solved) for _ in range(3)]  # at b, b - h and b + h
        failed = next((pt for pt in trio if isinstance(pt, Exception)), None)
        if failed is not None:
            skipped.append((b, str(failed)))
            continue
        kept += trio
        fd_step.append(h)
    z, r, b3 = (np.reshape([getattr(pt, f) for pt in kept], (-1, 3)) for f in "zrb")
    # columns b, b - step and b + step
    _, _, h_zz, h_rr, h_rz, h = _tilt_system(w_pos, cnt, n, k, z, r, b3)
    fd_step = np.array(fd_step)
    slope_fd = (h[:, 2] - h[:, 1]) / (2.0 * fd_step)
    slope_an = -np.log(z[:, 0])
    curv_fd = (h[:, 2] - 2.0 * h[:, 0] + h[:, 1]) / (fd_step * fd_step)
    chi = h_zz[:, 0] * h_rr[:, 0] - h_rz[:, 0] * h_rz[:, 0]
    slope_ok = np.abs(slope_fd - slope_an) <= _SLOPE_RTOL * np.maximum(np.abs(slope_an), 1e-2)
    columns = (b3[:, 0], z[:, 0], r[:, 0], h[:, 0], slope_an, slope_fd, curv_fd, chi,
               slope_ok, curv_fd <= -1.0 / k + _CURVATURE_SLACK, chi > 0.0)
    points = [CurvaturePoint(*row) for row in zip(*(c.tolist() for c in columns))]
    return CurvatureReport(points, skipped)


def coalescence_time_lower_bound(c2: float, c3: float, m: int) -> float:
    """Closed-form floor 2/c2 (1 - 1/m - (m-1)(m-2) c3 / (12 c2)) on the
    expected coalescence time from m balls."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (0.0 < c2 <= 1.0 and 0.0 <= c3 < math.inf):
        raise ValueError(f"need 0 < c2 <= 1 and a finite c3 >= 0, got c2={c2}, c3={c3}")
    return 2.0 / c2 * (1.0 - 1.0 / m - (m - 1) * (m - 2) / 12.0 * (c3 / c2))
