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

    Each product term is evaluated as np_j r + log1p((z-1)(1 - e^{-np_j r})),
    which stays finite for arbitrarily large np_j r; vanishing weights
    contribute nothing.
    """
    if z <= 0.0 or r <= 0.0:
        raise ValueError("z and r must be positive")
    w = _weights(p)
    n = w.size
    a = n * r * w
    terms = a + np.log1p((z - 1.0) * (-np.expm1(-a)))
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
    h_zz = b / (z * z) - float((one_minus_u * one_minus_u / den2).sum())
    h_rr = k / (r * r) + z * (1.0 - z) * n * n * float((w * w * u / den2).sum())
    h_rz = n * float((w * u / den2).sum())
    return h_z, h_r, h_zz, h_rr, h_rz


def _newton_tilt(
    w: np.ndarray, k: int, b: float, z: float, r: float, tol: float, max_iter: int = 40
):
    """Damped Newton in (ln z, ln r); multiplicative steps keep both positive
    and stay conditioned where the curve runs off to large z."""
    h_z, h_r, h_zz, h_rr, h_rz = _tilt_system(w, k, z, r, b)
    norm = max(abs(h_z), abs(h_r))
    for _ in range(max_iter):
        if norm <= tol:
            return z, r, h_z, h_r
        # Jacobian of (H_z, H_r) in the log variables
        j11, j12 = z * h_zz, r * h_rz
        j21, j22 = z * h_rz, r * h_rr
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            break
        d1 = -(j22 * h_z - j12 * h_r) / det
        d2 = -(j11 * h_r - j21 * h_z) / det
        cap = max(abs(d1), abs(d2))
        if cap > 2.0:
            d1, d2 = d1 * 2.0 / cap, d2 * 2.0 / cap
        lam, accepted = 1.0, False
        while lam > 2e-4:  # a sound step helps within a few halvings or never
            zn, rn = z * math.exp(lam * d1), r * math.exp(lam * d2)
            t_z, t_r, t_zz, t_rr, t_rz = _tilt_system(w, k, zn, rn, b)
            t_norm = max(abs(t_z), abs(t_r))
            if t_norm < norm:
                z, r = zn, rn
                h_z, h_r, h_zz, h_rr, h_rz = t_z, t_r, t_zz, t_rr, t_rz
                norm = t_norm
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
    if norm <= tol:
        return z, r, h_z, h_r
    return None, (z, r, h_z, h_r)


def solve_tilt(
    p: ProbabilityVector | np.ndarray,
    k: int,
    b: float,
    *,
    continuation_step: float | None = None,
    tol: float = 1e-11,
) -> TiltPoint:
    """Solve the stationary system at next-count b by continuation from its center.

    Starts at the closed-form point (z, r) = (1, k/n) where the system is
    exactly stationary, then walks b in small steps toward the target with a
    damped Newton at each stop.  Raises TiltSolveError outside the solvable
    range (far from the center this is expected, not exceptional).
    """
    w = _weights(p)
    n = w.size
    if b <= 0.0:
        raise ValueError("b must be positive")
    b_star = float(n - np.exp(-k * w).sum())
    step = continuation_step if continuation_step is not None else max(k / 50.0, 1e-3)
    z, r = 1.0, k / n
    h_z, h_r = _tilt_system(w, k, z, r, b_star)[:2]
    b_cur = b_star
    direction = 1.0 if b >= b_star else -1.0
    min_step = step / 65536.0
    stride = step  # shrinks on failure, recovers slowly after success
    outer = 0
    while b_cur != b:
        outer += 1
        if outer > 5000:
            raise TiltSolveError(b_cur, z, r, h_z, h_r)
        while True:
            if abs(b - b_cur) <= stride:
                b_next = b
            else:
                b_next = b_cur + direction * stride
            solved = _newton_tilt(w, k, b_next, z, r, tol)
            if solved[0] is not None:
                z, r, h_z, h_r = solved
                b_cur = b_next
                stride = min(stride * 1.4, step)
                if not 1e-6 < z < 1e6:
                    raise TiltSolveError(b_cur, z, r, h_z, h_r)
                break
            stride *= 0.25
            hopeless = stride < step / 1024.0 and not 1e-3 < z < 1e3
            if hopeless or stride < min_step or b_cur + direction * stride == b_cur:
                z_last, r_last, rz, rr = solved[1]
                raise TiltSolveError(b_next, z_last, r_last, rz, rr)
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


def curvature_report(
    p: ProbabilityVector | np.ndarray,
    k: int,
    b_grid,
    *,
    fd_step: float | None = None,
    slope_rtol: float = 1e-4,
    curvature_slack: float = 1e-6,
) -> CurvatureReport:
    """Check the exponent's slope, concavity, and Hessian sign on a b grid.

    At each solvable grid point: (i) the central difference of the solved
    exponent matches -ln z to slope_rtol (relative to max(|ln z|, 0.01));
    (ii) the second central difference is at most -1/k + curvature_slack;
    (iii) the Hessian determinant in (z, r) is positive.  Unsolvable points
    are skipped and reported, not fatal.  The difference step defaults to
    0.0002*k, small enough that truncation stays inside the slope tolerance
    at every scale tested.
    """
    if fd_step is None:
        fd_step = 2e-4 * k
    w = _weights(p)
    points: list[CurvaturePoint] = []
    skipped: list[tuple[float, str]] = []
    for b in b_grid:
        b = float(b)
        try:
            center = solve_tilt(w, k, b)
            lo = solve_tilt(w, k, b - fd_step)
            hi = solve_tilt(w, k, b + fd_step)
        except (TiltSolveError, ValueError) as exc:
            skipped.append((b, str(exc)))
            continue
        h_mid = tilt_exponent(w, k, center.z, center.r, b)
        h_lo = tilt_exponent(w, k, lo.z, lo.r, b - fd_step)
        h_hi = tilt_exponent(w, k, hi.z, hi.r, b + fd_step)
        slope_fd = (h_hi - h_lo) / (2.0 * fd_step)
        slope_an = -math.log(center.z)
        curv_fd = (h_hi - 2.0 * h_mid + h_lo) / (fd_step * fd_step)
        _, _, h_zz, h_rr, h_rz = _tilt_system(w, k, center.z, center.r, b)
        chi = h_zz * h_rr - h_rz * h_rz
        points.append(
            CurvaturePoint(
                b=b,
                z=center.z,
                r=center.r,
                h=h_mid,
                slope_analytic=slope_an,
                slope_fd=slope_fd,
                curvature_fd=curv_fd,
                hessian_det=chi,
                slope_ok=abs(slope_fd - slope_an)
                <= slope_rtol * max(abs(slope_an), 1e-2),
                curvature_ok=curv_fd <= -1.0 / k + curvature_slack,
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
