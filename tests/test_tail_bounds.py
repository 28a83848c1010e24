import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalsim.distributions import ProbabilityVector, from_descriptor, topheavy, uniform
from coalsim.dynamics import occupancy_proxy
from coalsim.exact_chain import TriangularKernel, expected_coalescence_times, transition_row
from coalsim.tail_bounds import (
    TiltSolveError,
    chernoff_lower_tail,
    chernoff_lower_tail_log,
    chernoff_upper_tail,
    chernoff_upper_tail_log,
    coalescence_time_lower_bound,
    curvature_report,
    solve_tilt,
    tilt_center,
    tilt_exponent,
)
from coalsim.tail_bounds import TiltPoint, _groups, _on_curve, _root, _solve_tilts, _tilt_system


def random_vector(rng, n):
    return ProbabilityVector(rng.dirichlet(np.ones(n)), normalize=True)


class TestTiltExponent:
    def test_zero_at_closed_form_point(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            p = random_vector(rng, n)
            k = int(rng.integers(1, n + 1))
            b = tilt_center(p, k)
            assert abs(tilt_exponent(p, k, 1.0, k / n, b)) <= 1e-9

    def test_uniform_identity_for_all_k(self):
        p = uniform(12)
        for k in range(1, 13):
            assert abs(tilt_exponent(p, k, 1.0, k / 12.0, 5.0)) <= 1e-9

    def test_flat_in_b_at_unit_tilt(self):
        # the b-derivative is -ln z, which vanishes at z = 1
        p = topheavy(10, 0.3)
        k = 6
        b = tilt_center(p, k)
        base = tilt_exponent(p, k, 1.0, k / 10.0, b)
        for delta in (-0.5, 0.3, 1.0):
            assert tilt_exponent(p, k, 1.0, k / 10.0, b + delta) == pytest.approx(
                base, abs=1e-12
            )

    def test_extreme_exponent_guarded(self):
        # weights * n * r far past the overflow point of exp
        p = ProbabilityVector([0.9, 0.1])
        val = tilt_exponent(p, 2, 1.5, 500.0, 1.5)
        assert math.isfinite(val)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            tilt_exponent(uniform(3), 2, 0.0, 0.5, 1.0)

    @pytest.mark.parametrize("k", [0, -3, math.nan])
    def test_ball_count_validation(self, k):
        with pytest.raises(ValueError, match="ball count k >= 1"):
            tilt_exponent(uniform(20), k, 1.0, 1.0, 1.0)


class TestSolveTilt:
    def test_center_is_closed_form(self):
        p = uniform(20)
        k = 10
        pt = solve_tilt(p, k, tilt_center(p, k))
        assert pt.z == pytest.approx(1.0, abs=1e-10)
        assert pt.r == pytest.approx(0.5, abs=1e-10)
        assert abs(pt.residual_z) <= 1e-9
        assert abs(pt.residual_r) <= 1e-9

    def test_tilt_monotone_in_target(self):
        p = uniform(20)
        k = 10
        center = tilt_center(p, k)
        bs = np.linspace(center - 3.0, center + 2.0, 11)
        zs = [solve_tilt(p, k, float(b)).z for b in bs]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        for b, z in zip(bs, zs):
            assert (z < 1.0) == (b < center) or abs(b - center) < 1e-9

    def test_exponent_peaks_at_center(self):
        p = topheavy(20, 0.1)
        k = 10
        center = tilt_center(p, k)
        values = {}
        for b in np.linspace(center - 2.0, center + 2.0, 9):
            pt = solve_tilt(p, k, float(b))
            values[float(b)] = tilt_exponent(p, k, pt.z, pt.r, float(b))
        assert max(values.values()) <= 1e-9
        assert values[min(values, key=lambda b: abs(b - center))] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_unreachable_target_raises_with_residuals(self):
        with pytest.raises(TiltSolveError) as err:
            solve_tilt(uniform(20), 10, 25.0)
        assert math.isfinite(err.value.residual_z)
        assert math.isfinite(err.value.residual_r)

    @pytest.mark.parametrize(
        "n, k, b", [(1000, 500, 50.0), (1000, 500, 499.0), (1000, 500, 499.9), (20, 10, 1.0)]
    )
    def test_far_targets_solve(self, n, k, b):
        # far from the centre: b near k, where z is large, and small b, where z is tiny
        p = uniform(n)
        pt = solve_tilt(p, k, b)
        assert_within_rule(pt, k)
        assert tilt_exponent(p, k, pt.z, pt.r, b) <= 1e-9

    def test_far_targets_are_fast(self):
        p = uniform(1000)
        for b in (499.0, 499.9, 50.0):
            start = time.perf_counter()
            solve_tilt(p, 500, b)
            assert time.perf_counter() - start < 0.05

    def test_tilt_rises_through_far_targets(self):
        zs = [solve_tilt(uniform(20), 10, b).z for b in (0.5, 1.0, 3.0, 9.5)]
        assert all(b > a for a, b in zip(zs, zs[1:]))

    def test_targets_past_positive_boxes_raise(self):
        # two positive weights: no round can fill more than two boxes
        p = ProbabilityVector([0.5, 0.5, 0.0, 0.0, 0.0])
        assert_within_rule(solve_tilt(p, 5, 1.999), 5)
        for b in (2.0, 3.0):
            with pytest.raises(TiltSolveError) as err:
                solve_tilt(p, 5, b)
            assert math.isfinite(err.value.residual_z)
            assert math.isfinite(err.value.residual_r)

    def test_tilt_below_float_range_raises(self):
        for b in (1.0, 1e-10, 1e-200):
            with pytest.raises(TiltSolveError) as err:
                solve_tilt(uniform(1000), 500, b)
            assert not math.isnan(err.value.z)
            assert math.isfinite(err.value.residual_z)
            assert math.isfinite(err.value.residual_r)

    def test_nonpositive_target_rejected(self):
        for b in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                solve_tilt(uniform(20), 10, b)

    @pytest.mark.parametrize("k", [0, -3, math.nan])
    def test_ball_count_validation(self, k):
        # k = 0 once reached math.log(k) and raised "math domain error"
        with pytest.raises(ValueError, match="ball count k >= 1"):
            solve_tilt(uniform(20), k, 1.0)

    def test_nonfinite_target_rejected(self):
        # +inf once reached the solver and raised TiltSolveError with an
        # infinite residual
        for b in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="b must be finite and positive"):
                solve_tilt(uniform(20), 10, b)


def assert_within_rule(pt, k):
    assert abs(pt.z * pt.residual_z) <= 1e-12 * max(pt.b, 1.0)
    assert abs(pt.r * pt.residual_r) <= 1e-12 * k


def descriptor_vector(family, n, spread):
    if family == "uniform":
        return from_descriptor({"family": "uniform", "n": n})
    if family == "topheavy":
        c2 = 1.0 / n + spread * (1.0 - 1.0 / n)
        return from_descriptor({"family": "topheavy", "n": n, "c2": c2})
    rng = np.random.default_rng(int(spread * 1e6))
    weights = rng.dirichlet(np.full(n, 0.5)).tolist()
    return from_descriptor({"family": "explicit", "weights": weights, "normalize": True})


class TestNestedRoots:
    """The outer root needs r h_r to rise strictly in r along the inner curve
    z(r); every target below min(k, n+) then solves or raises TiltSolveError."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["uniform", "topheavy", "dirichlet"]),
        n=st.integers(min_value=2, max_value=60),
        spread=st.floats(min_value=0.0, max_value=0.99),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        b_frac=st.floats(min_value=0.02, max_value=0.98),
    )
    def test_outer_residual_rises_along_inner_curve(self, family, n, spread, k_frac, b_frac):
        p = descriptor_vector(family, n, spread)
        k = 1 + round(k_frac * (n - 1))
        w_pos, counts = np.unique(p.weights[p.weights > 0.0], return_counts=True)
        lw, cnt = np.log(n * w_pos), counts.astype(float)
        b = b_frac * min(k, cnt.sum())
        # the solver's bracket, widened by one unit of ln r each side
        rho_lo = math.log((k - b) / b) - lw[-1] - 1.0
        rho_hi = math.log(k * cnt.sum() / (b * n)) + 1.0
        rhos = np.linspace(rho_lo, rho_hi, 25)
        g, slope, ln_z = _on_curve(lw, cnt, k, np.full(rhos.size, b), rhos)
        assert g[0] < 0.0 < g[-1]
        assert np.all(np.diff(g) > 0.0)
        assert np.all(slope > 0.0)
        # the curve's r h_r is the system's own, wherever z is comfortably in range
        for rho, g_rho, s in zip(rhos, g, ln_z):
            if abs(s) < 30.0:
                z, r = math.exp(s), math.exp(rho)
                h_z, h_r = _tilt_system(p.weights, 1, n, k, z, r, b)[:2]
                assert abs(z * h_z) <= 1e-10 * max(b, 1.0)
                assert r * h_r == pytest.approx(g_rho, rel=1e-10, abs=1e-10 * k)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["uniform", "topheavy", "dirichlet"]),
        n=st.integers(min_value=2, max_value=60),
        spread=st.floats(min_value=0.0, max_value=0.99),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        b_frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_every_target_solves_or_raises(self, family, n, spread, k_frac, b_frac):
        p = descriptor_vector(family, n, spread)
        k = 1 + round(k_frac * (n - 1))
        b = b_frac * min(k, int((p.weights > 0.0).sum()))
        try:
            pt = solve_tilt(p, k, b)
        except TiltSolveError as err:
            assert not math.isnan(err.z) and not math.isnan(err.r)
            assert math.isfinite(err.residual_z) and math.isfinite(err.residual_r)
            return
        assert 0.0 < pt.z < math.inf and 0.0 < pt.r < math.inf
        assert_within_rule(pt, k)


def scalar_root_reference(fun, x, lo, hi):
    """The one-lane safeguarded Newton that solved one target at a time:
    Newton steps, bisecting whenever one leaves the bracket, until f = 0 or
    the step taken is at most 1e-15 max(1, |x|)."""
    x_new = min(max(x, lo), hi)
    for _ in range(200):
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


def scalar_solve_reference(p, k, b):
    """(z, r) at target b by scalar nested roots, one target at a time."""
    n = p.n
    w_pos, counts = np.unique(p.weights[p.weights > 0.0], return_counts=True)
    lw, cnt = np.log(n * w_pos), counts.astype(float)
    t = math.log(b) - math.log(cnt.sum() - b)

    def on_curve(rho):
        la = lw + rho
        a = np.exp(la)
        m = np.maximum(a, 1e-300) / -np.expm1(-np.maximum(a, 1e-300))
        L = a + la - np.log(m)

        def z_equation(s):
            e = np.exp(-np.maximum(s + L, -700.0))
            q = 1.0 / (1.0 + e)
            return float(cnt @ q) - b, float(cnt @ (q * e * q)), q, q * e * q

        s_mid = t - float(cnt @ L) / cnt.sum()
        s, (_, _, q, v) = scalar_root_reference(z_equation, s_mid, t - L[-1], t - L[0])
        cv = cnt * v
        m_bar = float(cv @ m) / max(float(cv.sum()), 1e-300)
        slope = float(cnt @ (q * m * (1.0 - m * np.exp(-a)))) + float(cv @ (m - m_bar) ** 2)
        return float(cnt @ (m * q)) - k, slope, s

    rho_lo = math.log(k - b) - math.log(b) - lw[-1]
    rho_hi = math.log(k) + math.log(cnt.sum()) - math.log(b) - math.log(n)
    rho, (_, _, s) = scalar_root_reference(on_curve, math.log(k / n), rho_lo, rho_hi)
    return math.exp(s), math.exp(rho)


class TestBatchedSolve:
    """A grid's targets are the lanes of one batched nested root; each target
    comes out as its one-point solve and, within rounding, as the scalar
    solver's."""

    def test_lanes_stop_on_their_own(self):
        # roots of expit(s) + expit(s + 2.1) = c in [-40, 10] from s = 0, an
        # inner z-equation with two levels.  At c = 0.1 Newton comes from above
        # and never moves the lower end; its last step rounds back onto s, and
        # the scalar solver, bisecting that step, took 24 evaluations.  The
        # last lane sits on its root at the start.
        L = np.array([0.0, 2.1])
        at_start = float((1.0 / (1.0 + np.exp(-L))).sum())
        c = np.array([0.1, 0.3, 1.5, at_start])
        calls = np.zeros(c.size, dtype=int)

        def z_equation(s, i):
            np.add.at(calls, i, 1)
            q = 1.0 / (1.0 + np.exp(-(s[:, None] + L)))
            return q.sum(-1) - c[i], (q * (1.0 - q)).sum(-1)

        s, (f, _) = _root(z_equation, 0.0, np.full(c.size, -40.0), np.full(c.size, 10.0))
        assert calls[-1] == 1 and s[-1] == 0.0
        assert calls.max() <= 10
        assert np.all(np.abs(f) <= 1e-15)
        for lane in range(c.size):
            def scalar(x):
                return tuple(float(v[0]) for v in z_equation(np.array([x]), np.array([lane])))

            want = scalar_root_reference(scalar, 0.0, -40.0, 10.0)[0]
            assert s[lane] == pytest.approx(want, abs=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["uniform", "topheavy", "dirichlet"]),
        n=st.integers(min_value=2, max_value=60),
        spread=st.floats(min_value=0.0, max_value=0.99),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        b_fracs=st.lists(
            st.one_of(
                st.floats(min_value=-0.1, max_value=1.1),
                st.sampled_from([0.0, 1e-10, 1.0 - 1e-10, 1.0]),
            ),
            min_size=1, max_size=30,
        ),
    )
    def test_grid_matches_one_point_solves(self, family, n, spread, k_frac, b_fracs):
        p = descriptor_vector(family, n, spread)
        k = 1 + round(k_frac * (n - 1))
        top = min(k, int((p.weights > 0.0).sum()))
        grid = [f * top for f in b_fracs]
        for b, got in zip(grid, _solve_tilts(*_groups(p, k), k, grid)):
            try:
                one = solve_tilt(p, k, b)
            except (ValueError, TiltSolveError) as err:
                assert type(got) is type(err)
                if isinstance(err, TiltSolveError):
                    assert got.b == err.b
                    assert math.isfinite(got.residual_z) and math.isfinite(got.residual_r)
                continue
            assert isinstance(got, TiltPoint)
            assert_within_rule(got, k)
            assert got.z == pytest.approx(one.z, rel=1e-12)
            assert got.r == pytest.approx(one.r, rel=1e-12)
            # the scalar solver stops by another rule; rounding in its last steps
            # is amplified near the end of the range, where 1 - q_j ~ 1/z
            z, r = scalar_solve_reference(p, k, b)
            assert got.z == pytest.approx(z, rel=1e-12 * top / (top - b))
            assert got.r == pytest.approx(r, rel=1e-12 * top / (top - b))

    @pytest.mark.parametrize(
        "p, k, grid, solved, skipped",
        [
            # n+ = 4 positive weights under k = 6: targets from 4 up have no
            # stationary point, and 3.999 + step does not either
            (
                ProbabilityVector([0.3, 0.3, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0]), 6,
                [-1.0, 0.0, 1e-10, 0.5, 2.0, 3.9, 3.999, 4.0, 4.5, 6.0, 6 - 1e-10, 7.0],
                [0.5, 2.0, 3.9],
                [
                    (-1.0, "b must be positive"),
                    (0.0, "b within 1e-09*k of an end: difference step too short"),
                    (1e-10, "b within 1e-09*k of an end: difference step too short"),
                    (3.999, "no stationary point at b=4.0002; last (z, r)=(1, 0.75), "
                            "residuals (-9.332e-01, 0.000e+00)"),
                    (4.0, "no stationary point at b=4; last (z, r)=(1, 0.75), "
                          "residuals (-9.330e-01, 0.000e+00)"),
                    (4.5, "no stationary point at b=4.5; last (z, r)=(1, 0.75), "
                          "residuals (-1.433e+00, 0.000e+00)"),
                    (6.0, "b within 1e-09*k of an end: difference step too short"),
                    (6 - 1e-10, "b within 1e-09*k of an end: difference step too short"),
                    (7.0, "no stationary point at b=7; last (z, r)=(1, 0.75), "
                          "residuals (-3.933e+00, 0.000e+00)"),
                ],
            ),
            # at b = 1, ln z is below -350: out of the float range's margin
            (
                uniform(1000), 500, [1.0, 2.0, 3.0, 50.0], [2.0, 3.0, 50.0],
                [(1.0, "no stationary point at b=1; last (z, r)=(7.13171e-221, 500), "
                       "residuals (3.925e+02, -4.547e-13)")],
            ),
        ],
    )
    def test_mixed_grid_reports_as_point_by_point(self, p, k, grid, solved, skipped):
        report = curvature_report(p, k, grid)
        assert [pt.b for pt in report.points] == solved
        assert report.skipped == skipped
        assert report.all_ok
        for pt in report.points:
            one = solve_tilt(p, k, pt.b)
            assert pt.z == pytest.approx(one.z, rel=1e-12)
            assert pt.r == pytest.approx(one.r, rel=1e-12)


class TestChernoffBounds:
    def test_value_at_center(self):
        p = uniform(9)
        k = 5
        b = tilt_center(p, k)
        assert chernoff_lower_tail(p, k, b) == pytest.approx(3 * math.sqrt(5), rel=1e-12)
        assert chernoff_upper_tail(p, k, b) == pytest.approx(3 * math.sqrt(5), rel=1e-12)

    def test_vacuous_bound_example(self):
        p = uniform(10)
        k = 10
        center = occupancy_proxy(p, k)
        bound = chernoff_upper_tail(p, k, 9.0)
        oracle = 3 * math.sqrt(10) * math.exp(-((9.0 - center) ** 2) / 20.0)
        assert bound == pytest.approx(oracle, rel=1e-12)
        assert bound > 1.0  # vacuous but valid
        exact_hi = transition_row(p, k).tail_split(9)[1]
        assert exact_hi <= bound

    def test_wrong_side_rejected(self):
        p = uniform(10)
        center = tilt_center(p, 5)
        with pytest.raises(ValueError):
            chernoff_lower_tail(p, 5, center + 1.0)
        with pytest.raises(ValueError):
            chernoff_upper_tail(p, 5, center - 1.0)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize(
        "cap",
        [chernoff_lower_tail, chernoff_lower_tail_log, chernoff_upper_tail, chernoff_upper_tail_log],
    )
    def test_ball_count_validation(self, cap, k):
        with pytest.raises(ValueError, match="ball count k >= 1"):
            cap(uniform(20), k, 1.0)

    def test_dominates_exact_tails_small_instances(self):
        rng = np.random.default_rng(61)
        vectors = [uniform(8), topheavy(8, 0.25)] + [
            random_vector(rng, int(rng.integers(2, 11))) for _ in range(10)
        ]
        for p in vectors:
            n = p.n
            for k in range(1, n + 1):
                row = transition_row(p, k)
                center = tilt_center(p, k)
                for b in range(1, k + 1):
                    lo, hi = row.tail_split(b)
                    if b <= center:
                        assert lo <= chernoff_lower_tail(p, k, b) + 1e-12
                    if b >= center:
                        assert hi <= chernoff_upper_tail(p, k, b) + 1e-12


class TestChernoffLogCaps:
    """The log forms of the caps, which stay finite where the caps underflow."""

    POINTS = [  # (vector, k, b below the centre, b above it)
        (uniform(9), 5, 2.0, 4.5),
        (uniform(10), 10, 3.0, 9.0),
        (topheavy(40, 0.1), 25, 5.0, 20.0),
        (uniform(10**4), 10**4, 6000.0, 6500.0),
    ]

    def test_closed_form(self):
        for p, k, below, above in self.POINTS:
            center = tilt_center(p, k)
            head = math.log(3.0) + 0.5 * math.log(k)
            lower = head - (center - below) ** 2 / (2.0 * k)
            upper = head - (above - center) ** 2 / (2.0 * k)
            assert chernoff_lower_tail_log(p, k, below) == pytest.approx(lower, rel=1e-12)
            assert chernoff_upper_tail_log(p, k, above) == pytest.approx(upper, rel=1e-12)

    def test_finite_where_the_cap_underflows(self):
        n = k = 10**4
        p = uniform(n)
        assert chernoff_lower_tail(p, k, 0.0) == 0.0
        log_cap = chernoff_lower_tail_log(p, k, 0.0)
        assert math.isfinite(log_cap)
        assert log_cap == pytest.approx(-1992.18, abs=0.01)
        n = k = 2 * 10**4  # the centre is 0.632 k, so b = k is 0.368 k above it
        p = uniform(n)
        assert chernoff_upper_tail(p, k, k) == 0.0
        assert math.isfinite(chernoff_upper_tail_log(p, k, k))

    def test_exp_equals_the_cap(self):
        for p, k, below, above in self.POINTS:
            lower, upper = chernoff_lower_tail(p, k, below), chernoff_upper_tail(p, k, above)
            assert lower > 0.0 and upper > 0.0
            assert math.exp(chernoff_lower_tail_log(p, k, below)) == lower
            assert math.exp(chernoff_upper_tail_log(p, k, above)) == upper


class TestCurvatureReport:
    def test_uniform_grid_passes(self):
        p = uniform(20)
        k = 10
        center = tilt_center(p, k)
        report = curvature_report(p, k, [center + o for o in (-2, -1, 0, 1, 2)])
        assert report.all_ok
        assert not report.skipped

    def test_topheavy_hessian_positive(self):
        p = topheavy(20, 0.1)
        k = 10
        center = tilt_center(p, k)
        report = curvature_report(p, k, [center + o for o in (-2, -1, 0, 1, 2)])
        assert report.all_ok
        assert all(pt.hessian_det > 0 for pt in report.points)

    def test_center_slope_is_zero(self):
        p = uniform(20)
        k = 10
        report = curvature_report(p, k, [tilt_center(p, k)])
        (pt,) = report.points
        assert pt.slope_analytic == pytest.approx(0.0, abs=1e-10)
        assert abs(pt.slope_fd) <= 1e-6

    def test_points_near_the_ends_pass(self):
        # a step of 0.0002 k = 0.1 is too coarse at b = 5, 499 and 499.5
        grid = [5, 50, 499, 499.5, 499.9, 499.99, 500 - 1e-6]
        report = curvature_report(uniform(1000), 500, grid)
        assert not report.skipped
        assert report.all_ok

    def test_points_at_the_ends_skipped(self):
        # a step of 0.004 (k - b) drowns in the solver's rounding this close to k
        report = curvature_report(uniform(1000), 500, [499.5, 500 - 1e-8, 500])
        assert [b for b, _ in report.skipped] == [500 - 1e-8, 500]
        assert report.all_ok

    def test_unsolvable_points_skipped(self):
        p = uniform(6)
        k = 3
        report = curvature_report(p, k, [tilt_center(p, k), 40.0])
        assert len(report.points) == 1
        assert len(report.skipped) == 1

    @pytest.mark.parametrize("k", [0, -3])
    def test_ball_count_validation(self, k):
        with pytest.raises(ValueError, match="ball count k >= 1"):
            curvature_report(uniform(20), k, [1.0])


class TestCoalescenceTimeLowerBound:
    def test_single_ball_floor_is_zero(self):
        assert coalescence_time_lower_bound(0.1, 0.01, 1) == 0.0

    def test_pair_floor(self):
        assert coalescence_time_lower_bound(0.1, 0.01, 2) == pytest.approx(10.0)

    @pytest.mark.parametrize("c2", [0.0, -0.1, 1.5, math.nan, math.inf])
    def test_c2_outside_unit_interval_rejected(self, c2):
        with pytest.raises(ValueError, match="need 0 < c2 <= 1"):
            coalescence_time_lower_bound(c2, 0.01, 5)

    @pytest.mark.parametrize("c3", [-0.01, math.nan, math.inf])
    def test_c3_negative_or_not_finite_rejected(self, c3):
        with pytest.raises(ValueError, match="need 0 < c2 <= 1"):
            coalescence_time_lower_bound(0.1, c3, 5)

    def test_no_balls_rejected(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            coalescence_time_lower_bound(0.1, 0.01, 0)

    def test_c2_of_one_box_allowed(self):
        assert coalescence_time_lower_bound(1.0, 1.0, 1) == 0.0

    def test_below_exact_everywhere_small(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            p = random_vector(rng, n)
            m = p.moments()
            et = expected_coalescence_times(TriangularKernel(p))
            for start in range(1, n + 1):
                floor = coalescence_time_lower_bound(m.c2, m.c3, start)
                assert floor <= et[start] + 1e-9

    def test_cube_root_scale_choice(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            n = int(rng.integers(4, 11))
            p = random_vector(rng, n)
            m = p.moments()
            m_star = max(1, min(n, round((m.c2 / m.c3) ** (1.0 / 3.0))))
            et = expected_coalescence_times(TriangularKernel(p))
            assert coalescence_time_lower_bound(m.c2, m.c3, m_star) <= et[m_star] + 1e-9


def spread_heavy(n, c2, m):
    """m equal heavy entries over a light floor, matching the sum of squares."""
    a_coeff = m + m * m / (n - m)
    b_coeff = -2.0 * m / (n - m)
    c_coeff = 1.0 / (n - m) - c2
    disc = b_coeff * b_coeff - 4.0 * a_coeff * c_coeff
    heavy = (-b_coeff + math.sqrt(disc)) / (2.0 * a_coeff)
    light = (1.0 - m * heavy) / (n - m)
    w = np.full(n, light)
    w[:m] = heavy
    return ProbabilityVector(w, normalize=True)


class TestMarginGrowthTrend:
    """The envelope margin at the early threshold outgrows ln^(1+eps) n on a
    grid of sizes, for families inside the low-collision regime; the fitted
    constant is the smallest observed ratio."""

    def test_uniform_family(self):
        from coalsim.dynamics import early_threshold, envelope_margin

        eps = 0.2
        ratios = []
        for n in (10**2, 10**3, 10**4, 10**5):
            p = uniform(n)
            k_star = early_threshold(1.0 / n, n, eps)
            ratios.append(envelope_margin(p, k_star) / math.log(n) ** (1 + eps))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert min(ratios) >= ratios[0]

    def test_spread_heavy_family(self):
        from coalsim.dynamics import early_threshold, envelope_margin

        eps = 0.2
        ratios = []
        for n in (10**3, 10**4, 10**5):
            c2 = math.log(n) ** -3
            m = max(2, round(2 * math.log(n) ** 2))
            p = spread_heavy(n, c2, m)
            mo = p.moments()
            # both regime conditions hold for this family
            assert mo.c2 <= math.log(n) ** -2
            assert mo.c3 <= mo.c2**1.5 * math.log(n) ** -(0.5 + eps)
            k_star = early_threshold(mo.c2, n, eps)
            ratios.append(envelope_margin(p, k_star) / math.log(n) ** (1 + eps))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestTiltSystemRange:
    def test_finite_at_tiny_z(self):
        # z * z underflows to 0 below z ~ 2e-162; b / z / z does not, and at
        # b = 1e-100 its value 1e300 is representable
        w = uniform(10).weights
        h = _tilt_system(w, 1, 10, 5, 1e-200, 0.5, 1e-100)
        assert all(math.isfinite(x) for x in h)
        assert h[2] == pytest.approx(1e300, rel=1e-12)
        # where the true b / z^2 overflows, the entry is +inf, not an exception
        assert _tilt_system(w, 1, 10, 5, 1e-200, 0.5, 1.0)[2] == math.inf
