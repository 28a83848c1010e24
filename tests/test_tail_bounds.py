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
    chernoff_upper_tail,
    coalescence_time_lower_bound,
    curvature_report,
    solve_tilt,
    tilt_center,
    tilt_exponent,
)
from coalsim.tail_bounds import _on_curve, _tilt_system


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
        for b in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
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
        curve = [_on_curve(lw, cnt, k, b, rho) for rho in np.linspace(rho_lo, rho_hi, 25)]
        g = np.array([c[0] for c in curve])
        assert g[0] < 0.0 < g[-1]
        assert np.all(np.diff(g) > 0.0)
        assert all(c[1] > 0.0 for c in curve)
        # the curve's r h_r is the system's own, wherever z is comfortably in range
        for rho, (g_rho, _, s) in zip(np.linspace(rho_lo, rho_hi, 25), curve):
            if abs(s) < 30.0:
                z, r = math.exp(s), math.exp(rho)
                h_z, h_r = _tilt_system(p.weights, k, z, r, b)[:2]
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


class TestCoalescenceTimeLowerBound:
    def test_single_ball_floor_is_zero(self):
        assert coalescence_time_lower_bound(0.1, 0.01, 1) == 0.0

    def test_pair_floor(self):
        assert coalescence_time_lower_bound(0.1, 0.01, 2) == pytest.approx(10.0)

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
        h = _tilt_system(w, 5, 1e-200, 0.5, 1e-100)
        assert all(math.isfinite(x) for x in h)
        assert h[2] == pytest.approx(1e300, rel=1e-12)
        # where the true b / z^2 overflows, the entry is +inf, not an exception
        assert _tilt_system(w, 5, 1e-200, 0.5, 1.0)[2] == math.inf
