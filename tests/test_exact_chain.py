import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import coalsim
from coalsim.distributions import (
    ProbabilityVector,
    _two_level,
    from_descriptor,
    three_level,
    topheavy,
    uniform,
)
from coalsim.dynamics import early_threshold, expected_next_count, late_threshold
from coalsim.exact_chain import (
    TriangularKernel,
    coalescence_time_cdf,
    collision_probability_bound,
    expected_coalescence_times,
    phase_decomposition,
    transition_row,
    uniform_row_exact,
    write_kernel_csv,
)
from coalsim import _tables, exact_chain
from coalsim.exact_chain import _box_rows, _occupancy_groups

# 99.9% quantiles of the chi-square distribution by degrees of freedom
CHI2_999 = {2: 13.815510557964274, 3: 16.266236196238129}


def random_vector(rng, n):
    return ProbabilityVector(rng.dirichlet(np.ones(n)), normalize=True)


class TestTransitionRow:
    def test_two_boxes_uniform(self):
        # 4 equally likely outcomes, 2 of them collide
        row = transition_row(uniform(2), 2)
        assert row.probs.tolist() == [0.0, 0.5, 0.5]

    def test_three_boxes_uniform(self):
        # surjection counts over 27 outcomes: 3, 18, 6
        row = transition_row(uniform(3), 3)
        assert row.probs[1] == pytest.approx(1 / 9, abs=1e-14)
        assert row.probs[2] == pytest.approx(2 / 3, abs=1e-14)
        assert row.probs[3] == pytest.approx(2 / 9, abs=1e-14)

    def test_skewed_pair(self):
        # same-box mass (9 + 1)/16
        row = transition_row(ProbabilityVector([0.75, 0.25]), 2)
        assert row.probs.tolist() == [0.0, 5 / 8, 3 / 8]

    def test_absorbing_row(self):
        row = transition_row(uniform(5), 1)
        assert row.probs[1] == pytest.approx(1.0, abs=1e-14)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            transition_row(uniform(3), 4)

    def test_row_invariants_random(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            p = random_vector(rng, n)
            k = int(rng.integers(1, n + 1))
            row = transition_row(p, k)
            assert row.probs[0] == 0.0
            assert row.probs.min() >= 0.0
            assert row.probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert row.mean == pytest.approx(expected_next_count(p, k), abs=1e-9)

    def test_zero_weight_boxes_unreachable(self):
        p = ProbabilityVector([0.5, 0.5, 0.0, 0.0])
        row = transition_row(p, 4)
        assert row.probs[3] == 0.0
        assert row.probs[4] == 0.0
        assert row.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_instance_no_underflow(self):
        p = topheavy(1200, 0.02)
        row = transition_row(p, 900)
        assert row.probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert row.mean == pytest.approx(expected_next_count(p, 900), rel=1e-9)

    def test_uniform_past_a_million_boxes(self):
        # one weight group, so one side state: the occupancy route holds it
        p = uniform(2**20 + 1)
        assert _occupancy_groups(p) is not None
        row = transition_row(p, 200)
        assert row.mean == pytest.approx(expected_next_count(p, 200), rel=1e-9)


def three_level_shape(n, heavy, middle, nu):
    """Explicit vector with values heavy x nu, middle x 1 and the rest equal."""
    rest = (1.0 - nu * heavy - middle) / (n - nu - 1)
    return ProbabilityVector([heavy] * nu + [middle] + [rest] * (n - nu - 1), normalize=True)


def assert_recurrence_matches_box_pass(p, tol=1e-12):
    """Every kernel row of p, built by the one-pass recurrence, against the
    box-by-box row; also the row sums, to 1e-12 * k."""
    assert _occupancy_groups(p) is not None
    kernel = TriangularKernel(p)
    for box in _box_rows(p.weights, p.n):
        k = box.k
        probs = kernel.row(k).probs
        assert probs.shape == (k + 1,)
        assert abs(probs.sum() - 1.0) <= 1e-12 * k
        assert np.abs(probs - box.probs).max() <= tol, k


class TestOccupancyRecurrence:
    """The one-pass occupancy recurrence against the box-by-box rows and the
    big-integer oracle, each an independent algorithm."""

    def test_grouped_families_match_box_rows(self):
        for p in (
            uniform(2),
            uniform(45),
            topheavy(2, 0.7),
            topheavy(60, 0.05),
            three_level_shape(50, 0.1, 0.03, 3),
            ProbabilityVector([0.5, 0.25, 0.25]),
        ):
            assert_recurrence_matches_box_pass(p)

    def test_matches_surjection_oracle(self):
        for n in (2, 3, 30, 300):
            kernel = TriangularKernel(uniform(n))
            for k in sorted({*range(1, n + 1, max(1, n // 12)), n}):
                got = kernel.row(k).probs
                assert np.abs(got - uniform_row_exact(n, k).probs).max() <= 1e-12

    def test_zero_weight_boxes(self):
        p = ProbabilityVector([0.5, 0.5, 0.0, 0.0])
        assert_recurrence_matches_box_pass(p)
        kernel = TriangularKernel(p)
        for k in (3, 4):
            assert kernel.row(k).probs[3:].tolist() == [0.0] * (k - 2)
        assert kernel.row(4).probs[1:3].tolist() == [0.125, 0.875]

    def test_topheavy_c2_near_one(self):
        for c2 in (0.99, 1.0 - 1e-9):
            assert_recurrence_matches_box_pass(topheavy(40, c2))

    def test_transition_row_equals_kernel_row(self):
        # one algorithm on both routes: a lone row is the kernel's row, bit for bit
        p = topheavy(70, 0.03)
        kernel = TriangularKernel(p)
        for k in (1, 2, 9, 70):
            assert np.array_equal(transition_row(p, k).probs, kernel.row(k).probs)

    def test_request_order_does_not_matter(self):
        p = three_level_shape(30, 0.15, 0.05, 2)
        forward, backward = TriangularKernel(p), TriangularKernel(p)
        last = backward.row(30)
        assert np.array_equal(last.probs, forward.row(30).probs)
        for k in range(29, 0, -1):
            assert np.array_equal(backward.row(k).probs, forward.row(k).probs)
        with pytest.raises(ValueError):
            backward.row(31)
        with pytest.raises(ValueError):
            backward.row(0)

    def test_route_follows_grouping(self):
        rng = np.random.default_rng(30)
        assert [m for _, m in _occupancy_groups(uniform(2000))] == [2000]
        assert [m for _, m in _occupancy_groups(topheavy(500, 0.1))] == [1, 499]
        assert _occupancy_groups(random_vector(rng, 40)) is None
        assert _occupancy_groups(random_vector(rng, 4)) is not None  # 16 states

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=24),
        zeros=st.integers(min_value=0, max_value=3000),
    )
    @example(sizes=[1] * 20, zeros=1004)  # 2^20 joint states in 21 * 2^19 cells
    @example(sizes=[15] * 5, zeros=949)  # 2^20 joint states in 76 * 2^16 cells
    def test_route_admits_what_the_state_cap_admitted(self, sizes, zeros):
        # the route once took a vector only at prod(m_g + 1) <= min(n^2, 2^20);
        # it still does for rows past the box pass's k = 2000, or when its
        # arrays of (side states) x (counts) cells fit in the cell cap
        assume(sum(sizes) + zeros >= 2)
        weights = np.repeat(np.arange(1.0, len(sizes) + 1), sizes)
        p = ProbabilityVector(np.concatenate((weights, np.zeros(zeros))), normalize=True)
        assert [m for w, m in p.grouped() if w > 0.0] == sizes[::-1]
        states = math.prod(m + 1 for m in sizes)
        cells = states // (max(sizes) + 1) * (sum(sizes) + 1)
        if states <= min(p.n * p.n, 1 << 20) and (p.n > 2000 or cells <= 1 << 22):
            assert _occupancy_groups(p) is not None

    @pytest.mark.parametrize("sizes, zeros", [([1] * 20, 1004), ([15] * 5, 949)])
    def test_state_cap_vectors_take_the_box_pass_below_2000(self, sizes, zeros):
        # 2^20 joint states in more cells than the cap: the box pass builds
        # these rows at least 10x faster, for all n rows as for the 63 rows
        # the Monte Carlo jump chain reads
        weights = np.repeat(np.arange(1.0, len(sizes) + 1), sizes)
        p = ProbabilityVector(np.concatenate((weights, np.zeros(zeros))), normalize=True)
        assert _occupancy_groups(p, p.n) is None
        assert _occupancy_groups(p, 63) is None
        assert _occupancy_groups(p, 2001) is not None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["uniform", "topheavy", "three_level"]),
        n=st.integers(min_value=4, max_value=40),
        spread=st.floats(min_value=0.0, max_value=0.95),
        nu=st.integers(min_value=1, max_value=3),
    )
    def test_random_descriptors(self, family, n, spread, nu):
        if family == "uniform":
            p = from_descriptor({"family": "uniform", "n": n})
        elif family == "topheavy":
            c2 = 1.0 / n + spread * (1.0 - 1.0 / n)
            p = from_descriptor({"family": "topheavy", "n": n, "c2": c2})
        else:
            # heavy entries take up to 95% of the mass in total
            nu = min(nu, n - 2)
            heavy = (1.0 + spread * (n - 1)) / n / (nu + 1)
            p = three_level_shape(n, heavy, 0.5 * heavy, nu)
        assert_recurrence_matches_box_pass(p)

    @pytest.mark.slow
    def test_large_n_sweep(self):
        for p in (uniform(2000), topheavy(2000, 0.05), topheavy(2000, 0.999)):
            kernel = TriangularKernel(p)
            for k in range(1, p.n + 1):
                probs = kernel.row(k).probs
                assert not np.isnan(probs).any()
                assert probs.min() >= 0.0
                assert abs(probs.sum() - 1.0) <= 1e-12 * k


class TestBoxPass:
    """The box-by-box pass, the route of vectors with many distinct weights."""

    def test_ungrouped_transition_row_equals_kernel_row(self):
        # the box pass run to k against the kernel's pass run to n
        p = random_vector(np.random.default_rng(31), 12)
        assert _occupancy_groups(p) is None
        kernel = TriangularKernel(p)
        for k in range(1, 13):
            got = transition_row(p, k).probs
            assert np.abs(got - kernel.row(k).probs).max() <= 1e-15, k

    def test_matches_surjection_oracle(self):
        n = 300
        rows = list(_box_rows(uniform(n).weights, n))
        for k in (*range(1, n, 25), n):
            want = uniform_row_exact(n, k).probs
            assert np.abs(rows[k - 1].probs - want).max() <= 1e-12, k

    @pytest.mark.slow
    def test_large_n_sweep(self):
        p = random_vector(np.random.default_rng(32), 200)
        assert _occupancy_groups(p) is None
        kernel = TriangularKernel(p)
        for k in range(1, p.n + 1):
            probs = kernel.row(k).probs
            assert not np.isnan(probs).any()
            assert probs.min() >= 0.0
            assert abs(probs.sum() - 1.0) <= 1e-12 * k


class TestBruteForceOracle:
    """Second independent route: enumerate every one of the n^k allocations."""

    @staticmethod
    def brute_row(weights, k):
        n = len(weights)
        probs = np.zeros(k + 1)
        for assign in itertools.product(range(n), repeat=k):
            pr = 1.0
            for j in assign:
                pr *= weights[j]
            probs[len(set(assign))] += pr
        return probs

    def assert_matches_enumeration(self, p, tol):
        # both routes: transition_row (the recurrence for n <= 4) and the box
        # pass run directly on every vector
        box = list(_box_rows(p.weights, p.n))
        for k in range(1, p.n + 1):
            want = self.brute_row(p.weights.tolist(), k)
            assert np.abs(transition_row(p, k).probs - want).max() <= tol
            assert np.abs(box[k - 1].probs - want).max() <= tol

    def test_matches_enumeration_for_skewed_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = ProbabilityVector(rng.dirichlet(np.ones(n)), normalize=True)
            self.assert_matches_enumeration(p, 1e-12)

    def test_matches_enumeration_with_zero_weight(self):
        self.assert_matches_enumeration(ProbabilityVector([0.6, 0.4, 0.0]), 1e-14)

    def test_matches_enumeration_with_tiny_weight(self):
        p = ProbabilityVector([0.5, 0.3, 0.2, 1e-300], normalize=True)
        self.assert_matches_enumeration(p, 1e-14)


class TestUniformRowExact:
    @pytest.mark.parametrize("k", [0, 6])
    def test_k_outside_one_to_n_rejected(self, k):
        with pytest.raises(ValueError, match=rf"k={k} outside \[1, n=5\]"):
            uniform_row_exact(5, k)

    def test_past_300_boxes_rejected(self):
        with pytest.raises(ValueError, match="kept to n <= 300"):
            uniform_row_exact(301, 2)

    def test_all_distinct_corner(self):
        for n in (2, 5, 8):
            row = uniform_row_exact(n, n)
            assert row.probs[n] == pytest.approx(
                math.factorial(n) / n**n, abs=1e-15
            )

    def test_single_box_corner(self):
        for n, k in ((4, 3), (7, 5)):
            row = uniform_row_exact(n, k)
            assert row.probs[1] == pytest.approx(n ** (1 - k), abs=1e-15)

    def test_matches_occupancy_recurrence_route(self):
        for n in range(2, 11):
            for k in range(1, n + 1):
                dp = transition_row(uniform(n), k).probs
                exact = uniform_row_exact(n, k).probs
                assert np.abs(dp - exact).max() <= 1e-12


class TestTails:
    @pytest.mark.parametrize("b", [0, 5])
    def test_b_outside_one_to_k_rejected(self, b):
        row = transition_row(uniform(6), 4)
        with pytest.raises(ValueError, match=rf"b={b} outside \[1, k=4\]"):
            row.tail_split(b)

    def test_edges(self):
        row = transition_row(uniform(6), 4)
        lo, hi = row.tail_split(1)
        assert lo == 0.0
        lo, hi = row.tail_split(4)
        assert hi == 0.0

    def test_three_boxes_split(self):
        row = transition_row(uniform(3), 3)
        lo, hi = row.tail_split(2)
        assert lo == pytest.approx(1 / 9, abs=1e-12)
        assert hi == pytest.approx(2 / 9, abs=1e-12)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            p = random_vector(rng, n)
            k = int(rng.integers(1, n + 1))
            row = transition_row(p, k)
            for b in range(1, k + 1):
                lo, hi = row.tail_split(b)
                assert lo + row.probs[b] + hi == pytest.approx(1.0, abs=1e-10)


class TestCollisionBound:
    def test_one_ball_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 2"):
            collision_probability_bound(uniform(4), 1)

    def test_pair_exact(self):
        p = ProbabilityVector([0.7, 0.2, 0.1])
        assert collision_probability_bound(p, 2) == pytest.approx(
            p.moments().c2, abs=1e-15
        )

    def test_triple_uniform_formula(self):
        # three overlapping pair events per ball triple; no disjoint pairs yet
        for n in (4, 9, 30):
            got = collision_probability_bound(uniform(n), 3)
            assert got == pytest.approx(3.0 / n - 3.0 / n**2, abs=1e-12)

    def test_lower_bounds_exact_collision_mass(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            p = random_vector(rng, n)
            for k in range(2, n + 1):
                bound = collision_probability_bound(p, k)
                if bound >= 0.0:
                    exact = 1.0 - transition_row(p, k).probs[k]
                    assert bound <= exact + 1e-10
        # and on the banded route, against one kernel per vector
        for p in (uniform(200), topheavy(200, 0.05), three_level(200, 0.05, 0.0042, 6),
                  topheavy(500, 0.01)):
            kernel = TriangularKernel(p)
            for k in range(2, p.n + 1):
                bound = collision_probability_bound(p, k)
                if bound >= 0.0:
                    assert bound <= 1.0 - kernel.row(k).probs[k] + 1e-10, (p.n, k)


class TestExpectedTimes:
    def test_two_boxes_uniform(self):
        et = expected_coalescence_times(TriangularKernel(uniform(2)))
        assert et[1] == 0.0
        assert et[2] == 2.0  # exactly: row 2 is [0, 0.5, 0.5]

    def test_skewed_pair(self):
        et = expected_coalescence_times(
            TriangularKernel(ProbabilityVector([0.75, 0.25]))
        )
        assert et[2] == pytest.approx(1.6, abs=1e-12)

    def test_pairwise_merge_cap(self):
        for n in range(2, 13):
            et = expected_coalescence_times(TriangularKernel(uniform(n)))
            assert et[n] <= 2 * n - 2 + 1e-9

    def test_nondecreasing_in_start_count(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            et = expected_coalescence_times(TriangularKernel(random_vector(rng, n)))
            assert np.all(np.diff(et[1:]) >= -1e-12)

    def test_row_without_way_down_raises(self):
        for bad in ([0.0, 0.0, 0.0, 1.0], [0.0, math.nan, 0.5, 0.5]):
            kernel = TriangularKernel(uniform(3))
            kernel._bands[2] = (0, np.array(bad), 0.0)  # row 3, held at lo = 0
            with pytest.raises(ArithmeticError):
                expected_coalescence_times(kernel)

    def test_rational_oracle(self):
        # E[T] in exact rationals from surjection counts: from m balls the
        # count falls to b with chance (n)_b S(m, b) / n^m
        n = 100
        falling = [math.perm(n, b) for b in range(n + 1)]
        stirling = [1]  # S(m, b) for b = 0..m
        exact = [Fraction(0), Fraction(0)]
        for m in range(1, n + 1):
            prev = stirling + [0]
            stirling = [0] + [b * prev[b] + prev[b - 1] for b in range(1, m + 1)]
            if m >= 2:
                down = sum(falling[b] * stirling[b] * exact[b] for b in range(2, m))
                exact.append(Fraction(n**m + down, n**m - falling[m]))
        got = expected_coalescence_times(uniform(n))
        worst = max(abs(got[m] - float(exact[m])) / float(exact[m]) for m in range(2, n + 1))
        assert worst <= 1e-14

    def test_threshold_shape(self):
        # c2 = 1/ln n: heavy E[T] c2 climbs above the uniform 2 and keeps
        # climbing with n, the slowdown without sampling noise, while uniform
        # E[T]/n rises toward 2 from below
        heavy, flat = [], []
        for n in (100, 300, 1000, 4000):
            c2 = 1.0 / math.log(n)
            heavy.append(expected_coalescence_times(topheavy(n, c2))[n] * c2)
            flat.append(expected_coalescence_times(uniform(n))[n] / n)
        assert np.all(np.diff(heavy) > 0.0)
        assert np.all(np.diff(flat) > 0.0)
        assert max(flat) < 2.0
        assert heavy == pytest.approx([2.53, 2.83, 3.12, 3.41], abs=0.01)
        assert flat == pytest.approx([1.9674, 1.9879, 1.9960, 1.9989], abs=1e-4)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["uniform", "topheavy", "dirichlet"]),
        n=st.integers(min_value=2, max_value=40),
        spread=st.floats(min_value=0.0, max_value=0.99),
        cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_properties_over_random_descriptors(self, family, n, spread, cuts):
        if family == "uniform":
            desc = {"family": "uniform", "n": n}
        elif family == "topheavy":
            desc = {"family": "topheavy", "n": n, "c2": 1.0 / n + spread * (1.0 - 1.0 / n)}
        else:
            rng = np.random.default_rng(int(spread * 1e6))
            weights = rng.dirichlet(np.ones(n)).tolist()
            desc = {"family": "explicit", "weights": weights, "normalize": True}
        p = from_descriptor(desc)
        kernel = TriangularKernel(p)
        et = expected_coalescence_times(p)
        assert np.array_equal(et, expected_coalescence_times(kernel))
        assert np.all(np.diff(et[1:]) >= 0.0)
        k_1 = 1.0 + cuts[0] * (n - 1)
        k_star = k_1 + cuts[1] * (n - k_1)
        ph = phase_decomposition(p, k_star, k_1)
        assert ph == phase_decomposition(kernel, k_star, k_1)
        assert abs(ph.total - et[n]) <= 1e-12 * et[n]

    @pytest.mark.slow
    def test_vector_streams_at_ten_thousand(self):
        # a kernel at n = 1e4 would cache 5e7 floats (400 MB); a vector's rows
        # are streamed, one at a time
        script = """if True:
            import json, math
            from coalsim import expected_coalescence_times, topheavy, uniform
            n = 10_000
            c2 = 1.0 / math.log(n)
            flat = expected_coalescence_times(uniform(n))[n] / n
            heavy = expected_coalescence_times(topheavy(n, c2))[n] * c2
            # the peak of this process's own memory: ru_maxrss would also count
            # the test runner's pages, which the child shares until it execs
            with open("/proc/self/status") as fh:
                rss = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps([flat, heavy, rss]))
        """
        src = str(Path(coalsim.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300, check=True,
        )
        flat, heavy, rss = json.loads(child.stdout)
        assert 1.9989 < flat < 2.0  # still rising toward 2 past n = 4000
        assert heavy > 3.41  # still climbing past n = 4000
        assert rss < 150 * 1024  # VmHWM is in KiB

    def test_kernel_holds_bands_at_ten_thousand(self):
        # a kernel holds its rows' bands, a few MB at n = 1e4, not dense rows,
        # which would take 5e7 floats (400 MB)
        script = """if True:
            import json
            from coalsim import TriangularKernel, expected_coalescence_times, uniform
            p = uniform(10_000)
            held = expected_coalescence_times(TriangularKernel(p))
            streamed = expected_coalescence_times(p)
            with open("/proc/self/status") as fh:
                rss = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps([held.tobytes() == streamed.tobytes(), held[-1], rss]))
        """
        src = str(Path(coalsim.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300, check=True,
        )
        same, et, rss = json.loads(child.stdout)
        assert same  # the held bands are the streamed ones, bit for bit
        assert 1.9989 < et / 10_000 < 2.0
        assert rss < 150 * 1024  # VmHWM is in KiB


class TestSelfLoopMonotonicity:
    def test_diagonal_decreasing(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(3, 13))
            p = random_vector(rng, n)
            kernel = TriangularKernel(p)
            diag = [kernel.row(k).probs[k] for k in range(1, n + 1)]
            assert all(b < a + 1e-12 for a, b in zip(diag, diag[1:]))


class TestCdf:
    def test_absorbed_at_time_zero(self):
        kernel = TriangularKernel(uniform(4))
        assert coalescence_time_cdf(kernel, 1, 3)[0] == 1.0
        assert coalescence_time_cdf(kernel, 3, 3)[0] == 0.0

    @pytest.mark.parametrize("t_max", [-1, -5, math.nan])
    def test_negative_t_max_rejected(self, t_max):
        with pytest.raises(ValueError, match=f"t_max={t_max}"):
            coalescence_time_cdf(TriangularKernel(uniform(4)), 3, t_max)

    def test_t_max_zero_is_the_start(self):
        cdf = coalescence_time_cdf(TriangularKernel(uniform(4)), 3, 0)
        assert cdf.tolist() == [0.0]

    def test_two_boxes_geometric(self):
        kernel = TriangularKernel(uniform(2))
        cdf = coalescence_time_cdf(kernel, 2, 30)
        for t in range(31):
            assert cdf[t] == pytest.approx(1 - 0.5**t, abs=1e-12)

    def test_tail_sum_identity(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            p = random_vector(rng, n)
            kernel = TriangularKernel(p)
            m = int(rng.integers(1, n + 1))
            cdf = coalescence_time_cdf(kernel, m, 3000)
            et = expected_coalescence_times(kernel)[m]
            assert (1 - cdf).sum() == pytest.approx(et, abs=1e-8)

    def test_monotone_and_bounded(self):
        kernel = TriangularKernel(uniform(6))
        cdf = coalescence_time_cdf(kernel, 6, 100)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf.max() <= 1.0 + 1e-12


class TestPhaseDecomposition:
    def test_everything_late(self):
        kernel = TriangularKernel(uniform(7))
        ph = phase_decomposition(kernel, 7.0, 7.0)
        assert ph.early == 0.0
        assert ph.middle == 0.0
        assert ph.late == pytest.approx(
            expected_coalescence_times(kernel)[7], abs=1e-8
        )

    def test_parts_sum_to_total(self):
        kernel = TriangularKernel(uniform(10))
        ph = phase_decomposition(kernel, 5.0, 3.0)
        et = expected_coalescence_times(kernel)[10]
        assert ph.total == pytest.approx(et, abs=1e-8)

    def test_late_phase_harmonic_cap(self):
        # late time is within the 1.1-slack harmonic sum cap at n=100
        n = 100
        c2 = 1.0 / n
        k_star = early_threshold(c2, n, 0.2)
        k_1 = late_threshold(c2, n, 0.2)
        kernel = TriangularKernel(uniform(n))
        ph = phase_decomposition(kernel, k_star, k_1)
        cap = 1.0 + 1.1 * sum(
            1.0 / (math.comb(k, 2) * c2) for k in range(2, int(k_1) + 1)
        )
        assert ph.late <= cap

    def test_threshold_validation(self):
        kernel = TriangularKernel(uniform(5))
        with pytest.raises(ValueError):
            phase_decomposition(kernel, 3.0, 4.0)

    @pytest.mark.slow
    def test_early_phase_carries_the_threshold_excess(self):
        # cuts at k* = 4/sqrt(c) and k_1 = 2.  Topheavy at c = 1/ln n lies
        # above the ln^-2 n threshold: its early part (x c: 1.35, 1.75, 2.13)
        # climbs with n while the rest stays below Kingman's 2; uniform's
        # early part (0.014, 0.0047, 0.0016) vanishes
        early = {"topheavy": [], "uniform": []}
        for n in (1000, 10_000, 100_000):
            for family, p in (("topheavy", topheavy(n, 1.0 / math.log(n))), ("uniform", uniform(n))):
                c = p.moments().c2
                ph = phase_decomposition(p, 4.0 / math.sqrt(c), 2.0)
                total = expected_coalescence_times(p)[n]
                assert ph.early + ph.middle + ph.late == pytest.approx(total, rel=1e-12)
                early[family].append(ph.early * c)
                if family == "topheavy":
                    assert (ph.middle + ph.late) * c < 2.0
        assert early["topheavy"][0] < early["topheavy"][1] < early["topheavy"][2]
        assert early["uniform"][0] > early["uniform"][1] > early["uniform"][2]


class TestChiSquareConsistency:
    def test_step_frequencies_match_kernel(self):
        from coalsim.simulate import replicate_rng, step

        p = topheavy(6, 0.3)
        k = 4
        probs = transition_row(p, k).probs
        rng = replicate_rng(2718, 0)
        draws = 100_000
        counts = np.zeros(k + 1)
        for _ in range(draws):
            counts[step(p, k, rng)] += 1
        expected = probs[1:] * draws
        observed = counts[1:]
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < CHI2_999[k - 1]


def one_format_per_entry(kernel) -> bytes:
    """The reference kernel dump: one "%d,%d,%.17g" line per entry of each dense row."""
    lines = [b"k,b,prob\n"]
    for k in range(1, kernel.n + 1):
        probs = kernel.row(k).probs
        lines += [b"%d,%d,%.17g\n" % (k, b, probs[b]) for b in range(1, k + 1)]
    return b"".join(lines)


class TestKernelCsv:
    def test_export_roundtrip(self, tmp_path):
        kernel = TriangularKernel(uniform(4))
        path = tmp_path / "kernel.csv"
        write_kernel_csv(kernel, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,b,prob"
        assert len(lines) == 1 + sum(range(1, 5))
        k, b, prob = lines[1].split(",")
        assert (k, b) == ("1", "1")
        assert float(prob) == 1.0

    def test_rows_written_as_formatted_entries(self, tmp_path):
        # the bytes of one format per entry, on both routes
        rng = np.random.default_rng(40)
        for p in (
            topheavy(30, 0.1),
            three_level_shape(25, 0.1, 0.03, 2),
            random_vector(rng, 12),
            *(uniform(n) for n in (2, 9, 10, 11, 99, 100, 101, 1000)),  # every digit-count edge
            topheavy(60, 0.999),  # narrow bands
            three_level_shape(40, 0.1, 0.03, 3),
            ProbabilityVector([0.5, 0.5, 0.0, 0.0]),  # zero weights
            random_vector(rng, 40),  # the box route: whole bands
        ):
            kernel = TriangularKernel(p)
            path = tmp_path / "kernel.csv"
            write_kernel_csv(kernel, path)
            assert path.read_bytes() == one_format_per_entry(kernel)

    @pytest.mark.parametrize("cells", [1, 5, 64])
    def test_bytes_match_across_many_groups(self, tmp_path, cells):
        # groups of a few lines, each row in a group of its own, and more band
        # values in a group than one 17-digit batch holds
        kernel = TriangularKernel(topheavy(50, 0.1))
        path = tmp_path / "kernel.csv"
        with mock.patch.object(_tables, "_BLOCK_CELLS", cells):
            write_kernel_csv(kernel, path)
        assert path.read_bytes() == one_format_per_entry(kernel)

    def test_negative_zero_and_non_finite_band_values(self, tmp_path):
        # only +0.0 is the fixed "0" word: -0.0 and the values that % prints
        # take the 17-digit path, and count 0 of a band at lo = 0 is not written
        bands = [
            (1, np.array([1.0])),
            (1, np.array([-0.0, 0.0])),
            (0, np.array([7.0, math.nan, -math.inf, 0.0])),
        ]
        path = tmp_path / "triangle.csv"
        _tables.write_triangle(path, ["k", "b", "v"], bands)
        assert path.read_bytes() == b"k,b,v\n1,1,1\n2,1,-0\n2,2,0\n3,1,nan\n3,2,-inf\n3,3,0\n"

    def test_entries_outside_the_band_are_zero(self, tmp_path):
        n = 200
        kernel = TriangularKernel(uniform(n))
        path = tmp_path / "kernel.csv"
        write_kernel_csv(kernel, path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == n * (n + 1) // 2
        zeros = sum(line.endswith(",0") for line in lines)
        # more than half of the entries lie outside their row's band
        assert zeros > len(lines) // 2
        for line in lines:
            k, b, prob = line.split(",")
            row = kernel.row(int(k))
            assert (prob == "0") == (not row.lo <= int(b) < row.hi) or float(prob) == 0.0


def rational_expected_times(n):
    """Uniform E[T] from every start m in exact rationals: from m balls the
    count falls to b with chance (n)_b S(m, b) / n^m."""
    falling = [math.perm(n, b) for b in range(n + 1)]
    stirling = [1]  # S(m, b) for b = 0..m
    exact = [Fraction(0), Fraction(0)]
    for m in range(1, n + 1):
        prev = stirling + [0]
        stirling = [0] + [b * prev[b] + prev[b - 1] for b in range(1, m + 1)]
        if m >= 2:
            down = sum(falling[b] * stirling[b] * exact[b] for b in range(2, m))
            exact.append(Fraction(n**m + down, n**m - falling[m]))
    return exact


def box_expected_times(p):
    """E[T] by first-step analysis over the rows of the box pass, which drops
    no mass."""
    e = np.zeros(p.n + 1)
    for row in _box_rows(p.weights, p.n):
        m = row.k
        if m >= 2:
            down = row.probs[1:m]
            e[m] = (1.0 + down @ e[1:m]) / down.sum()
    return e


def box_rows_reference(weights, k_max):
    """Rows of the box pass with np.diag and np.tril taken per box."""
    size = k_max + 1
    w = weights[weights > 0.0]
    total = np.cumsum(w)
    old, new = np.concatenate(([0.0], total[:-1])) / total, w / total
    law = np.zeros((size, size))
    law[0, 0] = 1.0
    block = max(1, (1 << 16) // (size * size))
    for first in range(0, w.size, block):
        olds, news = old[first : first + block, None], new[first : first + block, None]
        keep = np.zeros((olds.size, size, size))
        keep[:, 0, 0] = 1.0
        for j in range(1, size):
            keep[:, j, : j + 1] = news * keep[:, j - 1, : j + 1]
            keep[:, j, 1 : j + 1] += olds * keep[:, j - 1, :j]
        for box in keep:
            nxt = law * np.diag(box)[:, None]
            nxt[:, 1:] += np.tril(box, -1) @ law[:, :-1]
            law = nxt
    return [np.array([0.0, 1.0])] + [law[k, : k + 1].copy() for k in range(2, size)]


class TestBandedPass:
    """The occupancy pass keeps each row on a window and reports the mass it
    drops (finite state projection); the box pass keeps whole rows."""

    def test_rational_oracle_at_150(self):
        n = 150
        exact = rational_expected_times(n)
        got = expected_coalescence_times(uniform(n))
        worst = max(abs(got[m] - float(exact[m])) / float(exact[m]) for m in range(2, n + 1))
        assert worst <= 1e-14

    def test_rows_carry_their_band_and_dropped_mass(self):
        for p in (uniform(600), topheavy(600, 1.0 / math.log(600)), three_level_shape(400, 0.05, 0.02, 3)):
            kernel = TriangularKernel(p)
            dropped = 0.0
            for k in range(1, p.n + 1):
                row = kernel.row(k)
                assert not row.probs[: row.lo].any() and not row.probs[row.hi :].any()
                assert dropped <= row.dropped <= 1e-12
                assert abs(row.probs.sum() + row.dropped - 1.0) <= 1e-12 * k
                dropped = row.dropped
            lone = transition_row(p, p.n)
            assert (lone.lo, lone.hi, lone.dropped) == (row.lo, row.hi, row.dropped)

    def test_top_row_sits_in_a_narrow_window(self):
        n = 5000
        for p in (uniform(n), topheavy(n, 1.0 / math.log(n))):
            row = transition_row(p, n)
            assert row.hi - row.lo < n // 8
            assert 0.0 < row.dropped <= 1e-12

    def test_box_rows_are_whole(self):
        p = random_vector(np.random.default_rng(41), 10)
        for row in _box_rows(p.weights, p.n):
            assert (row.lo, row.hi, row.dropped) == (0, None, 0.0)
        assert transition_row(p, 10).dropped == 0.0

    def test_box_rows_match_per_box_reference(self):
        # the product of occupancy factors against the Pascal pass per box; the
        # two round differently, so they agree to rounding, not bit for bit
        rng = np.random.default_rng(42)
        cases = [
            (random_vector(rng, 40).weights, 40),
            (random_vector(rng, 200).weights, 200),  # boxes span two blocks
            (random_vector(rng, 2000).weights, 63),
            (ProbabilityVector([0.5, 0.0, 0.3, 0.2]).weights, 4),
        ]
        for weights, k_max in cases:
            got = [row.probs for row in _box_rows(weights, k_max)]
            want = box_rows_reference(weights, k_max)
            assert len(got) == len(want) == k_max
            assert max(np.abs(a - b).max() for a, b in zip(got, want)) <= 1e-13
            assert all(abs(a.sum() - 1.0) <= 1e-12 * k for k, a in enumerate(got, start=1))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        alpha=st.sampled_from([0.05, 1.0, 5.0]),
        n=st.integers(min_value=2, max_value=300),
        zeros=st.integers(min_value=0, max_value=3),
        tiny=st.booleans(),
        k_max=st.integers(min_value=1, max_value=80),
    )
    def test_box_rows_property(self, seed, alpha, n, zeros, tiny, k_max):
        weights = np.random.default_rng(seed).dirichlet(np.full(n, alpha))
        weights = np.concatenate((weights, np.zeros(zeros), [1e-300] if tiny else []))
        weights = ProbabilityVector(weights, normalize=True).weights
        k_max = min(k_max, weights.size)
        got = [row.probs for row in _box_rows(weights, k_max)]
        want = box_rows_reference(weights, k_max)
        for k, (a, b) in enumerate(zip(got, want), start=1):
            assert np.isfinite(a).all() and a.min() >= 0.0
            assert abs(a.sum() - 1.0) <= 1e-12 * k
            assert np.abs(a - b).max() <= 1e-13, k

    @pytest.mark.slow
    def test_box_rows_across_the_scale_range(self):
        # the scale lam^j/j! peaks near e^147 at k_max = 400 and near e^700 at
        # k_max = 2000 and must neither overflow nor flush rows to zero
        weights = random_vector(np.random.default_rng(43), 400).weights
        for row in _box_rows(weights, 400):
            assert np.isfinite(row.probs).all() and row.probs.min() >= 0.0
            assert abs(row.probs.sum() - 1.0) <= 1e-12 * row.k
        weights = random_vector(np.random.default_rng(44), 6).weights
        got = [row.probs for row in _box_rows(weights, 2000)]
        want = box_rows_reference(weights, 2000)
        assert all(np.isfinite(a).all() and a.min() >= 0.0 for a in got)
        assert max(np.abs(a - b).max() for a, b in zip(got, want)) <= 1e-12
        assert max(abs(a.sum() - 1.0) for a in got) <= 1e-12
        with pytest.raises(ValueError, match="up to k = 2000"):
            next(_box_rows(weights, 2001))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["uniform", "topheavy", "three_level"]),
        n=st.integers(min_value=2, max_value=200),
        spread=st.floats(min_value=0.0, max_value=0.95),
        nu=st.integers(min_value=1, max_value=3),
        trim=st.sampled_from([None, 1e-9, 1e-6]),
    )
    def test_within_dropped_bound_of_box_pass(self, family, n, spread, nu, trim):
        if family == "uniform":
            p = uniform(n)
        elif family == "topheavy":
            p = topheavy(n, 1.0 / n + spread * (1.0 - 1.0 / n))
        else:
            n, nu = max(n, 4), min(nu, max(n, 4) - 2)
            heavy = (1.0 + spread * (n - 1)) / n / (nu + 1)
            p = three_level_shape(n, heavy, 0.5 * heavy, nu)
        assert _occupancy_groups(p) is not None
        with mock.patch.object(exact_chain, "_TRIM", trim or exact_chain._TRIM):
            got = expected_coalescence_times(p)
            top = transition_row(p, p.n)
        dropped = top.dropped
        assert abs(top.probs.sum() + dropped - 1.0) <= 1e-13  # every drop is counted
        want = box_expected_times(p)
        if trim is None:
            assert dropped <= 1e-12
        # rows short of the exact ones by at most dropped in total move every
        # expected time by at most 2 dropped E~[T] E[T]; the rest is rounding
        # between the two routes
        bound = 2.0 * dropped * got[p.n] * want[p.n] + 1e-12 * want
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.slow
    def test_hundred_thousand_in_seconds(self):
        script = """if True:
            import json, math, time
            from coalsim import expected_coalescence_times, topheavy, transition_row, uniform
            n = 100_000
            out = []
            for p in (uniform(n), topheavy(n, 1.0 / math.log(n))):
                t0 = time.perf_counter()
                e = expected_coalescence_times(p)[n]
                secs = time.perf_counter() - t0
                out.append([e, secs, transition_row(p, n).dropped])
            # the peak of this process's own memory: ru_maxrss would also count
            # the test runner's pages, which the child shares until it execs
            with open("/proc/self/status") as fh:
                peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps([out, peak]))
        """
        src = str(Path(coalsim.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300, check=True,
        )
        (flat, heavy), peak = json.loads(child.stdout)
        assert flat[0] / 100_000 == pytest.approx(1.99994, abs=1e-5)
        assert heavy[0] * (1.0 / math.log(100_000)) > 3.6  # still climbing past n = 1e4
        for _, secs, dropped in (flat, heavy):
            assert secs < 5.0
            assert dropped <= 1e-12
        assert peak < 60 * 1024  # VmHWM is in KiB

    @pytest.mark.slow
    def test_two_level_with_many_heavy_boxes(self):
        # 390 heavy boxes at c2 = 1/ln^3 n: 391 side states, 391 * (10^4 + 1)
        # cells, past the 2^20 joint states the route once stopped at.  The
        # reference reruns the pass at a trim of 1e-30, which drops next to no
        # mass, after the peak is read
        script = """if True:
            import json, math
            from unittest import mock
            from coalsim import ProbabilityVector, exact_chain
            from coalsim.distributions import _two_level
            n, heavy = 10_000, 390
            top, bottom = _two_level(heavy, n - heavy, 1.0, 1.0 / math.log(n) ** 3)
            p = ProbabilityVector([top] * heavy + [bottom] * (n - heavy), normalize=True)
            got = exact_chain.expected_coalescence_times(p)[n]
            dropped = exact_chain.transition_row(p, n).dropped
            with open("/proc/self/status") as fh:
                peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            with mock.patch.object(exact_chain, "_TRIM", 1e-30):
                want = exact_chain.expected_coalescence_times(p)[n]
            print(json.dumps([got, dropped, want, peak]))
        """
        src = str(Path(coalsim.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300, check=True,
        )
        got, dropped, want, peak = json.loads(child.stdout)
        assert dropped <= 1e-12
        assert abs(got - want) <= 2.0 * dropped * got * want + 1e-12 * want
        assert got / math.log(10_000) ** 3 == pytest.approx(2.00012, abs=1e-5)
        assert peak < 200 * 1024  # VmHWM is in KiB
