import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalsim.distributions import ProbabilityVector, from_descriptor, topheavy, uniform
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
from coalsim.exact_chain import _gf_row, _occupancy_groups

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


def three_level_shape(n, heavy, middle, nu):
    """Explicit vector with values heavy x nu, middle x 1 and the rest equal."""
    rest = (1.0 - nu * heavy - middle) / (n - nu - 1)
    return ProbabilityVector([heavy] * nu + [middle] + [rest] * (n - nu - 1), normalize=True)


def assert_recurrence_matches_gf(p, tol=1e-12):
    """Every kernel row of p, built by the one-pass recurrence, against the
    generating-function row; also the row sums, to 1e-12 * k."""
    assert _occupancy_groups(p) is not None
    kernel = TriangularKernel(p)
    for k in range(1, p.n + 1):
        probs = kernel.row(k).probs
        assert probs.shape == (k + 1,)
        assert abs(probs.sum() - 1.0) <= 1e-12 * k
        if k >= 2:
            assert np.abs(probs - _gf_row(p, k).probs).max() <= tol, k


class TestOccupancyRecurrence:
    """The one-pass occupancy recurrence against the generating-function rows
    and the big-integer oracle, each an independent algorithm."""

    def test_grouped_families_match_gf_rows(self):
        for p in (
            uniform(2),
            uniform(45),
            topheavy(2, 0.7),
            topheavy(60, 0.05),
            three_level_shape(50, 0.1, 0.03, 3),
            ProbabilityVector([0.5, 0.25, 0.25]),
        ):
            assert_recurrence_matches_gf(p)

    def test_matches_surjection_oracle(self):
        for n in (2, 3, 30, 300):
            kernel = TriangularKernel(uniform(n))
            for k in sorted({*range(1, n + 1, max(1, n // 12)), n}):
                got = kernel.row(k).probs
                assert np.abs(got - uniform_row_exact(n, k).probs).max() <= 1e-12

    def test_zero_weight_boxes(self):
        p = ProbabilityVector([0.5, 0.5, 0.0, 0.0])
        assert_recurrence_matches_gf(p)
        kernel = TriangularKernel(p)
        for k in (3, 4):
            assert kernel.row(k).probs[3:].tolist() == [0.0] * (k - 2)
        assert kernel.row(4).probs[1:3].tolist() == [0.125, 0.875]

    def test_topheavy_c2_near_one(self):
        for c2 in (0.99, 1.0 - 1e-9):
            assert_recurrence_matches_gf(topheavy(40, c2))

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
        assert_recurrence_matches_gf(p)

    @pytest.mark.slow
    def test_large_n_sweep(self):
        for p in (uniform(2000), topheavy(2000, 0.05), topheavy(2000, 0.999)):
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

    def test_matches_enumeration_for_skewed_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = ProbabilityVector(rng.dirichlet(np.ones(n)), normalize=True)
            for k in range(1, n + 1):
                got = transition_row(p, k).probs
                want = self.brute_row(p.weights.tolist(), k)
                assert np.abs(got - want).max() <= 1e-12

    def test_matches_enumeration_with_zero_weight(self):
        p = ProbabilityVector([0.6, 0.4, 0.0])
        for k in (1, 2, 3):
            got = transition_row(p, k).probs
            want = self.brute_row(p.weights.tolist(), k)
            assert np.abs(got - want).max() <= 1e-14


class TestUniformRowExact:
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

    def test_matches_generating_function_route(self):
        for n in range(2, 11):
            for k in range(1, n + 1):
                dp = transition_row(uniform(n), k).probs
                exact = uniform_row_exact(n, k).probs
                assert np.abs(dp - exact).max() <= 1e-12


class TestTails:
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


class TestExpectedTimes:
    def test_two_boxes_uniform(self):
        et = expected_coalescence_times(TriangularKernel(uniform(2)))
        assert et[1] == 0.0
        assert et[2] == 2.0  # the generating-function rows gave 1.9999999999999991

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
