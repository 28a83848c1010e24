import numpy as np
import pytest

from coalsim.distributions import (
    DistributionError,
    ProbabilityVector,
    SolverError,
    from_descriptor,
    sample_fixed_c2,
    sample_fixed_c2_batch,
    three_level,
    topheavy,
    uniform,
)


class TestConstruction:
    def test_exact_sum_accepted(self):
        p = ProbabilityVector([0.5, 0.5])
        assert p.n == 2
        assert p.weights.tolist() == [0.5, 0.5]

    def test_normalize_rescales(self):
        p = ProbabilityVector([2.0, 2.0], normalize=True)
        assert p.weights.tolist() == [0.5, 0.5]

    def test_negative_entry_rejected(self):
        with pytest.raises(DistributionError):
            ProbabilityVector([0.5, -0.1, 0.6])

    def test_zero_sum_rejected(self):
        with pytest.raises(DistributionError):
            ProbabilityVector([0.0, 0.0], normalize=True)

    def test_unnormalized_without_flag_rejected(self):
        with pytest.raises(DistributionError):
            ProbabilityVector([0.5, 0.6])

    def test_short_vector_rejected(self):
        with pytest.raises(DistributionError):
            ProbabilityVector([1.0])

    def test_sum_tight_after_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = rng.random(8)
            p = ProbabilityVector(w, normalize=True)
            assert abs(p.weights.sum() - 1.0) <= 1e-12

    def test_weights_read_only(self):
        p = uniform(4)
        with pytest.raises(ValueError):
            p.weights[0] = 0.9

    def test_sorted_view_leaves_storage(self):
        p = ProbabilityVector([0.1, 0.7, 0.2])
        assert p.sorted_desc().tolist() == [0.7, 0.2, 0.1]
        assert p.weights.tolist() == [0.1, 0.7, 0.2]

    def test_grouped_compresses_repeats(self):
        p = topheavy(6, 0.3)
        groups = p.grouped()
        assert [c for _, c in groups] == [1, 5]


class TestMoments:
    def test_uniform_n4(self):
        m = uniform(4).moments()
        assert m.c2 == pytest.approx(0.25, abs=1e-15)
        assert m.c3 == pytest.approx(0.0625, abs=1e-15)

    def test_three_quarters_one_quarter(self):
        # direct arithmetic: 9/16 + 1/16 and 27/64 + 1/64
        m = ProbabilityVector([0.75, 0.25]).moments()
        assert m.c2 == pytest.approx(5 / 8, abs=1e-15)
        assert m.c3 == pytest.approx(7 / 16, abs=1e-15)

    def test_point_mass(self):
        m = ProbabilityVector([1.0, 0.0]).moments()
        assert m.c2 == 1.0
        assert m.c3 == 1.0

    def test_moment_chain_on_random_vectors(self):
        rng = np.random.default_rng(42)
        ns = rng.integers(2, 30, size=10_000)
        for n in np.unique(ns):
            count = int((ns == n).sum())
            w = rng.dirichlet(np.ones(n), size=count)
            c2 = (w**2).sum(axis=1)
            c3 = (w**3).sum(axis=1)
            assert np.all(c2 >= 1.0 / n - 1e-12)
            assert np.all(c3 >= c2**2 - 1e-12)
            assert np.all(c3 <= c2**1.5 + 1e-12)


class TestTopheavy:
    def test_closed_form_n2(self):
        p = topheavy(2, 5 / 8)
        assert p.weights == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_degenerate_radicand_is_uniform(self):
        for n in (2, 5, 17):
            p = topheavy(n, 1.0 / n)
            assert p.weights == pytest.approx([1.0 / n] * n, abs=1e-12)

    def test_point_mass_endpoint(self):
        p = topheavy(3, 1.0)
        assert p.weights == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_moments_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            c2 = float(rng.uniform(1.0 / n, 1.0))
            p = topheavy(n, c2)
            assert abs(p.weights.sum() - 1.0) <= 1e-12
            assert p.moments().c2 == pytest.approx(c2, abs=1e-12)

    def test_strictly_larger_head(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            c2 = float(rng.uniform(1.0 / n + 1e-6, 1.0))
            w = topheavy(n, c2).weights
            assert w[0] > w[1]

    def test_out_of_range_rejected(self):
        with pytest.raises(DistributionError):
            topheavy(4, 0.1)  # below 1/n
        with pytest.raises(DistributionError):
            topheavy(4, 1.5)


class TestThreeLevel:
    def test_inverts_seed_vector(self):
        seed = ProbabilityVector([0.4, 0.4, 0.15, 0.05])
        m = seed.moments()
        got = three_level(4, m.c2, m.c3, 2)
        assert got.sorted_desc() == pytest.approx(seed.sorted_desc(), abs=1e-9)
        gm = got.moments()
        assert gm.c2 == pytest.approx(m.c2, abs=1e-9)
        assert gm.c3 == pytest.approx(m.c3, abs=1e-9)

    def test_degenerate_matches_topheavy(self):
        th = topheavy(6, 0.3)
        m = th.moments()
        got = three_level(6, m.c2, m.c3, 1)
        assert got.sorted_desc() == pytest.approx(th.sorted_desc(), abs=1e-9)

    def test_infeasible_raises(self):
        # moments of a two-valued vector cannot fit two heavy levels plus a
        # strictly lighter middle at this nu
        m = topheavy(6, 0.3).moments()
        with pytest.raises(DistributionError):
            three_level(6, m.c2, m.c3, 3)

    def test_solver_error_carries_residual(self):
        # c3 pinned at its ceiling with a large nu is unreachable
        with pytest.raises(DistributionError) as err:
            three_level(8, 0.4, 0.4**1.5, 5)
        if isinstance(err.value, SolverError):
            assert err.value.residual > 0

    def test_shape_sorted_nonincreasing(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(4, 12))
            nu = int(rng.integers(1, n - 1))
            vals = np.sort(rng.random(3))[::-1]
            w = np.concatenate(
                [np.full(nu, vals[0]), [vals[1]], np.full(n - nu - 1, vals[2])]
            )
            w /= w.sum()
            m = ProbabilityVector(w).moments()
            got = three_level(n, m.c2, m.c3, nu).sorted_desc()
            assert np.all(np.diff(got) <= 1e-12)

    def test_nu_bounds_enforced(self):
        with pytest.raises(DistributionError):
            three_level(5, 0.3, 0.12, 4)
        with pytest.raises(DistributionError):
            three_level(5, 0.3, 0.12, 0)


class TestSampleFixedC2:
    def test_degenerate_returns_uniform(self):
        rng = np.random.default_rng(0)
        q = sample_fixed_c2(5, 0.2, rng)
        assert q.weights == pytest.approx([0.2] * 5, abs=1e-12)

    def test_postcondition_on_batch(self):
        rng = np.random.default_rng(1)
        for n, c2 in ((4, 0.3), (10, 0.2), (6, 0.5)):
            q = sample_fixed_c2_batch(n, c2, rng, 500)
            assert np.abs((q**2).sum(axis=1) - c2).max() <= 1e-10
            assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-10
            assert q.min() >= 0.0

    def test_spread_of_support_patterns(self):
        rng = np.random.default_rng(2)
        q = sample_fixed_c2_batch(4, 0.3, rng, 1000)
        assert len(set(np.argmax(q, axis=1).tolist())) >= 2

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DistributionError):
            sample_fixed_c2(4, 1.0, rng)


class TestDescriptors:
    def test_u_top_three_explicit(self):
        u = from_descriptor({"family": "uniform", "n": 5})
        assert u.weights == pytest.approx([0.2] * 5)
        th = from_descriptor({"family": "topheavy", "n": 4, "c2": 0.3})
        assert th.moments().c2 == pytest.approx(0.3, abs=1e-12)
        m = ProbabilityVector([0.4, 0.4, 0.15, 0.05]).moments()
        tl = from_descriptor(
            {"family": "three_level", "n": 4, "c2": m.c2, "c3": m.c3, "nu": 2}
        )
        assert tl.n == 4
        ex = from_descriptor({"family": "explicit", "weights": [0.5, 0.5]})
        assert ex.n == 2

    def test_sizes_must_be_whole_numbers(self):
        assert from_descriptor({"family": "uniform", "n": 5.0}).n == 5
        assert from_descriptor({"family": "uniform", "n": np.int64(5)}).n == 5
        for desc in (
            {"family": "uniform", "n": 2.5},
            {"family": "uniform", "n": "5"},
            {"family": "uniform", "n": float("inf")},
            {"family": "three_level", "n": 8, "c2": 0.2, "c3": 0.05, "nu": 2.5},
        ):
            with pytest.raises(DistributionError, match="whole number"):
                from_descriptor(desc)

    def test_unknown_family_rejected(self):
        with pytest.raises(DistributionError):
            from_descriptor({"family": "zipf", "n": 3})

    def test_missing_family_rejected(self):
        with pytest.raises(DistributionError):
            from_descriptor({"n": 3})
