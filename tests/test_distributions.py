import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from coalsim.dynamics import empty_boxes_proxy
from coalsim.tail_bounds import _groups

# zeros, ties, a weight of 1e-300 and subnormals, among ordinary weights
_ODD_WEIGHTS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 0.125, 0.5]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=2,
    max_size=40,
).filter(lambda ws: sum(ws) > 0.0)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(DistributionError, match="weights must be finite"):
            ProbabilityVector([0.5, bad, 0.5])

    def test_uniform_needs_two_boxes(self):
        with pytest.raises(DistributionError, match="n must be at least 2"):
            uniform(1)

    def test_repr_lists_up_to_eight_weights(self):
        assert repr(ProbabilityVector([0.75, 0.25])) == "ProbabilityVector(n=2, [0.75, 0.25])"
        assert repr(uniform(8)) == "ProbabilityVector(n=8, [" + ", ".join(["0.125"] * 8) + "])"
        assert repr(uniform(9)) == "ProbabilityVector(n=9, [0.111111, 0.111111, ..., 0.111111])"

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

    def test_grouped_leaves_out_zeros(self):
        p = ProbabilityVector([0.5, 0.0, 0.25, 0.25, 0.0])
        assert p.grouped() == [(0.5, 1), (0.25, 2)]


class TestLevels:
    @settings(max_examples=200, deadline=None)
    @given(_ODD_WEIGHTS)
    def test_table_and_its_readers_match_fresh_unique(self, ws):
        p = ProbabilityVector(ws, normalize=True)
        values, counts = np.unique(p.weights, return_counts=True)
        got_values, got_counts = p.levels
        assert got_values.tobytes() == values.tobytes()
        assert np.array_equal(got_counts, counts) and got_counts.dtype == counts.dtype
        assert not got_values.flags.writeable and not got_counts.flags.writeable
        assert p.levels is p.levels
        # each reader against the formula it used on the raw weights
        assert p.grouped() == [
            (float(v), int(c)) for v, c in zip(values[::-1], counts[::-1]) if v > 0.0
        ]
        w = p.weights
        w_pos, cnt = np.unique(w[w > 0.0], return_counts=True)
        g_pos, g_cnt, n = _groups(p, 1)
        assert g_pos.tobytes() == w_pos.tobytes() and np.array_equal(g_cnt, cnt) and n == p.n
        ks = np.array([0.0, 0.5, 3.0, 1e3, 1e300])
        want = np.exp(-np.multiply.outer(ks, values)) @ counts
        assert empty_boxes_proxy(p, ks).tobytes() == want.tobytes()
        one = np.exp(-np.multiply.outer(ks[2:3], values)) @ counts  # a scalar k is one row
        assert empty_boxes_proxy(p, 3.0) == one[0]

    def test_table_is_read_only(self):
        values, counts = ProbabilityVector([0.5, 0.25, 0.25, 0.0]).levels
        assert values.tolist() == [0.0, 0.25, 0.5] and counts.tolist() == [1, 2, 1]
        with pytest.raises(ValueError):
            values[0] = 1.0
        with pytest.raises(ValueError):
            counts[0] = 2


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

    def test_c2_just_below_one_over_n_regression(self):
        # 5e-10 relative below 1/n: no vector has this sum of squares
        with pytest.raises(DistributionError, match=r"c2=.* outside \[1/n, 1\]"):
            topheavy(1000, 1e-3 - 5e-13)


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

    @pytest.mark.parametrize("c3", [0.3**2 - 1e-3, 0.3**1.5 + 1e-3])
    def test_c3_outside_moment_range_rejected(self, c3):
        with pytest.raises(DistributionError, match=r"outside \[c2\^2, c2\^\(3/2\)\]"):
            three_level(5, 0.3, c3, 1)

    @staticmethod
    def assert_three_level(p, n, nu, c2, c3):
        m = p.moments()
        assert abs(m.c2 - c2) <= 1e-12 * c2
        assert abs(m.c3 - c3) <= 1e-12 * c3
        w = p.weights
        assert np.all(w[:nu] == w[0]) and np.all(w[nu + 1 :] == w[-1])
        assert w[0] >= w[nu] >= w[-1] >= 0.0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=3, max_value=3000),
        nu_frac=st.floats(min_value=0.0, max_value=1.0),
        fold=st.sampled_from(["none", "r1=r2", "r2=r3", "r3=0"]),
        middle=st.floats(min_value=0.0, max_value=1.0),
        bottom=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_planted_vectors_recovered(self, n, nu_frac, fold, middle, bottom):
        nu = 1 + round(nu_frac * (n - 3))
        r1, r2 = 1.0, middle
        r3 = r2 * bottom
        if fold == "r1=r2":
            r2 = r1
        elif fold == "r2=r3":
            r2 = r3
        elif fold == "r3=0":
            r3 = 0.0
        w = np.repeat([r1, r2, r3], (nu, 1, n - nu - 1))
        m = ProbabilityVector(w, normalize=True).moments()
        self.assert_three_level(three_level(n, m.c2, m.c3, nu), n, nu, m.c2, m.c3)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=3, max_value=3000),
        nu_frac=st.floats(min_value=0.0, max_value=1.0),
        c2_frac=st.floats(min_value=0.0, max_value=1.0),
        c3_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_request_solved_or_refused(self, n, nu_frac, c2_frac, c3_frac):
        nu = 1 + round(nu_frac * (n - 3))
        c2 = 1.0 / n + c2_frac * (1.0 - 1.0 / n)
        c3 = c2 * c2 + c3_frac * (c2**1.5 - c2 * c2)
        try:
            p = three_level(n, c2, c3, nu)
        except DistributionError:
            return
        self.assert_three_level(p, n, nu, c2, c3)

    def test_planted_near_fold_regression(self):
        # middle value 2e-5 below the top, next to the r1 = r2 fold, where a
        # mirror root with the levels out of order matches the moments too
        n, nu, r1, r2 = 90, 30, 0.0193112, 0.0192895
        w = np.repeat([r1, r2, (1.0 - nu * r1 - r2) / (n - nu - 1)], (nu, 1, n - nu - 1))
        m = ProbabilityVector(w, normalize=True).moments()
        got = three_level(n, m.c2, m.c3, nu)
        self.assert_three_level(got, n, nu, m.c2, m.c3)
        assert got.weights[nu] == pytest.approx(r2, rel=1e-9)

    def test_uniform_request_regression(self):
        got = three_level(1000, 1e-3, 1e-6, 10)
        self.assert_three_level(got, 1000, 10, 1e-3, 1e-6)
        assert got.weights == pytest.approx(np.full(1000, 1e-3), rel=1e-12)

    def test_c2_just_below_one_over_n_regression(self):
        # the error names c2, not the c3 range that c2 leaves empty
        c2 = 1e-3 - 5e-13
        with pytest.raises(DistributionError, match=r"c2=.* outside \[1/n, 1\]"):
            three_level(1000, c2, c2 * c2, 3)


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

    def test_one_box_rejected(self):
        with pytest.raises(DistributionError, match="n must be at least 2"):
            sample_fixed_c2_batch(1, 1.0, np.random.default_rng(0), 3)


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
            {"family": "uniform", "n": True},
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

    @pytest.mark.parametrize(
        "desc, key",
        [
            ({"family": "uniform", "n": 5, "c2": 0.2}, "c2"),
            ({"family": "topheavy", "n": 100, "c2": 0.05, "c3": 0.004}, "c3"),
            ({"family": "three_level", "n": 4, "c2": 0.4, "c3": 0.1, "nu": 2, "weights": []},
             "weights"),
            ({"family": "explicit", "weights": [2, 2], "normalise": True}, "normalise"),
        ],
    )
    def test_key_the_family_does_not_read_rejected(self, desc, key):
        family = desc["family"]
        with pytest.raises(DistributionError, match=f"unknown key '{key}' for family '{family}'"):
            from_descriptor(desc)
