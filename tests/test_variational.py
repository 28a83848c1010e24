import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coalsim.distributions import (
    DistributionError,
    ProbabilityVector,
    sample_fixed_c2_batch,
    three_level,
    topheavy,
    uniform,
)
from coalsim.dynamics import empty_boxes_proxy
from coalsim.variational import (
    _SAMPLE_BLOCK,
    distinct_four_determinant,
    level_count,
    middle_pair_excess,
    minimize_proxy_fixed_c2,
    minimize_proxy_fixed_c2_c3,
    proxy_ordering,
    proxy_rows,
    sampled_proxy_min,
)


def _mask_copy_fixed_c2_batch(n, c2, rng, size):
    """sample_fixed_c2_batch written with row copies through the branch masks."""
    lo = 1.0 / n
    if c2 <= lo * (1.0 + 1e-12):
        return np.full((size, n), lo)
    e = rng.standard_exponential((size, n))
    q0 = e / e.sum(axis=1, keepdims=True)
    c0 = np.einsum("ij,ij->i", q0, q0)
    out = np.empty_like(q0)
    down = c0 > c2
    if np.any(down):
        w = (c2 - lo) / (c0[down] - lo)
        s = 1.0 - np.sqrt(np.clip(w, 0.0, 1.0))
        out[down] = (1.0 - s)[:, None] * q0[down] + (s / n)[:, None]
    up = ~down
    if np.any(up):
        rows = q0[up]
        jmax = np.argmax(rows, axis=1)
        qm = rows[np.arange(rows.shape[0]), jmax]
        a = 1.0 - 2.0 * qm + c0[up]
        b = 2.0 * (qm - c0[up])
        c = c0[up] - c2
        disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        s = np.where(a > 1e-300, (-b + disc) / (2.0 * a), -c / np.where(b == 0, 1.0, b))
        s = np.clip(s, 0.0, 1.0)
        blended = (1.0 - s)[:, None] * rows
        blended[np.arange(rows.shape[0]), jmax] += s
        out[up] = blended
    return out


def _best_three_level(n, c2, c3, k):
    values = []
    for nu in range(1, n - 1):
        try:
            values.append(empty_boxes_proxy(three_level(n, c2, c3, nu), k))
        except DistributionError:
            continue
    return min(values)


class TestFourPointCertificate:
    def test_reference_quadruple_positive(self):
        assert distinct_four_determinant(3.0, 2.0, 1.0, 0.0) > 0.0

    def test_random_admissible_quadruples_positive(self):
        rng = np.random.default_rng(50)
        checked = 0
        while checked < 10_000:
            x = np.sort(rng.uniform(0.0, 20.0, size=4))[::-1]
            if not (x[0] > x[1] > x[2] > x[3]):
                continue
            assert distinct_four_determinant(*map(float, x)) > 0.0
            checked += 1

    def test_degenerating_pair_drives_value_to_zero(self):
        gaps = [1.0, 0.1, 0.01, 0.001]
        vals = [distinct_four_determinant(5.0, 2.0 + g, 2.0, 0.5) for g in gaps]
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))
        # vanishes linearly in the collapsing gap
        assert abs(vals[-1]) < 3.0 * gaps[-1]

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            distinct_four_determinant(1.0, 2.0, 0.5, 0.0)


class TestMiddlePairCertificate:
    def test_reference_triple(self):
        oracle = 1.0 - math.exp(-2.0) - 2.0 * math.exp(-1.0)
        assert middle_pair_excess(2.0, 1.0, 0.0) == pytest.approx(oracle, abs=1e-15)
        assert oracle > 0.0

    def test_random_admissible_triples_positive(self):
        rng = np.random.default_rng(51)
        checked = 0
        while checked < 10_000:
            x = np.sort(rng.uniform(0.0, 20.0, size=3))[::-1]
            if not (x[0] > x[1] > x[2]):
                continue
            assert middle_pair_excess(*map(float, x)) > 0.0
            checked += 1

    def test_degeneration_vanishes(self):
        for g in (0.1, 0.01, 0.001):
            assert abs(middle_pair_excess(2.0, 2.0 - g, 0.0)) < 3 * g
            assert abs(middle_pair_excess(2.0, g, 0.0)) < 3 * g

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            middle_pair_excess(1.0, 1.5, 0.0)


class TestMinimizeFixedC2:
    def test_degenerate_slice_returns_uniform(self):
        q, f = minimize_proxy_fixed_c2(6, 1.0 / 6.0, 4.0)
        assert f == pytest.approx(6 * math.exp(-4.0 / 6.0), abs=1e-12)

    def test_c2_below_one_over_n_rejected(self):
        with pytest.raises(DistributionError, match=r"c2=0.1 outside \[1/n, 1\]"):
            minimize_proxy_fixed_c2(6, 0.1, 4.0)

    def test_finds_topheavy_floor(self):
        q, f = minimize_proxy_fixed_c2(4, 0.3, 5.0)
        f_top = empty_boxes_proxy(topheavy(4, 0.3), 5.0)
        assert f >= f_top - 1e-9
        assert f <= 1.05 * f_top

    def test_best_shape_is_two_level(self):
        q, f = minimize_proxy_fixed_c2(5, 0.35, 4.0)
        w = q.sorted_desc()
        # one dominant head, near-flat tail
        assert w[0] - w[1] > 10.0 * (w[1] - w[-1])

    def test_search_never_beats_certificate(self):
        for n, c2, k in ((4, 0.35, 2.0), (6, 0.25, 7.0)):
            _, f = minimize_proxy_fixed_c2(n, c2, k)
            assert f >= empty_boxes_proxy(topheavy(n, c2), k) - 1e-9

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 300),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        k=st.floats(1e-3, 1e3),
    )
    def test_result_on_slice_with_its_proxy(self, n, frac, k):
        c2 = 1.0 / n + frac * (1.0 - 1.0 / n)
        assume(c2 < 1.0)
        q, f = minimize_proxy_fixed_c2(n, c2, k)
        assert abs(q.moments().c2 - c2) <= 1e-12 * c2
        assert abs(empty_boxes_proxy(q, k) - f) <= 1e-12 * f
        assert f - empty_boxes_proxy(topheavy(n, c2), k) >= -1e-9

    def test_two_boxes_return_a_slice_point(self):
        # the two-box slice is two mirror points of one shape
        q, f = minimize_proxy_fixed_c2(2, 5 / 8, 4.0)
        assert q.sorted_desc() == pytest.approx([0.75, 0.25], abs=1e-12)
        assert f == pytest.approx(math.exp(-3.0) + math.exp(-1.0), rel=1e-12)

    def test_no_slice_sample_beats_the_scan(self):
        rng = np.random.default_rng(26)
        for n in (3, 4, 5, 6):
            for c2 in (1.2 / n, 0.5 * (1.0 / n + 1.0), 0.95):
                for k in (0.5, 4.0, 20.0):
                    _, f = minimize_proxy_fixed_c2(n, c2, k)
                    samples = sample_fixed_c2_batch(n, c2, rng, 100_000)
                    assert proxy_rows(samples, k).min() >= f - 1e-12

    @pytest.mark.parametrize(
        "n, c2, expected",
        [(50, 0.05, 21.4728016), (200, 0.02, 82.7717361), (1000, 0.005, 391.518191)],
    )
    def test_minimum_is_topheavy_at_the_measured_points(self, n, c2, expected):
        q, f = minimize_proxy_fixed_c2(n, c2, float(n))
        f_top = empty_boxes_proxy(topheavy(n, c2), float(n))
        assert abs(f - f_top) <= 1e-12 * f_top
        assert f == pytest.approx(expected, rel=1e-8)
        assert level_count(q) == 2


class TestSearchInternals:
    def test_blocked_sampling_matches_one_draw(self):
        n, c2, k = 20, 0.15, 12.0
        size = 2 * _SAMPLE_BLOCK + 123
        got = sampled_proxy_min(n, c2, k, np.random.default_rng(7), size)
        full = sample_fixed_c2_batch(n, c2, np.random.default_rng(7), size)
        assert got == proxy_rows(full, k).min()
        assert sampled_proxy_min(n, c2, k, np.random.default_rng(7), 0) == math.inf

    def test_sampler_matches_mask_copy_reference(self):
        blends = set()  # which way the rows were slid, over all cases
        for n, c2 in ((2, 0.6), (5, 0.35), (50, 0.05), (200, 0.006), (7, 1.0 / 7.0)):
            got = sample_fixed_c2_batch(n, c2, np.random.default_rng(23), 3000)
            want = _mask_copy_fixed_c2_batch(n, c2, np.random.default_rng(23), 3000)
            assert np.array_equal(got, want)
            e = np.random.default_rng(23).standard_exponential((3000, n))
            c0 = ((e / e.sum(axis=1, keepdims=True)) ** 2).sum(axis=1)
            blends.update(np.where(c0 > c2, "uniform", "point mass"))
        assert blends == {"uniform", "point mass"}

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0])
    def test_k_checked_for_both_searches(self, k):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        c2, c3 = float(w @ w), float((w**3).sum())
        with pytest.raises(ValueError, match="finite k > 0"):
            minimize_proxy_fixed_c2(4, c2, k)
        with pytest.raises(ValueError, match="finite k > 0"):
            minimize_proxy_fixed_c2_c3(4, c2, c3, k)


class TestUniformGlobalFloor:
    def test_random_simplex_points(self):
        rng = np.random.default_rng(4)
        n, k = 6, 4.0
        floor = n * math.exp(-k / n)
        samples = rng.dirichlet(np.ones(n), size=100_000)
        assert proxy_rows(samples, k).min() >= floor - 1e-9


class TestMinimizeFixedC2C3:
    def test_walker_cannot_beat_three_level(self):
        rng = np.random.default_rng(5)
        for n in (4, 5, 6):
            base = ProbabilityVector(rng.dirichlet(np.full(n, 2.0)), normalize=True)
            m = base.moments()
            best = None
            for nu in range(1, n - 1):
                try:
                    v = three_level(n, m.c2, m.c3, nu)
                except Exception:
                    continue
                f = empty_boxes_proxy(v, 4.0)
                best = f if best is None else min(best, f)
            if best is None:
                continue
            _, f_walk = minimize_proxy_fixed_c2_c3(n, m.c2, m.c3, 4.0)
            assert f_walk >= best * (1.0 - 1e-3)

    def test_walker_stays_on_slice(self):
        base = ProbabilityVector([0.35, 0.25, 0.2, 0.12, 0.08])
        m = base.moments()
        q, _ = minimize_proxy_fixed_c2_c3(5, m.c2, m.c3, 4.0)
        w = q.weights
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        assert (w**2).sum() == pytest.approx(m.c2, abs=1e-10)
        assert (w**3).sum() == pytest.approx(m.c3, abs=1e-10)
        assert w.min() >= -1e-15

    def test_at_most_every_matched_three_level(self):
        rng = np.random.default_rng(27)
        for n in (4, 5, 6, 12, 30):
            for _ in range(5):
                p = ProbabilityVector(rng.dirichlet(np.full(n, 0.7)), normalize=True)
                m = p.moments()
                q, f = minimize_proxy_fixed_c2_c3(n, m.c2, m.c3, 5.0)
                assert f == empty_boxes_proxy(q, 5.0)
                rep = proxy_ordering(p, 5.0)
                assert rep.f_three
                assert all(f <= v for v in rep.f_three.values())
                assert f <= rep.f_value + 1e-12 * rep.f_value

    @pytest.mark.parametrize(
        "w, k, walk",
        [
            # the proxies where the random four-coordinate walk of earlier
            # versions ended, from these vectors (it needed about 20 000 and
            # 100 000 moves); the scan ties the first to rounding
            (np.array([0.4, 0.2, 0.2, 0.1, 0.1]), 4.0, 2.4402827881076545),
            (np.random.default_rng(13).dirichlet(np.full(50, 2.0)), 50.0, 22.252456067914718),
        ],
        ids=["grouped_n5", "dirichlet_n50"],
    )
    def test_at_most_the_walk_value(self, w, k, walk):
        c2, c3 = float(w @ w), float((w**3).sum())
        q, f = minimize_proxy_fixed_c2_c3(w.size, c2, c3, k)
        assert f <= walk * (1.0 + 1e-14)
        assert f >= _best_three_level(w.size, c2, c3, k) * (1.0 - 1e-12)
        v = q.weights
        assert abs(v @ v - c2) <= 1e-12 * c2
        assert abs((v**3).sum() - c3) <= 1e-12 * c3

    def test_three_boxes_return_their_one_shape(self):
        w = np.array([0.5, 0.3, 0.2])
        c2, c3 = float(w @ w), float((w**3).sum())
        q, f = minimize_proxy_fixed_c2_c3(3, c2, c3, 4.0)
        assert q.weights == pytest.approx(w, abs=1e-12)
        assert f == empty_boxes_proxy(q, 4.0)

    def test_no_feasible_shape_raises(self):
        with pytest.raises(DistributionError, match="no feasible three-level shape"):
            minimize_proxy_fixed_c2_c3(2, 0.5, 0.125, 4.0)


class TestProxyOrdering:
    def test_uniform_chain_collapses(self):
        rep = proxy_ordering(uniform(5), 4.0)
        assert rep.f_value == pytest.approx(rep.f_uniform, abs=1e-12)
        assert rep.f_topheavy == pytest.approx(rep.f_uniform, abs=1e-9)
        assert rep.ordered

    def test_generic_vector_ordered(self):
        rep = proxy_ordering(ProbabilityVector([0.4, 0.3, 0.2, 0.1]), 3.0)
        assert rep.ordered
        assert rep.f_three  # at least one feasible shape count
        assert rep.f_value >= max(rep.f_three.values()) - 1e-9
        assert min(rep.f_three.values()) >= rep.f_topheavy - 1e-9
        assert rep.f_topheavy >= rep.f_uniform - 1e-9

    def test_topheavy_self_comparison(self):
        th = topheavy(6, 0.25)
        rep = proxy_ordering(th, 4.0)
        assert rep.f_value == pytest.approx(rep.f_topheavy, abs=1e-10)
        assert rep.ordered

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0])
    def test_k_must_be_finite_and_positive(self, k):
        with pytest.raises(ValueError, match="finite k > 0"):
            proxy_ordering(uniform(5), k)

    def test_infeasible_shapes_reported_not_fatal(self):
        th = topheavy(6, 0.3)
        rep = proxy_ordering(th, 4.0)
        assert set(rep.f_three) | set(rep.infeasible) == set(range(1, 5))


class TestLevelCount:
    def test_counts_clusters(self):
        assert level_count(ProbabilityVector([0.4, 0.4, 0.15, 0.05])) == 3
        assert level_count(uniform(9)) == 1
        assert level_count(ProbabilityVector([0.5, 0.5 - 1e-9, 1e-9, 0.0])) == 2
