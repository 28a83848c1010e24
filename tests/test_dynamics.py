import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalsim.cli import main
from coalsim.distributions import ProbabilityVector, three_level, topheavy, uniform
from coalsim.dynamics import (
    early_threshold,
    empty_boxes_proxy,
    envelope_margin,
    expected_next_count,
    late_threshold,
    occupancy_proxy,
    one_step_envelope,
)
from coalsim.exact_chain import TriangularKernel, transition_row


def random_vector(rng, n):
    return ProbabilityVector(rng.dirichlet(np.ones(n)), normalize=True)


class TestEmptyBoxesProxy:
    def test_zero_k_gives_n(self):
        assert empty_boxes_proxy(uniform(7), 0.0) == pytest.approx(7.0, abs=1e-12)

    def test_uniform_closed_form(self):
        for n, k in ((5, 2.0), (10, 7.5)):
            assert empty_boxes_proxy(uniform(n), k) == pytest.approx(
                n * math.exp(-k / n), abs=1e-12
            )

    def test_direct_evaluation(self):
        p = ProbabilityVector([0.75, 0.25])
        assert empty_boxes_proxy(p, 4.0) == pytest.approx(
            math.exp(-3.0) + math.exp(-1.0), abs=1e-12
        )

    def test_uniform_is_global_floor(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            k = float(rng.uniform(0.0, 2 * n))
            p = random_vector(rng, n)
            assert empty_boxes_proxy(p, k) >= n * math.exp(-k / n) - 1e-9

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            empty_boxes_proxy(uniform(3), -1.0)


class TestOccupancyProxy:
    def test_complement_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            p = random_vector(rng, n)
            k = float(rng.uniform(0.0, 2 * n))
            total = occupancy_proxy(p, k) + empty_boxes_proxy(p, k)
            assert total == pytest.approx(n, abs=1e-12)

    def test_bracketed_by_exact_mean(self):
        # smoothed predictor <= exact conditional mean <= k
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            p = random_vector(rng, n)
            k = int(rng.integers(1, n + 1))
            lo = occupancy_proxy(p, k)
            mid = expected_next_count(p, k)
            assert lo <= mid + 1e-12
            assert mid <= k + 1e-12


class TestExpectedNextCount:
    def test_single_ball(self):
        assert expected_next_count(uniform(9), 1) == pytest.approx(1.0, abs=1e-12)

    def test_two_fair_coins(self):
        p = ProbabilityVector([0.5, 0.5])
        assert expected_next_count(p, 2) == pytest.approx(1.5, abs=1e-12)

    def test_matches_kernel_row_mean(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            p = random_vector(rng, n)
            k = int(rng.integers(1, n + 1))
            row = transition_row(p, k)
            assert row.mean == pytest.approx(expected_next_count(p, k), abs=1e-10)

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_outside_one_to_n_rejected(self, k):
        with pytest.raises(ValueError, match=rf"k={k} outside \[1, n=4\]"):
            expected_next_count(uniform(4), k)


class TestOneStepEnvelope:
    def test_zero(self):
        assert one_step_envelope(uniform(4), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_value(self):
        expected = (10 + 10 * (1 - math.exp(-1.0))) / 2
        assert one_step_envelope(uniform(10), 10.0) == pytest.approx(expected, abs=1e-9)

    def test_strictly_below_k_for_spread_vectors(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            p = random_vector(rng, n)
            k = float(rng.uniform(0.1, n))
            assert one_step_envelope(p, k) < k

    def test_sandwich(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            p = random_vector(rng, n)
            k = float(rng.uniform(0.0, n))
            phi = occupancy_proxy(p, k)
            psi = one_step_envelope(p, k)
            assert 0.0 <= phi + 1e-12
            assert phi <= psi + 1e-12
            assert psi <= k + 1e-12

    def test_caps_exact_rows_past_early_threshold(self):
        # first-step analysis on the exact kernel: from every k at or above k*,
        # no next count above the envelope carries mass
        n = 1000
        p = uniform(n)
        kernel = TriangularKernel(p)
        for k in range(math.ceil(early_threshold(1.0 / n, n, 0.2)), n + 1):
            above = kernel.row(k).probs[math.floor(one_step_envelope(p, k)) + 1 :]
            assert above.sum() <= 1e-12, k


class TestEnvelopeMargin:
    def test_zero_k_rejected(self):
        with pytest.raises(ValueError, match="k must be positive"):
            envelope_margin(uniform(4), 0)

    def test_vanishes_at_zero(self):
        p = uniform(6)
        assert envelope_margin(p, 1e-6) <= 1e-9

    def test_increasing_in_k(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            p = random_vector(rng, n)
            vals = [envelope_margin(p, k) for k in range(1, n + 1)]
            assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_finite_where_the_square_of_the_gap_overflows(self, tmp_path):
        # gap * gap overflows from |gap| ~ 1.3e154, while the margin is about k / 4
        p = uniform(10)
        ks = np.array([0.5, 3.0, 1e100, 1e154, 1e200, 1e308])
        margin = envelope_margin(p, ks)
        assert margin[-2:] == pytest.approx(ks[-2:] / 4, rel=1e-15)
        assert envelope_margin(p, 1e308) == margin[-1]
        gap = 0.5 * (ks[:4] - 10 + empty_boxes_proxy(p, ks[:4]))
        assert margin[:4].tolist() == (gap * gap / ks[:4]).tolist()  # bit for bit
        cfg = tmp_path / "dyn.json"
        config = {"distribution": {"family": "uniform", "n": 10}, "k_values": [1e308]}
        cfg.write_text(json.dumps(config))
        out = str(tmp_path / "d")
        assert main(["dynamics", "--config", str(cfg), "--out", out, "--quiet"]) == 0
        row = (tmp_path / "d.csv").read_text().splitlines()[1]
        assert row == "1e+308,0,10,5.0000000000000001e+307,2.5e+307"

    def test_uniform_cubic_floor(self):
        for n in (5, 20, 100):
            p = uniform(n)
            for k in range(1, n + 1):
                assert envelope_margin(p, k) >= k**3 / (36.0 * n * n) - 1e-12


class TestDynamicsTable:
    @pytest.mark.parametrize(
        "p",
        [
            uniform(300),
            topheavy(500, 0.02),
            three_level(120, 0.05, 0.0055, 3),
            ProbabilityVector(
                np.random.default_rng(18).dirichlet(np.ones(1000)) * (np.arange(1000) % 7 > 0),
                normalize=True,
            ),
        ],
        ids=["uniform", "topheavy", "three_level", "dirichlet_zeros"],
    )
    def test_columns_match_direct_sums(self, tmp_path, p):
        # the Dirichlet vector has a seventh of its weights zero and enough
        # distinct levels that the k grid is taken in several blocks
        w = p.weights
        cfg = tmp_path / "dyn.json"
        cfg.write_text(json.dumps({"distribution": {"family": "explicit",
                                                    "weights": w.tolist()}}))
        out = tmp_path / "dyn"
        assert main(["dynamics", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(tmp_path / "dyn.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], np.arange(p.n + 1))
        direct = np.array([np.exp(-k * w).sum() for k in rows[:, 0]])
        assert np.allclose(rows[:, 1], direct, rtol=1e-12, atol=0.0)
        assert np.allclose(rows[:, 2], p.n - direct, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(rows[:, 4]) >= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.integers(0, 5),
    )
    def test_one_array_call_equals_scalar_calls(self, n, seed, zeros):
        # the value at each k does not depend on how many k share the call
        w = np.random.default_rng(seed).dirichlet(np.ones(n))
        p = ProbabilityVector(np.concatenate((w, np.zeros(zeros))), normalize=True)
        ks = np.arange(p.n + 1.0)
        assert empty_boxes_proxy(p, ks).tolist() == [empty_boxes_proxy(p, k) for k in ks]

    @pytest.mark.parametrize(
        "p", [topheavy(1000, 0.02), ProbabilityVector(np.random.default_rng(4).dirichlet(np.ones(40)))],
        ids=["topheavy1000", "dirichlet40"],
    )
    def test_array_call_over_all_k_equals_scalar_calls(self, p):
        ks = np.arange(p.n + 1.0)
        assert empty_boxes_proxy(p, ks).tolist() == [empty_boxes_proxy(p, k) for k in ks]

    def test_array_k_matches_scalar_calls(self):
        p = topheavy(40, 0.1)
        ks = np.array([[0.5, 3.0], [40.0, 7.25]])
        for fn in (empty_boxes_proxy, occupancy_proxy, one_step_envelope, envelope_margin):
            got = fn(p, ks)
            assert got.shape == ks.shape
            assert got.tolist() == [[fn(p, float(k)) for k in row] for row in ks]


class TestThresholds:
    def test_early_substitution(self):
        assert early_threshold(1.0 / 16, 16, 0.2) == pytest.approx(
            16 * math.log(16) ** -0.2, rel=1e-12
        )
        assert early_threshold(0.1, 16, 0.2) == pytest.approx(
            10 * math.log(16) ** -0.2, rel=1e-12
        )

    def test_late_substitution(self):
        assert late_threshold(0.01, 100, 0.2) == pytest.approx(
            10 * math.log(100) ** -0.05, rel=1e-12
        )

    def test_late_below_early_in_regime(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(3, 10_000))
            eps = float(rng.uniform(1e-3, 0.25 - 1e-3))
            c2 = float(rng.uniform(1e-6, 1.0)) * math.log(n) ** -2
            if c2 <= 0:
                continue
            assert late_threshold(c2, n, eps) < early_threshold(c2, n, eps)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            early_threshold(0.1, 16, 0.3)
        with pytest.raises(ValueError):
            late_threshold(0.0, 16, 0.2)
        with pytest.raises(ValueError):
            early_threshold(0.1, 2, 0.2)
