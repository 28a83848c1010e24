import math

import numpy as np
import pytest

from coalsim.asymptotics import (
    ExperimentConfig,
    early_phase_experiment,
    kingman_limit_samples,
    ks_two_sample,
    limit_law_experiment,
    threshold_experiment,
)


class _ZeroRng:
    def exponential(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class TestKsTwoSample:
    def test_tiny_oracle(self):
        # F_x - F_y maximal between 2 and 3: |2/3 - 0| = 2/3
        assert ks_two_sample([1, 2, 3], [3, 4, 5]) == pytest.approx(2 / 3)

    def test_identical_samples(self):
        assert ks_two_sample([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 0.0

    def test_split_half_null(self):
        rng = np.random.default_rng(7)
        draws = kingman_limit_samples(rng, 1000, 20_000)
        assert ks_two_sample(draws[:10_000], draws[10_000:]) <= 0.03

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestKingmanSampler:
    def test_zero_noise_leaves_tail_constant(self):
        assert kingman_limit_samples(_ZeroRng(), 2, 1)[0] == pytest.approx(1.0)

    def test_mean_is_two(self):
        rng = np.random.default_rng(8)
        draws = kingman_limit_samples(rng, 1000, 200_000)
        assert 1.98 <= draws.mean() <= 2.02

    def test_truncation_insensitive_variance(self):
        # equal generator state shares the common prefix of columns, so the
        # two estimates differ only by the vanishing tail
        v = {}
        for trunc in (1000, 10_000):
            rng = np.random.default_rng(99)
            v[trunc] = kingman_limit_samples(rng, trunc, 50_000).var()
        assert abs(v[1000] - v[10_000]) <= 0.01 * v[1000]

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            kingman_limit_samples(np.random.default_rng(0), 1, 1)


class TestLimitLawExperiment:
    def test_moderate_size_bands(self):
        res = limit_law_experiment(100, 1000, seed=11)
        assert 0.9 <= res.mean_ratio <= 1.05
        assert res.ks_distance <= 0.12

    def test_deterministic(self):
        a = limit_law_experiment(50, 300, seed=5)
        b = limit_law_experiment(50, 300, seed=5)
        assert a == b


class TestThresholdExperiment:
    def test_quick_trend(self):
        rows = threshold_experiment((100, 400), "ln", 300, seed=17)
        assert rows[0].scaled_mean_top < rows[1].scaled_mean_top
        for row in rows:
            assert 1.7 <= row.scaled_mean_uniform <= 2.1
            assert 0.0 <= row.slow_fraction <= 1.0

    def test_callable_rule(self):
        rows = threshold_experiment([64], lambda n: math.log(n), 50, seed=1)
        assert rows[0].c2 == pytest.approx(1.0 / math.log(64))

    def test_deterministic(self):
        a = threshold_experiment([100], "ln", 100, seed=3)
        b = threshold_experiment([100], "ln", 100, seed=3)
        assert a == b

    def test_out_of_range_rate_rejected(self):
        # ln(2) < 1 makes the implied collision rate exceed 1
        with pytest.raises(ValueError):
            threshold_experiment([2], "ln", 10, seed=0)


class TestEarlyPhaseExperiment:
    def test_moderate_size(self):
        res = early_phase_experiment(1000, 0.2, 50, seed=23)
        assert res.mean_tau_early <= res.qs_bound
        assert res.early_ratio <= 0.1
        assert res.middle_ratio <= 0.2
        assert res.mean_middle >= 0.0

    def test_threshold_ordering_and_nonnegativity(self):
        # the early threshold sits below n and above the late threshold, so
        # both passage means are finite and ordered
        res = early_phase_experiment(20, 0.01, 10, seed=1)
        assert res.k_1 < res.k_star < 20
        assert 0.0 <= res.mean_tau_early <= res.mean_tau_early + res.mean_middle

    def test_deterministic(self):
        a = early_phase_experiment(200, 0.2, 20, seed=9)
        b = early_phase_experiment(200, 0.2, 20, seed=9)
        assert a == b


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="limit", n_values=(100,), replicates=10, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                kind="threshold", n_values=(100,), replicates=10, seed=0, truncation=1
            )
        with pytest.raises(ValueError):
            ExperimentConfig(kind="threshold", n_values=(), replicates=10, seed=0)

    def test_from_dict(self):
        cfg = ExperimentConfig.from_dict(
            "limit", {"n_values": [100, 1000], "replicates": 500, "K": 64}, 7
        )
        assert cfg.n_values == (100, 1000)
        assert cfg.truncation == 64
        assert cfg.seed == 7

    def test_sizes_must_be_whole_numbers(self):
        for payload, field in (
            ({"n_values": [50.7]}, "'n_values'"),
            ({"n": 30.5}, "'n'"),
            ({"n": 50, "replicates": 150.9}, "'replicates'"),
            ({"n": 50, "K": 1000.5}, "'K'"),
        ):
            with pytest.raises(ValueError, match=field):
                ExperimentConfig.from_dict("threshold", payload, 0)
        cfg = ExperimentConfig.from_dict(
            "threshold", {"n_values": [50.0], "replicates": 150.0, "K": 64.0}, 0
        )
        assert (cfg.n_values, cfg.replicates, cfg.truncation) == ((50,), 150, 64)

    def test_numeric_lambda_is_a_collision_rate(self):
        cfg = ExperimentConfig.from_dict("threshold", {"n": 50, "lambda": 1}, 0)
        assert cfg.c2_rule == 1.0 and isinstance(cfg.c2_rule, float)
        for rule in (True, None, [1]):
            with pytest.raises(ValueError, match="'lambda'"):
                ExperimentConfig.from_dict("threshold", {"n": 50, "lambda": rule}, 0)
