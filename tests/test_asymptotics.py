import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalsim import asymptotics, cli
from coalsim.asymptotics import (
    LimitLawResult,
    early_phase_experiment,
    expected_envelope_violations,
    kingman_limit_samples,
    ks_two_sample,
    limit_law_experiment,
    threshold_experiment,
)
from coalsim.distributions import ProbabilityVector, topheavy, uniform
from coalsim.dynamics import early_threshold, late_threshold, one_step_envelope
from coalsim.exact_chain import TriangularKernel, phase_decomposition
from coalsim.simulate import replicate_rng, step


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

    @pytest.mark.parametrize("n", [1, 0])
    def test_n_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 2"):
            threshold_experiment([n], "ln", 5, seed=0)


class TestEarlyPhaseExperiment:
    def test_moderate_size(self):
        res = early_phase_experiment(1000, 0.2)
        assert res.mean_tau_early <= res.qs_bound
        assert res.early_ratio <= 0.1
        assert res.middle_ratio <= 0.2
        assert res.mean_middle >= 0.0

    def test_threshold_ordering_and_nonnegativity(self):
        # the early threshold sits below n and above the late threshold, so
        # both passage means are finite and ordered
        res = early_phase_experiment(20, 0.01)
        assert res.k_1 < res.k_star < 20
        assert 0.0 <= res.mean_tau_early <= res.mean_tau_early + res.mean_middle

    def test_deterministic(self):
        # the expected passage times are the early and middle parts of the
        # exact phase split at the two thresholds, bit for bit
        n, eps, c2 = 200, 0.2, 1.0 / 200
        res = early_phase_experiment(n, eps)
        k_star, k_1 = early_threshold(c2, n, eps), late_threshold(c2, n, eps)
        phases = phase_decomposition(uniform(n), k_star, k_1)
        assert (res.k_star, res.k_1) == (k_star, k_1)
        assert (res.mean_tau_early, res.mean_middle) == (phases.early, phases.middle)
        assert (res.early_ratio, res.middle_ratio) == (phases.early * c2, phases.middle * c2)
        assert res == early_phase_experiment(n, eps)


class TestEnvelopeBreaches:
    """The expected count of rounds from k >= k* that end above the one-step
    envelope of k, by one reward column of the back-substitution."""

    def test_uniform_within_dropped_mass(self):
        # every mass above the envelope lies in entries the banded rows trim
        count, dropped = expected_envelope_violations(uniform(1000), 0.2)
        assert count <= dropped < 1e-15

    def test_uniform_three_by_hand(self):
        # k* = 3 ln(3)^-0.2 = 2.94, so only rounds from 3 balls count; the
        # envelope of 3 is 3 - 1.5/e = 2.45, so a round breaches when all three
        # balls stay apart, with chance 2/9, and the rounds at 3 before the
        # first fall number (2/9) / (7/9) = 2/7 in expectation
        count, dropped = expected_envelope_violations(uniform(3), 0.2)
        assert count == pytest.approx(2.0 / 7.0, rel=1e-14)
        assert dropped == 0.0

    def test_point_mass_never_breaches(self):
        # one round takes every ball to the one box, below the envelope of n
        p = ProbabilityVector([1.0] + [0.0] * 9)
        assert expected_envelope_violations(p, 0.2) == (0.0, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 40),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.01, 0.24),
    )
    def test_equals_dense_solve(self, n, levels, seed, eps):
        # (I - P) v = r over the states 2..n, with the dense exact rows and
        # r[k] the mass each row puts strictly above the envelope from k* up;
        # few levels take the banded rows, many the box pass
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(rng.choice(rng.random(levels), n), normalize=True)
        kernel = TriangularKernel(p)
        matrix = np.zeros((n + 1, n + 1))
        for k in range(1, n + 1):
            matrix[k, : k + 1] = kernel.row(k).probs
        k_star = early_threshold(p.moments().c2, n, eps)
        r = np.array([
            matrix[k, np.arange(n + 1) > one_step_envelope(p, k)].sum() if k >= k_star else 0.0
            for k in range(n + 1)
        ])
        want = np.linalg.solve(np.eye(n - 1) - matrix[2:, 2:], r[2:])[-1]
        count, dropped = expected_envelope_violations(p, eps)
        assert count == pytest.approx(want, rel=1e-9, abs=1e-12 + dropped)

    def test_topheavy_matches_step_draws(self):
        # plain rounds of step, no kernel rows: each run counts its rounds
        # from k >= k* that end above the envelope of k, until it falls below k*
        p, eps = topheavy(1000, 0.02), 0.2
        k_star = early_threshold(p.moments().c2, p.n, eps)
        breaches = []
        for i in range(400):
            rng, b, count = replicate_rng(31, i), p.n, 0
            while b >= k_star:
                nxt = step(p, b, rng)
                count += nxt > one_step_envelope(p, b)
                b = nxt
            breaches.append(count)
        mean, se = np.mean(breaches), np.std(breaches, ddof=1) / math.sqrt(len(breaches))
        exact, dropped = expected_envelope_violations(p, eps)
        assert dropped < 1e-15 and 0.5 < exact < 0.6
        assert abs(mean - exact) <= 3.0 * se


class TestExperimentConfig:
    """The limit and threshold configs, as the command line parses them."""

    @staticmethod
    def run(tmp_path, command, payload, seed=0):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        argv = [command, "--config", str(path), "--seed", str(seed), "--quiet"]
        return cli.main(argv + ["--out", str(tmp_path / "run")])

    @pytest.fixture
    def calls(self, monkeypatch):
        """The limit-law experiments the command line asks for, none of them run."""
        calls = []

        def record(n, replicates, seed, truncation):
            calls.append((n, replicates, seed, truncation))
            return LimitLawResult(n, replicates, 2.0 * n, 1.0, 0.0)

        monkeypatch.setattr(asymptotics, "limit_law_experiment", record)
        return calls

    def test_validation(self, tmp_path, calls, monkeypatch):
        monkeypatch.setattr(asymptotics, "threshold_experiment", lambda *a: calls.append(a))
        for command, payload in (
            ("limit", {"n_values": [100], "replicates": 10}),
            ("threshold", {"n_values": [100], "replicates": 10, "K": 1}),
            ("limit", {"n_values": [100], "replicates": 100, "K": 1}),
            ("threshold", {"n_values": [], "replicates": 10}),
        ):
            assert self.run(tmp_path, command, payload) == 1
        assert calls == []

    def test_from_dict(self, tmp_path, calls):
        payload = {"n_values": [100, 1000], "replicates": 500, "K": 64}
        assert self.run(tmp_path, "limit", payload, seed=7) == 0
        assert calls == [(100, 500, 7, 64), (1000, 500, 7, 64)]

    def test_sizes_must_be_whole_numbers(self, tmp_path, calls, capsys):
        for payload, field in (
            ({"n_values": [50.7]}, "'n_values'"),
            ({"n": 30.5}, "'n'"),
            ({"n": 50, "replicates": 150.9}, "'replicates'"),
            ({"n": 50, "K": 1000.5}, "'K'"),
        ):
            assert self.run(tmp_path, "limit", payload) == 1
            assert field in capsys.readouterr().err
        payload = {"n_values": [50.0], "replicates": 150.0, "K": 64.0}
        assert self.run(tmp_path, "limit", payload) == 0
        assert calls == [(50, 150, 0, 64)]
        assert all(type(v) is int for v in calls[0])

    def test_numeric_lambda_is_a_collision_rate(self, tmp_path, capsys, monkeypatch):
        rules = []

        def record(ns, rule, replicates, seed):
            rules.append(rule)
            return []

        monkeypatch.setattr(asymptotics, "threshold_experiment", record)
        assert self.run(tmp_path, "threshold", {"n": 50, "lambda": 1}) == 0
        assert rules[0](50) == math.log(50) ** 2  # c2 = lambda(n) / ln^2 n = 1.0
        for rule in (True, None, [1]):
            assert self.run(tmp_path, "threshold", {"n": 50, "lambda": rule}) == 1
            assert "'lambda'" in capsys.readouterr().err
