"""Acceptance gate: one test per criterion, each printing a PASS line with its
headline numbers (run with -s to see them).  Seeds are pinned; every criterion
is deterministic given its seed and independent of replicate order."""

import json
import math
import time

import numpy as np
import pytest

import coalsim as cs
from coalsim.cli import main as cli_main
from coalsim.variational import (
    distinct_four_determinant,
    middle_pair_excess,
    proxy_rows,
)


def crit(number, message):
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


def random_vector(rng, n):
    return cs.ProbabilityVector(rng.dirichlet(np.ones(n)), normalize=True)


def test_c01_kernel_matches_surjection_oracle():
    start = time.time()
    worst = 0.0
    worst_sum = 0.0
    for n in range(2, 11):
        kernel = cs.TriangularKernel(cs.uniform(n))
        for k in range(1, n + 1):
            dp = kernel.row(k).probs
            oracle = cs.uniform_row_exact(n, k).probs
            worst = max(worst, float(np.abs(dp - oracle).max()))
            worst_sum = max(worst_sum, abs(float(dp.sum()) - 1.0))
    elapsed = time.time() - start
    assert worst <= 1e-12
    assert worst_sum <= 1e-10
    assert elapsed < 5.0
    crit(1, f"kernel vs big-integer oracle: max |diff|={worst:.2e}, "
            f"max |row sum - 1|={worst_sum:.2e}, {elapsed:.2f}s")


def test_c02_exact_expected_times():
    start = time.time()
    et2 = cs.expected_coalescence_times(cs.TriangularKernel(cs.uniform(2)))[2]
    assert abs(et2 - 2.0) <= 1e-12
    skew = cs.ProbabilityVector([0.75, 0.25])
    et_skew = cs.expected_coalescence_times(cs.TriangularKernel(skew))[2]
    assert abs(et_skew - 1.6) <= 1e-12
    margins = []
    for n in range(2, 13):
        et = cs.expected_coalescence_times(cs.TriangularKernel(cs.uniform(n)))[n]
        assert et <= 2 * n - 2 + 1e-9
        margins.append(2 * n - 2 - et)
    elapsed = time.time() - start
    assert elapsed < 5.0
    crit(2, f"E[T]: uniform pair exactly 2, skewed pair exactly 1.6, "
            f"pairwise-merge cap holds for n=2..12 (min margin {min(margins):.3f}), "
            f"{elapsed:.2f}s")


def test_c03_monte_carlo_matches_exact():
    start = time.time()
    rng = np.random.default_rng(314)
    vectors = [
        cs.uniform(12),
        cs.topheavy(10, 0.30),
        cs.topheavy(12, 0.20),
        cs.ProbabilityVector(rng.dirichlet(np.ones(9)), normalize=True),
        cs.ProbabilityVector(rng.dirichlet(np.full(11, 2.0)), normalize=True),
    ]
    deviations = []
    for p in vectors:
        exact = cs.expected_coalescence_times(cs.TriangularKernel(p))[p.n]
        summary = cs.batch(cs.SimConfig(p=p, replicates=100_000, master_seed=1001))
        dev = abs(summary.t.mean - exact) / summary.t.stderr
        assert dev <= 3.0
        deviations.append(dev)
    elapsed = time.time() - start
    assert elapsed < 60.0
    crit(3, f"batch means within 3 stderr of exact for 5 vectors at 1e5 "
            f"replicates (max deviation {max(deviations):.2f} sd), {elapsed:.1f}s")


def test_c04_chernoff_bounds_dominate_exact_tails():
    start = time.time()
    rng = np.random.default_rng(271)
    vectors = []
    for n in range(2, 11):
        vectors.append(cs.uniform(n))
        vectors.append(cs.topheavy(n, 1.5 / n))
    vectors += [random_vector(rng, int(rng.integers(2, 11))) for _ in range(20)]
    checked = 0
    for p in vectors:
        for k in range(1, p.n + 1):
            row = cs.transition_row(p, k)
            center = cs.tilt_center(p, k)
            for b in range(1, k + 1):
                lo, hi = row.tail_split(b)
                if b <= center:
                    assert lo <= cs.chernoff_lower_tail(p, k, b) + 1e-12
                    checked += 1
                if b >= center:
                    assert hi <= cs.chernoff_upper_tail(p, k, b) + 1e-12
                    checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    crit(4, f"exact tails below the exponential caps in {checked} "
            f"(vector, k, b) cases over {len(vectors)} vectors, {elapsed:.1f}s")


def test_c05_variational_certificates():
    start = time.time()
    rng = np.random.default_rng(161)
    worst_gap = -math.inf
    for n in (4, 5, 6):
        for c2_scale in (1.5, 3.0):
            c2 = c2_scale / n
            samples = cs.sample_fixed_c2_batch(n, c2, rng, 100_000)
            theta = cs.topheavy(n, c2).weights
            for k in (2.0, 5.0, 10.0):
                floor = float(np.exp(-k * theta).sum())
                best = float(proxy_rows(samples, k).min())
                assert best >= floor - 1e-9
                worst_gap = max(worst_gap, floor - best)
    quad = 0
    while quad < 10_000:
        x = np.sort(rng.uniform(0.0, 20.0, 4))[::-1]
        if not (x[0] > x[1] > x[2] > x[3]):
            continue
        assert distinct_four_determinant(*map(float, x)) > 0.0
        quad += 1
    trip = 0
    while trip < 10_000:
        x = np.sort(rng.uniform(0.0, 20.0, 3))[::-1]
        if not (x[0] > x[1] > x[2]):
            continue
        assert middle_pair_excess(*map(float, x)) > 0.0
        trip += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    crit(5, f"1e5-point slices never beat the two-valued floor (worst "
            f"overshoot {max(worst_gap, 0.0):.2e}); both positivity "
            f"certificates hold on 1e4 random tuples each, {elapsed:.1f}s")


def test_c06_monotonicity_laws():
    start = time.time()
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        p = random_vector(rng, n)
        margins = [cs.envelope_margin(p, k) for k in range(1, n + 1)]
        assert all(b > a - 1e-12 for a, b in zip(margins, margins[1:]))
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = random_vector(rng, n)
        kernel = cs.TriangularKernel(p)
        diag = [kernel.row(k).probs[k] for k in range(1, n + 1)]
        assert all(b < a + 1e-12 for a, b in zip(diag, diag[1:]))
        et = cs.expected_coalescence_times(kernel)
        assert np.all(np.diff(et[1:]) >= -1e-12)
    elapsed = time.time() - start
    crit(6, f"margin increasing (100 vectors, n<=50); self-loop mass "
            f"decreasing and expected times nondecreasing (100 vectors, "
            f"n<=12), {elapsed:.1f}s")


def test_c07_stationary_curve_suite():
    start = time.time()
    worst_center = 0.0
    for p in (cs.uniform(20), cs.topheavy(20, 0.1)):
        for k in (5, 10, 15):
            center = cs.tilt_center(p, k)
            worst_center = max(
                worst_center, abs(cs.tilt_exponent(p, k, 1.0, k / 20.0, center))
            )
            grid = [center + off for off in (-2, -1, 0, 1, 2) if 0 < center + off <= k]
            report = cs.curvature_report(p, k, grid)
            assert not report.skipped
            for pt in report.points:
                assert pt.hessian_det > 0.0
                assert pt.curvature_fd <= -1.0 / k + 1e-6
                assert pt.slope_ok
    assert worst_center <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 30.0
    crit(7, f"stationary curve: center exponent |H|<={worst_center:.1e}, "
            f"Hessian determinant positive, curvature <= -1/k, slope matches "
            f"-ln z to 1e-4 at n=20, k in (5, 10, 15), {elapsed:.1f}s")


@pytest.mark.slow
def test_c08_limit_law_desk_scale():
    start = time.time()
    rng = np.random.default_rng(123)
    total, count = 0.0, 0
    for _ in range(10):
        draws = cs.kingman_limit_samples(rng, 1000, 100_000)
        total += float(draws.sum())
        count += draws.size
    mean = total / count
    assert 1.99 <= mean <= 2.01
    small = cs.limit_law_experiment(100, 5000, seed=11)
    large = cs.limit_law_experiment(1000, 5000, seed=11)
    assert 0.90 <= large.mean_ratio <= 1.02
    assert large.ks_distance <= 0.10
    assert large.ks_distance < small.ks_distance
    elapsed = time.time() - start
    assert elapsed < 600.0
    crit(8, f"truncated limit sampler mean {mean:.5f}; n=1000 ratio "
            f"{large.mean_ratio:.4f}, KS {large.ks_distance:.4f} "
            f"(down from {small.ks_distance:.4f} at n=100), {elapsed:.0f}s")


@pytest.mark.slow
def test_c09_threshold_phenomenon():
    start = time.time()
    rows = cs.threshold_experiment((100, 1000, 10_000), "ln", 1000, seed=42)
    tops = [r.scaled_mean_top for r in rows]
    assert all(a < b for a, b in zip(tops, tops[1:]))
    for r in rows:
        assert 1.8 <= r.scaled_mean_uniform <= 2.05
    assert rows[-1].slow_fraction >= 0.99
    elapsed = time.time() - start
    assert elapsed < 600.0
    crit(9, f"heavy-vector scaled means strictly increase "
            f"({', '.join(f'{t:.3f}' for t in tops)}); uniform controls in "
            f"[1.8, 2.05]; slow fraction {rows[-1].slow_fraction:.3f} at "
            f"n=1e4, {elapsed:.0f}s")


@pytest.mark.slow
def test_c10_envelope_event_and_early_phase():
    start = time.time()
    # the expected number of envelope breaches in 200 runs at n = 1000 bounds
    # the chance that any of them breaches (Markov).  Each row's breach chance
    # is short by at most the trimmed mass, over the expected rounds above k*
    count, dropped = cs.expected_envelope_violations(cs.uniform(1000), 0.2)
    rounds = cs.early_phase_experiment(1000, 0.2).mean_tau_early
    assert 200 * (count + dropped * rounds) <= 1e-15
    res = cs.early_phase_experiment(10_000, 0.2)
    assert res.early_ratio <= 0.1
    assert res.middle_ratio <= 0.2
    assert res.mean_tau_early <= res.qs_bound
    elapsed = time.time() - start
    assert elapsed < 300.0
    crit(10, f"expected envelope breaches in 200 runs at n=1000: "
             f"{200 * count:.3g}, within {200 * dropped * rounds:.2g}; "
             f"n=1e4 scaled passage times {res.early_ratio:.4f} (early) and "
             f"{res.middle_ratio:.4f} (middle), {elapsed:.0f}s")


def test_c11_determinism(tmp_path):
    start = time.time()
    # batch statistics do not depend on the order replicates are run in
    config = cs.SimConfig(
        p=cs.topheavy(40, 0.1),
        replicates=600,
        master_seed=5,
        passage_thresholds=(20.0, 5.0),
    )
    reversed_runs = [cs.run(config, i) for i in reversed(range(config.replicates))]
    assert cs.batch(config) == cs.BatchSummary.from_runs(
        reversed_runs, config.passage_thresholds
    )
    # per-replicate results are reproducible one by one
    runs_a = [cs.run(config, i).T for i in range(50)]
    runs_b = [cs.run(config, i).T for i in range(50)]
    assert runs_a == runs_b
    # experiments rerun identically
    assert cs.threshold_experiment((100,), "ln", 150, seed=3) == cs.threshold_experiment(
        (100,), "ln", 150, seed=3
    )
    assert cs.limit_law_experiment(60, 200, seed=8) == cs.limit_law_experiment(
        60, 200, seed=8
    )
    # command line outputs are byte-identical across reruns
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {
                "distribution": {"family": "topheavy", "n": 25, "c2": 0.15},
                "replicates": 400,
                "thresholds": [10.0],
            }
        )
    )
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        code = cli_main(
            ["simulate", "--config", str(cfg), "--seed", "17", "--out", str(out), "--quiet"]
        )
        assert code == 0
        blobs.append(
            (tmp_path / f"run_{tag}.replicates.csv").read_bytes()
            + (tmp_path / f"run_{tag}.json").read_bytes()
        )
    assert blobs[0] == blobs[1]
    elapsed = time.time() - start
    crit(11, f"replicate-order-free batches, reproducible replicates, identical "
             f"experiment reruns, byte-identical command line outputs, "
             f"{elapsed:.1f}s")
