import bisect
import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from coalsim import exact_chain, simulate
from coalsim.distributions import ProbabilityVector, three_level, topheavy, uniform
from coalsim.dynamics import early_threshold, late_threshold, one_step_envelope
from coalsim.exact_chain import (
    TriangularKernel,
    coalescence_time_cdf,
    expected_coalescence_times,
    phase_decomposition,
    transition_row,
)
from coalsim.simulate import (
    AliasTable,
    BatchSummary,
    RunningStats,
    SimConfig,
    _distinct,
    _holding,
    _route,
    _seed_states,
    batch,
    delta_audit,
    replicate_rng,
    run,
    runs,
    step,
)

CHI2_999_DF2 = 13.815510557964274


class TestAliasTable:
    def test_uniform_degenerates_to_identity(self):
        table = AliasTable(np.full(8, 0.125))
        assert np.all(table.prob == 1.0)

    def test_draw_frequencies(self):
        w = np.array([0.5, 0.3, 0.2])
        table = AliasTable(w)
        rng = np.random.default_rng(0)
        draws = table.draw(rng, 200_000)
        freq = np.bincount(draws, minlength=3) / draws.size
        assert np.abs(freq - w).max() < 0.005


class TestStep:
    def test_single_ball(self):
        rng = replicate_rng(0, 0)
        assert all(step(uniform(5), 1, rng) == 1 for _ in range(20))

    def test_point_mass(self):
        p = ProbabilityVector([1.0, 0.0, 0.0])
        rng = replicate_rng(0, 1)
        assert all(step(p, 3, rng) == 1 for _ in range(20))

    def test_range(self):
        p = uniform(4)
        rng = replicate_rng(1, 0)
        for _ in range(200):
            got = step(p, 3, rng)
            assert 1 <= got <= 3

    def test_empirical_matches_kernel(self):
        p = uniform(4)
        probs = transition_row(p, 3).probs
        rng = replicate_rng(99, 0)
        counts = np.zeros(4)
        draws = 100_000
        for _ in range(draws):
            counts[step(p, 3, rng)] += 1
        expected = probs[1:] * draws
        stat = float(((counts[1:] - expected) ** 2 / expected).sum())
        assert stat < CHI2_999_DF2

    def test_zero_balls_rejected(self):
        with pytest.raises(ValueError):
            step(uniform(3), 0, replicate_rng(0, 0))


class TestRun:
    def test_single_ball_start(self):
        cfg = SimConfig(p=uniform(6), b0=1, master_seed=3)
        assert run(cfg, 0).T == 0

    def test_point_mass_one_round(self):
        p = ProbabilityVector([1.0] + [0.0] * 19)
        cfg = SimConfig(p=p, b0=17, master_seed=3)
        assert run(cfg, 0).T == 1

    def test_trajectory_shape(self):
        cfg = SimConfig(p=uniform(30), master_seed=5, record_trajectory=True)
        res = run(cfg, 0)
        traj = res.trajectory
        assert traj[0] == 30
        assert traj[-1] == 1
        assert np.all(np.diff(traj) <= 0)
        assert np.all(traj[:-1] > 1)
        assert res.T == traj.size - 1

    def test_passages_consistent_with_trajectory(self):
        cfg = SimConfig(
            p=uniform(40),
            master_seed=8,
            record_trajectory=True,
            passage_thresholds=(40.0, 20.0, 5.0, 1.0),
        )
        res = run(cfg, 2)
        assert res.passages[40.0] == 0
        assert res.passages[1.0] == res.T
        for th, tau in res.passages.items():
            assert res.trajectory[tau] <= th
            assert np.all(res.trajectory[:tau] > th)

    def test_deterministic_per_index(self):
        cfg = SimConfig(p=uniform(20), master_seed=12, record_trajectory=True)
        a = run(cfg, 7)
        b = run(cfg, 7)
        assert a.T == b.T
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(p=uniform(4), replicates=0)
        with pytest.raises(ValueError):
            SimConfig(p=uniform(4), b0=5)
        with pytest.raises(ValueError):
            SimConfig(p=uniform(4), passage_thresholds=(0.5,))


class TestBatch:
    def test_two_boxes_matches_exact(self):
        cfg = SimConfig(p=uniform(2), replicates=100_000, master_seed=42)
        summary = batch(cfg)
        assert abs(summary.t.mean - 2.0) <= 3 * summary.t.stderr

    def test_same_seed_same_output(self):
        cfg = SimConfig(p=uniform(9), replicates=500, master_seed=77)
        assert batch(cfg) == batch(cfg)

    def test_replicate_order_invisible(self):
        cfg = SimConfig(
            p=topheavy(12, 0.2),
            replicates=400,
            master_seed=5,
            passage_thresholds=(6.0,),
        )
        order = np.random.default_rng(0).permutation(cfg.replicates)
        shuffled = [run(cfg, int(i)) for i in order]
        assert batch(cfg) == BatchSummary.from_runs(shuffled, cfg.passage_thresholds)

    def test_single_replicate_variance_flagged(self):
        cfg = SimConfig(p=uniform(5), replicates=1, master_seed=0)
        summary = batch(cfg)
        assert summary.t.variance is None
        assert summary.t.stderr is None
        assert summary.t.ci95 is None

    def test_uniform_ten_matches_exact(self):
        exact = expected_coalescence_times(TriangularKernel(uniform(10)))[10]
        summary = batch(SimConfig(p=uniform(10), replicates=20_000, master_seed=64))
        assert abs(summary.t.mean - exact) <= 3 * summary.t.stderr

    def test_mean_matches_exact_small_n(self):
        rng = np.random.default_rng(31)
        for trial in range(3):
            n = int(rng.integers(3, 13))
            p = ProbabilityVector(rng.dirichlet(np.ones(n)), normalize=True)
            exact = expected_coalescence_times(TriangularKernel(p))[n]
            cfg = SimConfig(p=p, replicates=20_000, master_seed=100 + trial)
            summary = batch(cfg)
            assert abs(summary.t.mean - exact) <= 3 * summary.t.stderr


class TestJumpChain:
    """Below 64 balls runs sample the exact kernel's jump chain; from 64 up
    every round is an alias round."""

    @pytest.mark.parametrize(
        "p",
        [uniform(12), ProbabilityVector(np.random.default_rng(5).dirichlet(np.ones(9)))],
        ids=["uniform12", "dirichlet9"],
    )
    def test_time_law_matches_exact_cdf(self, p):
        cfg = SimConfig(p=p, replicates=20_000, master_seed=3)
        ts = np.sort([r.T for r in runs(cfg)])
        grid = np.arange(ts[-1] + 1)
        exact = coalescence_time_cdf(TriangularKernel(p), p.n, int(ts[-1]))
        empirical = np.searchsorted(ts, grid, side="right") / ts.size
        assert np.abs(empirical - exact).max() <= 1.63 / math.sqrt(ts.size)

    def test_row_without_self_loop(self):
        # four balls on two live boxes always collide: row 4 has no self-loop
        p = ProbabilityVector([0.5, 0.5, 0.0, 0.0])
        cfg = SimConfig(p=p, b0=4, replicates=4000, master_seed=6, record_trajectory=True)
        results = runs(cfg)
        assert all(r.trajectory[1] < 4 for r in results)
        stats = RunningStats.from_samples(r.T for r in results)
        exact = expected_coalescence_times(TriangularKernel(p))[4]
        assert exact == pytest.approx(2.75)
        assert abs(stats.mean - exact) <= 3 * stats.stderr

    def test_trajectory_expands_holding_segments(self):
        cfg = SimConfig(
            p=uniform(100),
            master_seed=8,
            record_trajectory=True,
            passage_thresholds=(80.0, 64.0, 30.0, 1.0),
        )
        for i in range(5):
            res = run(cfg, i)
            traj = res.trajectory
            assert (traj[0], traj[-1], traj.size) == (100, 1, res.T + 1)
            assert np.all(np.diff(traj) <= 0)
            assert np.any(np.diff(traj) == 0)  # a holding segment, expanded
            for th, tau in res.passages.items():
                assert traj[tau] <= th
                assert np.all(traj[:tau] > th)

    @pytest.mark.parametrize(
        "p",
        [uniform(200), ProbabilityVector(np.random.default_rng(8).dirichlet(np.ones(200)))],
        ids=["uniform200", "dirichlet200"],
    )
    def test_run_passages_equal_first_index_at_or_below(self, p):
        # thresholds straddle the 64-ball cutoff between throwing every ball
        # and the jump chain
        thresholds = (150.0, 64.0, 63.5, 40.0, 2.0)
        cfg = SimConfig(
            p=p, master_seed=11, record_trajectory=True, passage_thresholds=thresholds
        )
        for i in range(20):
            res = run(cfg, i)
            assert res.passages == {
                th: int(np.argmax(res.trajectory <= th)) for th in thresholds
            }

    def test_step_loop_matches_first_passage_above_cutoff(self):
        p = topheavy(300, 0.02)
        for th in (64.0, 100.0):
            cfg = SimConfig(p=p, master_seed=13, passage_thresholds=(th,))
            for i in range(5):
                rng = replicate_rng(13, i)
                b, t = p.n, 0
                while b > th:
                    b = step(p, b, rng)
                    t += 1
                assert run(cfg, i).passages[th] == t


def merged_chi_square(observed, expected):
    """Pearson statistic and degrees of freedom after merging neighbouring
    bins until each expects at least 5; a short tail joins the last bin."""
    obs, exp, o, e = [], [], 0.0, 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= 5.0:
            obs.append(o)
            exp.append(e)
            o, e = 0.0, 0.0
    obs[-1] += o
    exp[-1] += e
    obs, exp = np.array(obs), np.array(exp)
    return float(((obs - exp) ** 2 / exp).sum()), len(exp) - 1


def three_level_vector(n, nu):
    heavy, middle = 0.15 / nu, 0.02
    rest = (1.0 - nu * heavy - middle) / (n - nu - 1)
    w = np.array([heavy] * nu + [middle] + [rest] * (n - nu - 1))
    return three_level(n, float(w @ w), float((w * w) @ w), nu)


class TestLevelRound:
    """Vectors with at most three distinct positive weights, at most one of
    them on several boxes, throw a round level by level; the rest keep their
    alias draws."""

    @pytest.mark.parametrize(
        "p",
        [
            uniform(200),
            topheavy(300, 0.05),
            three_level_vector(150, nu=1),
            ProbabilityVector([0.3] + [0.0] * 5 + [0.7 / 194] * 194, normalize=True),
        ],
        ids=["uniform200", "topheavy300", "three_level150", "two_level_zeros200"],
    )
    def test_step_law_matches_kernel_row(self, p):
        levels = [m for w, m in p.grouped() if w > 0]
        assert len(levels) <= 3 and sum(m > 1 for m in levels) <= 1
        for k in sorted({64, 150, p.n}):
            rng = replicate_rng(404, k)
            draws = 20_000
            counts = np.bincount([step(p, k, rng) for _ in range(draws)], minlength=k + 1)
            expected = transition_row(p, k).probs * draws
            stat, dof = merged_chi_square(counts[1:], expected[1:])
            # Wilson-Hilferty upper 1e-5 quantile of chi-square with dof degrees of freedom
            z = 4.265
            limit = dof * (1.0 - 2.0 / (9 * dof) + z * math.sqrt(2.0 / (9 * dof))) ** 3
            assert stat < limit, (k, stat, dof)

    @pytest.mark.parametrize(
        "p",
        [
            ProbabilityVector(np.random.default_rng(2).dirichlet(np.ones(300))),
            ProbabilityVector([0.4, 0.2, 0.1] + [0.3 / 97] * 97, normalize=True),
            three_level_vector(150, nu=3),
            ProbabilityVector([0.3] * 2 + [0.0] * 5 + [0.4 / 193] * 193, normalize=True),
        ],
        ids=["dirichlet300", "four_levels100", "three_level150_nu3", "two_multibox_levels200"],
    )
    def test_other_vectors_keep_alias_draws(self, p):
        table = AliasTable(p.weights)
        for k in (1, 64, 100):
            got = [step(p, k, replicate_rng(9, i)) for i in range(20)]
            want = [_distinct(table.draw(replicate_rng(9, i), k), p.n) for i in range(20)]
            assert got == want


class TestDistinct:
    """One counter serves every round; its draws and counts are unchanged."""

    @pytest.mark.parametrize("m", [10**2, 10**4, 10**5])
    def test_equals_unique(self, m):
        rng = np.random.default_rng(m)
        sizes = [1, 2, 64, 500, m // 50, m // 8, m, 3 * m]
        for b in sizes:
            boxes = rng.integers(m, size=b)
            assert _distinct(boxes, m) == np.unique(boxes).size, b
        assert _distinct(rng.permutation(m), m) == m
        assert _distinct(np.full(70, m - 1), m) == 1
        if m == 10**5:  # both the stamp and the flags count here
            sparse = {b * simulate._SPARSE + simulate._FLAGS < m for b in sizes}
            assert sparse == {True, False}

    @pytest.mark.parametrize(
        "p",
        [
            topheavy(2000, 0.01),
            ProbabilityVector([0.3] + [0.0] * 5 + [0.7 / 1994] * 1994, normalize=True),
            ProbabilityVector([1.0] * 1999 + [0.25], normalize=True),
        ],
        ids=["topheavy2000", "two_level_zeros2000", "one_light_box2000"],
    )
    def test_two_level_split_equals_multinomial(self, p):
        levels = [(w, m) for w, m in p.grouped() if w > 0]
        assert len(levels) == 2 and sum(m > 1 for _, m in levels) == 1
        masses = np.minimum([w * m for w, m in levels], 1.0)
        for k in (64, 100, 1000, p.n):
            for i in range(20):
                got, want = replicate_rng(30, i), replicate_rng(30, i)
                hit = 0
                for (_, m), c in zip(levels, want.multinomial(k, masses).tolist()):
                    if c:
                        hit += 1 if m == 1 else np.unique(want.integers(0, m, c)).size
                assert step(p, k, got) == hit, (k, i)
                assert got.bit_generator.state == want.bit_generator.state

    def test_sparse_blocks_equal_reference_loop(self):
        # equal-box lanes over 5e4 boxes count their sparse rounds by stamp
        config = SimConfig(uniform(5 * 10**4), 4, master_seed=21, passage_thresholds=(2000.0, 64.0))
        want = [reference_run(config, i) for i in range(config.replicates)]
        got = runs(config)
        assert [(r.T, r.passages) for r in got] == [(T, passages) for T, _, passages in want]


class TestCachesLetVectorsGo:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: uniform(300),
            lambda: topheavy(300, 0.05),
            lambda: ProbabilityVector(np.random.default_rng(3).dirichlet(np.ones(300))),
        ],
        ids=["uniform", "topheavy", "dirichlet"],
    )
    def test_vector_collected_after_runs(self, make):
        # a cached round or jump table that held its vector would keep it alive
        p = make()
        runs(SimConfig(p, 5, master_seed=1))
        ref = weakref.ref(p)
        assert ref in simulate._round_cache.keyrefs() and ref in simulate._jump_cache.keyrefs()
        del p
        gc.collect()
        assert ref() is None


class TestRunningStats:
    def test_moment_values(self):
        s = RunningStats.from_samples([1, 2, 3, 4])
        assert s.mean == pytest.approx(2.5)
        assert s.variance == pytest.approx(5.0 / 3.0)
        lo, hi = s.ci95
        assert lo < 2.5 < hi

    def test_mean_of_no_samples_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            RunningStats().mean


class TestFirstPassages:
    def test_threshold_at_start(self):
        cfg = SimConfig(p=uniform(10), master_seed=1, passage_thresholds=(10.0, 12.0))
        got = run(cfg, 0).passages
        assert got[10.0] == 0
        assert got[12.0] == 0

    def test_monotone_in_threshold(self):
        cfg = SimConfig(p=uniform(100), master_seed=2, passage_thresholds=(50.0, 20.0, 5.0))
        got = run(cfg, 0).passages
        assert got[50.0] <= got[20.0] <= got[5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(p=uniform(5), passage_thresholds=(0.2,))

    def test_nan_threshold_rejected(self):
        # NaN < 1 is False, so a range check written as th < 1 lets NaN through
        with pytest.raises(ValueError, match="at least 1"):
            SimConfig(p=uniform(20), replicates=3, passage_thresholds=(math.nan,))

    @pytest.mark.parametrize(
        "p, early", [(topheavy(1000, 0.01), True), (uniform(1000), False)],
        ids=["topheavy1000", "uniform1000"],
    )
    def test_means_match_exact_phase_split(self, p, early):
        # a passage is the first round at or below a threshold and the count
        # never rises, so E[tau(k*)] is the exact early part and E[tau(k_1)]
        # the early plus the middle part.  Topheavy's k* = 67.9 lies above the
        # 64 balls where thrown rounds end; uniform's tau(k*) is one round
        # almost surely, so only its tau(k_1) is compared
        n, c2 = p.n, p.moments().c2
        k_star, k_1 = early_threshold(c2, n, 0.2), late_threshold(c2, n, 0.2)
        phases = phase_decomposition(p, k_star, k_1)
        config = SimConfig(p=p, replicates=2000, master_seed=1, passage_thresholds=(k_star, k_1))
        summary = batch(config)
        want = {k_1: phases.early + phases.middle}
        if early:
            want[k_star] = phases.early
        for k, exact in want.items():
            stats = summary.passages[k]
            assert abs(stats.mean - exact) <= 4.0 * stats.stderr, k


class TestDeltaAudit:
    def test_vacuous_above_n(self):
        cfg = SimConfig(p=uniform(8), master_seed=1, record_trajectory=True)
        res = run(cfg, 0)
        assert delta_audit(res, cfg.p, k_star=9.0) == 0

    def test_smoke_tiny_instance(self):
        cfg = SimConfig(p=uniform(2), master_seed=1, record_trajectory=True)
        res = run(cfg, 0)
        assert delta_audit(res, cfg.p, k_star=1.0) >= 0

    def test_requires_trajectory(self):
        cfg = SimConfig(p=uniform(8), master_seed=1)
        res = run(cfg, 0)
        with pytest.raises(ValueError):
            delta_audit(res, cfg.p, 2.0)

    def test_no_violations_at_moderate_size(self):
        n = 1000
        p = uniform(n)
        k_star = early_threshold(1.0 / n, n, 0.2)
        cfg = SimConfig(p=p, master_seed=9, record_trajectory=True)
        for i in range(20):
            assert delta_audit(run(cfg, i), p, k_star) == 0

    def test_early_passage_within_bound(self):
        # nearly every replicate reaches the early threshold within
        # 5 ln(n) / sqrt(c2) rounds
        n = 1000
        k_star = early_threshold(1.0 / n, n, 0.2)
        bound = 5.0 * math.sqrt(n) * math.log(n)
        hits = 0
        trials = 100
        cfg = SimConfig(p=uniform(n), master_seed=123, passage_thresholds=(k_star,))
        for i in range(trials):
            hits += run(cfg, i).passages[k_star] <= bound
        assert hits >= 0.99 * trials

    def test_violation_rule_matches_ceiling_convention(self):
        # an integer next state exceeds the real envelope exactly when it
        # reaches the envelope's ceiling
        p = topheavy(12, 0.25)
        cfg = SimConfig(p=p, master_seed=21, record_trajectory=True)
        for i in range(30):
            traj = run(cfg, i).trajectory
            for t in range(traj.size - 1):
                cap = one_step_envelope(p, int(traj[t]))
                direct = traj[t + 1] > cap
                via_ceiling = traj[t + 1] >= math.ceil(cap) and cap != math.floor(cap)
                if cap != math.floor(cap):  # non-integer envelope
                    assert direct == via_ceiling


# The per-replicate loop that the lanes replaced, kept as their reference:
# _jump_rows, _jumps and run as they were, over replicate_rng's streams.


def reference_jump_rows(p: ProbabilityVector) -> list:
    rows = [None, None]
    bands = exact_chain._bands(p, min(p.n, 63))
    next(bands)  # row 1 is absorbing
    for k, (lo, band, _) in enumerate(bands, start=2):
        first, down, leave = exact_chain._leave(k, lo, band)
        rate = math.log1p(-leave) if leave < 1.0 else -math.inf
        cum = np.cumsum(down)
        rows.append((rate, first, (cum / cum[-1]).tolist()))
    return rows


def reference_jumps(p: ProbabilityVector, b: int, rng: np.random.Generator):
    t, throw = 0, _route(p)[0]
    yield t, b
    while b >= 64:
        t += 1
        nxt = throw(rng, b)
        if nxt < b:
            b = nxt
            yield t, b
    rows = reference_jump_rows(p)
    uniforms = iter(rng.random(2 * (b - 1)).tolist())  # two per jump at most
    while b > 1:
        rate, first, cum = rows[b]
        t += 1 + int(math.log1p(-next(uniforms)) / rate)
        b = bisect.bisect_right(cum, next(uniforms)) + first
        yield t, b


def reference_run(config: SimConfig, replicate_index: int):
    rng = replicate_rng(config.master_seed, replicate_index)
    pending = sorted(set(config.passage_thresholds), reverse=True)
    passages: dict[float, int] = {}
    traj: list[int] = []
    for t, b in reference_jumps(config.p, config.start_count, rng):
        if config.record_trajectory:
            traj += traj[-1:] * (t - len(traj)) + [b]
        while pending and b <= pending[0]:
            passages[pending.pop(0)] = t
    return t, np.array(traj, dtype=np.int64), passages


SEEDS = [0, 1, 2**32 - 1, 2**32 + 5, 2**64 - 1, 2**200]
INDICES = [0, 1, 2**31, 2**32 - 1]


class TestSeedStates:
    """Replicate streams are numpy's own: PCG64 seeded by a spawned SeedSequence."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_numpy_seeding(self, seed):
        want = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            .bit_generator.state
            for i in INDICES
        ]
        assert _seed_states(seed, INDICES) == want
        assert [replicate_rng(seed, i).bit_generator.state for i in INDICES] == want

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            replicate_rng(-1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            run(SimConfig(p=uniform(5), master_seed=-3), 0)

    @pytest.mark.parametrize("index", [-1, 2**32, 2**40])
    def test_index_outside_32_bits_rejected(self, index):
        # lanes seed indices below 2**32 only; replicate_rng is numpy's, any index >= 0
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _seed_states(0, [index])
        with pytest.raises(ValueError, match="2\\*\\*32"):
            run(SimConfig(p=uniform(5)), index)
        if index > 0:
            ss = np.random.SeedSequence(entropy=0, spawn_key=(index,))
            assert replicate_rng(0, index).random(3).tolist() == (
                np.random.default_rng(ss).random(3).tolist()
            )


class TestLanes:
    """Lanes reproduce the per-replicate loop replicate by replicate."""

    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(uniform(12), 300, master_seed=4),
            SimConfig(topheavy(40, 0.1), 300, master_seed=5, passage_thresholds=(30.0, 3.0)),
            SimConfig(ProbabilityVector(np.random.default_rng(6).dirichlet(np.ones(40))), 300),
            SimConfig(
                uniform(100), 200, master_seed=7, passage_thresholds=(80.0, 64.0, 63.5, 30.0, 2.0)
            ),
            SimConfig(
                three_level_vector(120, nu=3), 100, master_seed=8, passage_thresholds=(100.0, 10.0)
            ),
            SimConfig(topheavy(300, 0.02), 60, master_seed=9, b0=150, passage_thresholds=(64.0,)),
            SimConfig(uniform(50), 300, master_seed=10, b0=20, passage_thresholds=(20.0, 5.0)),
            SimConfig(ProbabilityVector([0.5, 0.5, 0.0, 0.0]), 300, master_seed=11),
            # more lanes than one block holds (65536 uniforms, 124 per lane)
            SimConfig(uniform(70), 1100, master_seed=12, passage_thresholds=(64.0, 2.0)),
            # equal boxes: many rounds from 64 balls up, taken from one block of box indices
            SimConfig(
                uniform(1000), 100, master_seed=13, passage_thresholds=(500.0, 100.0, 64.0, 10.0)
            ),
            # about 1.1e5 draws per lane, of which 2**32 % 10**4 / 2**32 = 1.7e-6 are
            # Lemire rejections: lane 18 of this seed meets two
            SimConfig(uniform(10**4), 20, master_seed=14),
            SimConfig(uniform(10**4), 40, master_seed=15, b0=64, passage_thresholds=(63.0,)),
            SimConfig(uniform(10**4), 40, master_seed=16, b0=65),
            SimConfig(uniform(10**4), 40, master_seed=17, b0=127, passage_thresholds=(100.0, 64.0)),
            SimConfig(uniform(1000), 100, master_seed=18, b0=127),
            SimConfig(ProbabilityVector([1.0] * 200 + [0.0] * 300, normalize=True), 200,
                      master_seed=19),
        ],
        ids=["uniform12", "topheavy40", "dirichlet40", "uniform100", "three_level120",
             "topheavy300_b150", "uniform50_b20", "two_live_boxes", "uniform70_blocks",
             "uniform1000", "uniform10000", "uniform10000_b64", "uniform10000_b65",
             "uniform10000_b127", "uniform1000_b127", "equal200_of_500"],
    )
    def test_equal_reference_loop(self, config):
        want = [reference_run(replace(config, record_trajectory=True), i)
                for i in range(config.replicates)]
        traced = runs(replace(config, record_trajectory=True))
        assert [r.T for r in runs(config)] == [T for T, _, _ in want]
        assert [r.T for r in traced] == [T for T, _, _ in want]
        assert [r.passages for r in traced] == [passages for _, _, passages in want]
        for r, (_, traj, _) in zip(traced, want):
            assert np.array_equal(r.trajectory, traj)
        assert run(config, config.replicates - 1) == runs(config)[-1]

    @pytest.mark.parametrize("m", [1000, 10**4, 3 * 2**30])
    def test_split_integer_draws_equal_one_draw(self, m):
        # equal-box lanes draw their rounds' boxes as one block, then rewind and
        # draw exactly the values used: both rely on one integers(m, size=.)
        # call drawing what step's split integers(0, m, .) calls draw, Lemire
        # rejections included (a quarter of the 32-bit words at m = 3 * 2**30),
        # and leaving the same state
        sizes = [1, 63, 3, 127, 999, 5, 10_001]
        one, split = replicate_rng(20, m), replicate_rng(20, m)
        want = one.integers(m, size=sum(sizes))
        got = np.concatenate([split.integers(0, m, size) for size in sizes])
        assert np.array_equal(got, want)
        assert split.bit_generator.state == one.bit_generator.state
        assert split.random() == one.random()

    def test_runs_hands_out_each_replicate_through_run(self, monkeypatch):
        # a wrapper of run sees every replicate of a batch, block after block
        config = SimConfig(uniform(70), 1100, master_seed=12)
        want = runs(config)
        seen = []

        def counted(cfg, i, **kwargs):
            seen.append(i)
            return run(cfg, i, **kwargs)

        monkeypatch.setattr(simulate, "run", counted)
        assert runs(config) == want
        assert seen == list(range(config.replicates))

    def test_holding_times_follow_math_log1p(self):
        # uniforms where numpy's log1p and math.log1p differ, with rates that
        # put the quotient next to an integer
        u = np.random.default_rng(0).random(20_000)
        u = u[np.log1p(-u) != [math.log1p(-x) for x in u]]
        u = np.repeat(u, 30)
        rate = np.array([math.log1p(-x) for x in u]) / np.tile(np.arange(1, 31), u.size // 30)
        want = [1 + int(math.log1p(-x) / r) for x, r in zip(u, rate)]
        assert np.any(1 + np.trunc(np.log1p(-u) / rate) != want)  # plain numpy misses some
        assert _holding(u, rate).tolist() == want
        assert _holding(np.array([0.0, 0.5]), np.array([-math.inf, -math.inf])).tolist() == [1, 1]
