import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalsim
from coalsim import _tables, cli
from coalsim.cli import main
from coalsim.distributions import SolverError, topheavy
from coalsim.exact_chain import TriangularKernel, expected_coalescence_times
from coalsim.simulate import SimConfig, batch, run

ROOT = Path(__file__).resolve().parent.parent

def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestMoments:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "m_config.json", {"distribution": {"family": "uniform", "n": 4}}
        )
        out = tmp_path / "m_out"
        assert main(["moments", "--config", str(cfg), "--out", str(out)]) == 0
        got = json.loads((tmp_path / "m_out.json").read_text())
        assert got == {"n": 4, "c2": 0.25, "c3": 0.0625}
        assert capsys.readouterr().out.startswith("moments:")

    def test_separate_out_path(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"distribution": {"family": "topheavy", "n": 4, "c2": 0.3}}
        )
        out = tmp_path / "result"
        assert main(["moments", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        got = json.loads((tmp_path / "result.json").read_text())
        assert got["n"] == 4
        assert got["c2"] == pytest.approx(0.3, abs=1e-12)


class TestExact:
    def test_kernel_and_expected_times(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "uniform_n6.json",
            {"distribution": {"family": "uniform", "n": 6}, "eps": 0.2},
        )
        out = tmp_path / "exact_run"
        assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
        kernel_lines = (tmp_path / "exact_run.kernel.csv").read_text().splitlines()
        assert kernel_lines[0] == "k,b,prob"
        assert len(kernel_lines) == 1 + 21
        expected_lines = (tmp_path / "exact_run.expected.csv").read_text().splitlines()
        assert expected_lines[0] == "m,expected_T"
        summary = json.loads((tmp_path / "exact_run.json").read_text())
        assert summary["expected_T_from_n"] <= summary["pair_bound_2n_minus_2"]
        phases = summary["phases"]
        total = phases["early"] + phases["middle"] + phases["late"]
        assert total == pytest.approx(summary["expected_T_from_n"], abs=1e-8)

    def test_phase_pass_keeps_expected_times(self, tmp_path):
        # with eps, one back-substitution yields E[T] and the phase split
        desc = {"family": "topheavy", "n": 160, "c2": 0.05}
        cfg = write_config(tmp_path, "th_in.json", {"distribution": desc, "eps": 0.2})
        out = tmp_path / "th"
        assert main(["exact", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(tmp_path / "th.expected.csv", delimiter=",", skiprows=1)
        et = expected_coalescence_times(TriangularKernel(topheavy(160, 0.05)))
        assert np.allclose(rows[:, 1], et[1:], rtol=1e-14, atol=0.0)


    def test_uniform_pair_expected_time_is_exact(self, tmp_path):
        cfg = write_config(
            tmp_path, "pair_in.json", {"distribution": {"family": "uniform", "n": 2}}
        )
        out = tmp_path / "pair"
        assert main(["exact", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((tmp_path / "pair.json").read_text())
        assert summary["expected_T_from_n"] == 2.0
        lines = (tmp_path / "pair.expected.csv").read_text().splitlines()
        assert lines[1:] == ["1,0", "2,2"]


class TestSimulate:
    def test_summary_matches_exact_pair(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {"distribution": {"family": "uniform", "n": 2}, "replicates": 20_000},
        )
        out = tmp_path / "sim_run"
        assert (
            main(["simulate", "--config", str(cfg), "--seed", "42", "--out", str(out), "--quiet"])
            == 0
        )
        summary = json.loads((tmp_path / "sim_run.json").read_text())
        assert abs(summary["mean_T"] - 2.0) <= 3 * summary["stderr_T"]
        lines = (tmp_path / "sim_run.replicates.csv").read_text().splitlines()
        assert lines[0] == "replicate,T"
        assert len(lines) == 1 + 20_000

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {
                "distribution": {"family": "topheavy", "n": 30, "c2": 0.12},
                "replicates": 500,
                "thresholds": [10.0],
            },
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            assert (
                main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out), "--quiet"])
                == 0
            )
            outs.append((tmp_path / f"run_{tag}.replicates.csv").read_bytes())
        assert outs[0] == outs[1]


class TestDynamics:
    def test_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "dyn.json",
            {"distribution": {"family": "uniform", "n": 5}, "k_max": 5},
        )
        out = tmp_path / "dyn"
        assert main(["dynamics", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        lines = (tmp_path / "dyn.csv").read_text().splitlines()
        assert lines[0] == "k,empty_proxy,occupancy_proxy,envelope,margin"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(5.0)  # k=0 leaves all boxes empty

    def test_rows_in_given_order(self, tmp_path):
        ks = [3.5, 0, 7, 3.5, 1]
        cfg = write_config(
            tmp_path, "dyn.json", {"distribution": {"family": "uniform", "n": 5}, "k_values": ks}
        )
        out = tmp_path / "dyn"
        assert main(["dynamics", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(tmp_path / "dyn.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == ks
        assert rows[0].tolist() == rows[3].tolist()
        assert rows[:, 1] == pytest.approx([5 * np.exp(-k / 5) for k in ks], rel=1e-15)

    def test_negative_k_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "dyn.json",
            {"distribution": {"family": "uniform", "n": 5}, "k_values": [1, -0.5, 2]},
        )
        out = tmp_path / "dyn"
        assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 1
        assert "k must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "dyn.csv").exists()


class TestVariationalCommand:
    def test_report(self, tmp_path):
        cfg = write_config(
            tmp_path, "var_in.json", {"n": 4, "c2": 0.3, "k": 5, "budget": 20_000}
        )
        out = tmp_path / "var"
        assert main(["variational", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "var.json").read_text())
        assert report["f_best"] >= report["f_topheavy"] - 1e-9
        assert report["distinct_levels_at_1e-6"] >= 1
        assert report["shapes"] == 6
        assert report["f_sampled"] >= report["f_best"] - 1e-12

    def test_exact_minimum_ignores_the_seed_and_samples_do_not(self, tmp_path):
        cfg = write_config(tmp_path, "var.json", {"n": 30, "c2": 0.1, "k": 30, "budget": 30_000})
        reports = []
        for seed in ("5", "6"):
            out = tmp_path / f"var{seed}"
            argv = ["variational", "--config", str(cfg), "--seed", seed, "--out", str(out)]
            assert main(argv + ["--quiet"]) == 0
            reports.append(json.loads((tmp_path / f"var{seed}.json").read_text()))
        a, b = reports
        assert a["best_weights"] == b["best_weights"] and a["f_best"] == b["f_best"]
        assert a["f_best"] == a["f_topheavy"] and a["distinct_levels_at_1e-6"] == 2
        # the lowest of the 15 000 slice samples that earlier versions drew at
        # seed 5 before refining them
        assert a["f_sampled"] == 14.656741947043445
        assert b["f_sampled"] != a["f_sampled"]

    def test_budget_below_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "var.json", {"n": 30, "c2": 0.1, "k": 30, "budget": 0})
        assert main(["variational", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
        assert "'budget'=0 must be at least 1" in capsys.readouterr().err

    @pytest.mark.slow
    def test_search_streams_its_samples(self, tmp_path):
        # 50 000 slice samples of 200 weights are 80 MB at once; the search
        # keeps one block of them
        cfg = write_config(tmp_path, "var.json", {"n": 200, "c2": 0.02, "k": 200})
        script = f"""if True:
            import json
            from coalsim.cli import main
            code = main(["variational", "--config", {str(cfg)!r}, "--seed", "1", "--quiet"])
            # this process's own peak, not the test runner's that ru_maxrss keeps
            with open("/proc/self/status") as fh:
                rss = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps([code, rss]))
        """
        src = str(Path(coalsim.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300, check=True,
        )
        code, rss = json.loads(child.stdout)
        assert code == 0
        assert json.loads((tmp_path / "var.out.json").read_text())["budget"] == 100_000
        assert rss < 150 * 1024  # VmHWM is in KiB


class TestBoundsCommand:
    def test_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "bounds_in.json",
            {"distribution": {"family": "uniform", "n": 20}, "k": 10},
        )
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["all_ok"] is True
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[0] == "b,z,r,h,h_second_fd,hessian_det"

    def test_every_requested_b_is_solved_or_skipped(self, tmp_path):
        k, b_values = 20, [-1e308, -1.0, 0.0, 5.0, 20.0, 25.0, 1e308]
        config = {"distribution": {"family": "uniform", "n": 40}, "k": k, "b_values": b_values}
        cfg = write_config(tmp_path, "bounds_in.json", config)
        out = tmp_path / "bounds"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        lines = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
        solved = [float(line.split(",")[0]) for line in lines]
        assert solved == [5.0] and report["solved_points"] == 1
        skipped = {s["b"]: s["reason"] for s in report["skipped"]}
        assert sorted(skipped) == [b for b in b_values if b != 5.0]
        assert all(skipped.values())


class TestLevelsFoundOnce:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("dynamics", {"distribution": {"family": "topheavy", "n": 10_000, "c2": 0.01}}),
            ("bounds", {"distribution": {"family": "topheavy", "n": 1000, "c2": 0.02}, "k": 300}),
        ],
    )
    def test_one_unique_per_job(self, tmp_path, monkeypatch, command, config):
        # every layer reads the vector's one levels table
        calls, unique = [], np.unique

        def counted(*args, **kwargs):
            calls.append(len(args))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        cfg = write_config(tmp_path, "job.json", config)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert len(calls) == 1


class TestExperimentsCommands:
    def test_limit_small(self, tmp_path):
        cfg = write_config(
            tmp_path, "lim_in.json", {"n_values": [50], "replicates": 200, "K": 200}
        )
        out = tmp_path / "lim"
        assert main(["limit", "--config", str(cfg), "--seed", "3", "--out", str(out), "--quiet"]) == 0
        rows = (tmp_path / "lim.csv").read_text().splitlines()
        assert rows[0] == "n,replicates,mean_T,mean_ratio,ks_distance"

    def test_threshold_rerun_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "lambda_ln.json",
            {"n_values": [50, 100, 200], "lambda": "ln", "replicates": 100},
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"th_{tag}"
            assert (
                main(["threshold", "--config", str(cfg), "--seed", "5", "--out", str(out), "--quiet"])
                == 0
            )
            outs.append((tmp_path / f"th_{tag}.csv").read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == "n,c2,scaled_mean_top,slow_fraction,scaled_mean_uniform"
        assert len(lines) == 4  # header plus one trend row per n


class TestErrorPaths:
    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"distribution": {"family": "uniform", "n": 5}, "replicatez": 5},
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 1
        assert "unknown config key 'replicatez'" in capsys.readouterr().err
        assert not (tmp_path / "sim.json").exists()

    def test_seed_is_any_non_negative_integer(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"distribution": {"family": "uniform", "n": 5}, "replicates": 3}
        )
        argv = ["simulate", "--config", str(cfg), "--quiet", "--out"]
        assert main(argv + [str(tmp_path / "big"), "--seed", str(2**200)]) == 0
        assert json.loads((tmp_path / "big.json").read_text())["seed"] == 2**200
        for seed in (-1, -7):
            assert main(argv + [str(tmp_path / "bad"), "--seed", str(seed)]) == 1
            err = capsys.readouterr().err
            assert f"--seed must be a non-negative integer, got {seed}" in err
        assert not (tmp_path / "bad.json").exists()
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "master seed, any integer >= 0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["moments", "exact"])
    def test_out_of_memory_is_an_error(self, tmp_path, capsys, monkeypatch, command):
        # a size too large for memory fails as numpy's allocation would, with
        # no traceback and no output file
        def allocate(desc):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

        monkeypatch.setattr(cli, "from_descriptor", allocate)
        cfg = write_config(tmp_path, "cfg.json", {"distribution": {"family": "uniform", "n": 10**11}})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "big")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate 745. GiB")
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["moments", "--config", str(tmp_path / "nope.json")]) == 1

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["moments", "--config", str(path)]) == 1

    def test_infeasible_distribution_parameters(self, tmp_path):
        cfg = write_config(
            tmp_path, "bad.json", {"distribution": {"family": "topheavy", "n": 4, "c2": 2.0}}
        )
        assert main(["moments", "--config", str(cfg)]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # five equal top values are each at most 1/5, so c2 <= 0.2: the
        # request is infeasible in closed form, a validation error naming nu
        c2 = 0.4
        cfg = write_config(
            tmp_path,
            "solver.json",
            {
                "distribution": {
                    "family": "three_level",
                    "n": 8,
                    "c2": c2,
                    "c3": c2**1.5,
                    "nu": 5,
                }
            },
        )
        assert main(["moments", "--config", str(cfg)]) == 1
        assert "nu=5" in capsys.readouterr().err

    def test_solver_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(desc):
            raise SolverError("three-level solve missed (c2, c3)", 3e-9)

        monkeypatch.setattr(cli, "from_descriptor", fail)
        cfg = write_config(tmp_path, "s.json", {"distribution": {"family": "uniform", "n": 4}})
        assert main(["moments", "--config", str(cfg)]) == 2
        assert "numerical failure" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "descriptor",
        [
            {"family": "uniform", "n": 2.5},
            {"family": "topheavy", "n": 4.5, "c2": 0.3},
            {"family": "three_level", "n": 8, "c2": 0.2, "c3": 0.05, "nu": 1.5},
        ],
    )
    def test_non_integral_size_rejected(self, tmp_path, capsys, descriptor):
        cfg = write_config(tmp_path, "frac.json", {"distribution": descriptor})
        for command in ("moments", "exact"):
            assert main([command, "--config", str(cfg), "--quiet"]) == 1
            assert "must be a whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 6, 50])
    def test_bounds_k_outside_range(self, tmp_path, capsys, k):
        cfg = write_config(
            tmp_path, "b.json", {"distribution": {"family": "uniform", "n": 5}, "k": k}
        )
        out = tmp_path / "report"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"'k'={k} outside [1, n=5]" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("limit", {"replicates": 200}, "'n_values' or 'n'"),
            ("threshold", {"n_values": [], "replicates": 10}, "'n_values' or 'n'"),
            ("threshold", {"n_values": [50], "lambda": "zz"}, "'lambda' rule 'zz'"),
            ("limit", {"n": 50, "lambda": "zz"}, "unknown config key 'lambda'"),
            ("threshold", {"n_values": [20], "lambda": True}, "'lambda' must be a rule"),
            ("threshold", {"n_values": [20], "lambda": [1]}, "'lambda' must be a rule"),
            ("threshold", {"n_values": [50.7]}, "'n_values' must be a whole number"),
            ("limit", {"n": 30.5}, "'n' must be a whole number"),
            ("limit", {"n": 50, "replicates": 150.9}, "'replicates' must be a whole"),
            ("threshold", {"n": 20, "replicates": True}, "'replicates' must be a whole"),
            ("limit", {"n": 50, "replicates": 200, "K": 1000.5}, "'K' must be a whole"),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}, "k": 7.5},
             "'k' must be a whole number"),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}},
             "bounds config needs 'k'"),
            ("variational", {"n": 30.5, "c2": 0.1, "k": 30}, "'n' must be a whole"),
            ("variational", {"n": 30, "c2": 0.1, "k": 30, "budget": 100.5},
             "'budget' must be a whole"),
            ("variational", {"c2": 0.1, "k": 30}, "variational config needs 'n'"),
            ("variational", {"n": 30, "k": 30}, "variational config needs 'c2'"),
            ("variational", {"n": 30, "c2": 0.1}, "variational config needs 'k'"),
            ("threshold", {"n_values": 50}, "'n_values' must be a list"),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}, "k": 10,
                        "b_offsets": 5}, "'b_offsets' must be a list of finite numbers"),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}, "k": 10,
                        "b_values": ["x"]}, "'b_values' must be a list of finite numbers"),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}, "k": 10,
                        "b_values": [True]}, "'b_values' must be a list of finite numbers"),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}, "k": 10,
                        "b_values": [float("nan")]},
             "'b_values' must be a list of finite numbers"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5},
                          "k_values": [float("nan")]}, "'k_values' must be a list of finite"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5},
                          "k_values": [float("inf")]}, "'k_values' must be a list of finite"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5},
                          "k_values": [True]}, "'k_values' must be a list of finite"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5},
                          "k_values": 5}, "'k_values' must be a list of finite"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5}, "k_max": 2.5},
             "'k_max' must be a whole number"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5}, "k_max": True},
             "'k_max' must be a whole number"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5}, "k_max": -3},
             "'k_max'=-3 must be at least 0"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "replicates": 2.5},
             "'replicates' must be a whole number"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "replicates": True},
             "'replicates' must be a whole number"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "replicates": "7"},
             "'replicates' must be a whole number"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "b0": True},
             "'b0' must be a whole number"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "b0": 2.5},
             "'b0' must be a whole number"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "thresholds": 5},
             "'thresholds' must be a list of finite numbers"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5},
                          "thresholds": [float("nan")]},
             "'thresholds' must be a list of finite numbers"),
            ("variational", {"n": 30, "c2": 0.1, "k": float("nan")},
             "'k' must be a finite number"),
            ("variational", {"n": 30, "c2": 0.1, "k": float("inf")},
             "'k' must be a finite number"),
            ("variational", {"n": 30, "c2": True, "k": 30}, "'c2' must be a finite number"),
            ("threshold", {"n_values": [1]}, "n must be at least 2"),
            # simulate writes no trajectories, so it reads no switch for them
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "record": "false"},
             "unknown config key 'record'"),
            ("simulate", {"distribution": {"family": "uniform", "n": 5}, "record": True},
             "unknown config key 'record'"),
            ("exact", {"distribution": {"family": "uniform", "n": 5}, "eps": "0.0625"},
             "'eps' must be a finite number"),
            ("exact", {"distribution": {"family": "uniform", "n": 5}, "eps": True},
             "'eps' must be a finite number"),
            ("exact", {"distribution": {"family": "uniform"}},
             "distribution descriptor needs 'n'"),
            ("simulate", {"distribution": {"family": "topheavy", "n": 5}},
             "distribution descriptor needs 'c2'"),
            ("exact", {"distribution": {"family": "explicit"}},
             "distribution descriptor needs 'weights'"),
            ("exact", {"eps": 0.1}, "config needs a 'distribution' descriptor"),
            ("limit", {"n": 50, "lambda": "sqrt_ln"}, "unknown config key 'lambda'"),
            ("limit", {"n": 50, "c2": 0.5}, "unknown config key 'c2'"),
            ("threshold", {"n_values": [50], "K": 1000}, "unknown config key 'K'"),
            # either/or pairs: the second key of each would be ignored
            ("limit", {"n_values": [50], "n": 60}, "both 'n_values' and 'n'"),
            ("threshold", {"n": 50, "lambda": "ln", "c2": 0.5}, "both 'lambda' and 'c2'"),
            ("dynamics", {"distribution": {"family": "uniform", "n": 5}, "k_values": [1],
                          "k_max": 3}, "both 'k_values' and 'k_max'"),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}, "k": 10,
                        "b_values": [5.0], "b_offsets": [0]}, "both 'b_values' and 'b_offsets'"),
        ],
    )
    def test_experiment_config_names_bad_field(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path, "exp.json", payload)
        out = tmp_path / "exp"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err

    def test_exact_beyond_every_route(self, tmp_path, capsys):
        # all-distinct weights reach neither the occupancy route nor the box pass;
        # the result base differs from the config's, which exact's JSON would overwrite
        desc = {"family": "explicit", "weights": list(range(1, 2102)), "normalize": True}
        cfg = write_config(tmp_path, "exp.json", {"distribution": desc})
        assert main(["exact", "--config", str(cfg), "--out", str(tmp_path / "wide")]) == 1
        assert "the box pass builds rows up to k = 2000, not 2101" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "command, message",
        [
            ("simulate", "replicates must be at least 1"),
            ("limit", "at least 100 replicates"),
            ("threshold", "replicates must be at least 1"),
        ],
    )
    def test_zero_replicates_flag_rejected(self, tmp_path, capsys, command, message):
        # each subcommand's own keys: a key it does not read exits 1 by itself
        if command == "simulate":
            config = {"distribution": {"family": "uniform", "n": 5}, "replicates": 150}
        else:
            config = {"n_values": [20], "replicates": 150}
        cfg = write_config(tmp_path, "exp.json", config)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "zero"), "--replicates", "0"]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "limit", "threshold"])
    def test_replicates_beyond_lane_indices_rejected(self, tmp_path, capsys, command):
        # replicate i seeds a lane only for i < 2**32: refused before any work
        if command == "simulate":
            config = {"distribution": {"family": "uniform", "n": 5}}
        else:
            config = {"n_values": [20]}
        cfg = write_config(tmp_path, "exp.json", config)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "many")]
        assert main(argv + ["--replicates", "99999999999999999999"]) == 1
        assert "replicates must be at most 2**32" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("moments", {"distribution": {"family": "uniform", "n": 4}}),
            ("exact", {"distribution": {"family": "uniform", "n": 4}}),
            ("dynamics", {"distribution": {"family": "uniform", "n": 4}}),
            ("variational", {"n": 4, "c2": 0.3, "k": 5, "budget": 100}),
            ("bounds", {"distribution": {"family": "uniform", "n": 20}, "k": 10}),
        ],
    )
    def test_replicates_flag_only_where_read(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "exp.json", payload)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "exp")]
        assert main(argv + ["--replicates", "-4"]) == 1
        assert "unrecognized arguments: --replicates" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_integer_lambda_is_a_collision_rate(self, tmp_path, capsys):
        outs = []
        for tag, rule in (("int", 1), ("float", 1.0)):
            cfg = write_config(
                tmp_path, f"{tag}.json", {"n_values": [20], "lambda": rule, "replicates": 5}
            )
            out = tmp_path / f"th_{tag}"
            assert main(["threshold", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            outs.append((tmp_path / f"th_{tag}.csv").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].decode().splitlines()[1].startswith("20,1,1,")  # T = 1 always
        cfg = write_config(tmp_path, "two.json", {"n_values": [20], "lambda": 2})
        assert main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "th_two")]) == 1
        assert "collision rate 2.0 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            # a string is not false: these weights would pass only if normalized
            ({"family": "explicit", "weights": [2, 2], "normalize": "false"},
             "'normalize' must be true or false"),
            ({"family": "explicit", "weights": [2, 2], "normalize": 1},
             "'normalize' must be true or false"),
            ({"family": "topheavy", "n": 4, "c2": True}, "'c2' must be a finite number"),
            ({"family": "topheavy", "n": 4, "c2": "0.3"}, "'c2' must be a finite number"),
            ({"family": "three_level", "n": 8, "c2": 0.2, "c3": "0.05", "nu": 2},
             "'c3' must be a finite number"),
            ({"family": "explicit", "weights": ["0.5", "0.5"]},
             "'weights' must be a list of finite numbers"),
            ({"family": "explicit", "weights": [True, False]},
             "'weights' must be a list of finite numbers"),
            ({"family": "explicit", "weights": "0.5,0.5"},
             "'weights' must be a list of finite numbers"),
        ],
    )
    def test_descriptor_field_types(self, tmp_path, capsys, descriptor, message):
        cfg = write_config(tmp_path, "d.json", {"distribution": descriptor})
        assert main(["exact", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_weights_must_sum_to_one_unless_normalized(self, tmp_path):
        for flag, code in ((None, 1), (False, 1), (True, 0)):
            desc = {"family": "explicit", "weights": [2, 2]}
            if flag is not None:
                desc["normalize"] = flag
            cfg = write_config(tmp_path, "w.json", {"distribution": desc})
            assert main(["moments", "--config", str(cfg), "--quiet"]) == code

    @pytest.mark.parametrize("payload", [[1, 2], "uniform", 3, None])
    def test_config_must_be_an_object(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, "list.json", payload)
        assert main(["exact", "--config", str(cfg)]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err


def _malformed_configs():
    """Configs whose descriptor has at least one bad field, or that hold no
    descriptor at all."""
    junk = st.one_of(
        st.none(), st.booleans(), st.text(max_size=4),
        st.sampled_from([-3, -1, 0, 1, 0.5, -0.25, 2.5, 1e300, float("nan"), float("inf")]),
        st.lists(st.integers(-2, 2), max_size=3), st.just({"n": 4}),
    )
    valid = {
        "uniform": {"family": "uniform", "n": 4},
        "topheavy": {"family": "topheavy", "n": 4, "c2": 0.4},
        "three_level": {"family": "three_level", "n": 8, "c2": 0.2, "c3": 0.05, "nu": 2},
        "explicit": {"family": "explicit", "weights": [0.5, 0.25, 0.25], "normalize": False},
    }
    # replacements that no field of the valid descriptors accepts
    bad = {
        "family": st.one_of(junk, st.just("zipf")),
        "n": st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                       st.sampled_from([-3, 0, 1, 2.5, float("nan"), float("inf"), [4]])),
        "c2": st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.sampled_from([-0.5, 0.0, 0.1, 1.5, 1e300, float("nan"), [0.4]])),
        "c3": st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.sampled_from([-0.5, 0.0, 0.9, 1e300, float("nan"), [0.05]])),
        "nu": st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.sampled_from([-1, 0, 7, 8, 1.5, float("inf")])),
        "weights": st.one_of(
            st.none(), st.booleans(), st.text(max_size=4), st.just([]), st.just([1.0]),
            st.just([0.0, 0.0]), st.just([2.0, 2.0]), st.just([[0.5], [0.5]]),
            st.lists(st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                               st.sampled_from([-0.5, float("nan"), float("inf")])),
                     min_size=1, max_size=3).map(lambda ws: [0.5, 0.5] + ws),
        ),
        "normalize": st.one_of(st.none(), st.text(max_size=5), st.integers(-1, 2),
                               st.lists(st.booleans(), max_size=2)),
    }

    fields = [(family, key) for family in sorted(valid) for key in sorted(valid[family])]

    @st.composite
    def configs(draw):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            return draw(junk.filter(lambda v: not isinstance(v, dict)))  # not an object
        if kind == 1:
            return {"distribution": draw(junk)}  # not a descriptor
        family, key = draw(st.sampled_from(fields))
        desc = dict(valid[family])
        if draw(st.booleans()):
            del desc[key]
            if key == "normalize":  # optional: drop a required field instead
                del desc["weights"]
        else:
            desc[key] = draw(bad[key])
        return {"distribution": desc}

    return configs()


class TestKnownConfigs:
    """The configs the benchmark and the README run all pass the key table."""

    @staticmethod
    def parse(argv):
        return cli._load_config(cli._build_parser().parse_args(argv))

    def test_perfbench_jobs(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        for workload in workloads.WORKLOADS:
            for seed in (1, 2, 3):
                jobs = workloads.build(workload, seed)
                paths = workloads.write_configs(jobs, tmp_path / f"{workload}{seed}")
                for job in jobs:
                    self.parse(job.argv(paths[job.name], tmp_path / "out"))

    def test_readme_key_lists(self):
        # README's list of each subcommand's keys, defaults and notes in
        # parentheses dropped, names the keys of the table
        text = (ROOT / "README.md").read_text()
        block = re.search(r"Config keys of each subcommand.*?\n\n(.*?)\n\n", text, re.S).group(1)
        items = re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", block, re.M | re.S)
        listed = {
            command: set(re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", body)))
            for command, body in items
        }
        assert listed == {command: set(keys) for command, keys in cli._KEYS.items()}

    def test_readme_examples(self, tmp_path):
        text = (ROOT / "README.md").read_text()
        block = re.search(r"Examples:\s*```bash\n(.*?)```", text, re.S).group(1)
        echoes = re.findall(r"echo '(.*)' > (\S+)", block)
        configs = {name: json.loads(body) for body, name in echoes}
        runs = [line.split()[1:] for line in block.splitlines() if line.startswith("coalsim ")]
        assert {argv[0] for argv in runs} == set(cli._KEYS) - {"moments"}
        for argv in runs:
            at = argv.index("--config") + 1
            argv[at] = str(write_config(tmp_path, argv[at], configs[argv[at]]))
            self.parse(argv)


class TestMalformedDescriptors:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(config=_malformed_configs(), command=st.sampled_from(["exact", "simulate"]))
    def test_exit_code_not_exception(self, config, command):
        if command == "simulate" and isinstance(config, dict):
            config = {**config, "replicates": 10}  # only simulate reads a count
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), "m.json", config)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, "--config", str(cfg), "--quiet"])
        assert code in (1, 2)
        # each example reaches the descriptor, not the key check
        assert "unknown config key" not in err.getvalue()


def _malformed_argv():
    """argv lists with at least one defect: an unknown or empty command, a
    missing, unreadable or non-object config, a bad --seed or --replicates,
    an --out that cannot be written, or a stray argument.  Paths are
    placeholders that the test fills in: {ok} is a small valid config,
    {bad} malformed JSON, {list} a JSON list, {dir} a directory and
    {missing} a file that does not exist."""
    junk = st.text(alphabet="abxyz019 ._", max_size=6)  # never a flag, so never --help
    values = {
        "command": st.one_of(st.just(""), junk.filter(lambda c: c not in cli._KEYS)),
        "config": st.sampled_from(["{missing}", "{dir}", "{bad}", "{list}", ""]),
        "seed": st.sampled_from(["-1", "-7", "x", "1.5", "1e3", "", "0x10"]),
        "replicates": st.sampled_from(["-5", "1e3", "0", "x", "2.5", ""]),
        "out": st.sampled_from(["{missing}/out", "{ok}/out"]),
        "stray": st.sampled_from([["--frobnicate"], ["--frobnicate", "1"], ["extra"]]),
    }

    @st.composite
    def argvs(draw):
        defects = draw(st.sets(st.sampled_from(sorted(values)), min_size=1))
        command = draw(values["command"]) if "command" in defects else draw(
            st.sampled_from(sorted(cli._KEYS)))
        pairs = [] if "config" in defects and draw(st.booleans()) else [
            ["--config", draw(values["config"]) if "config" in defects else "{ok}"]]
        for flag in ("seed", "replicates", "out"):
            if flag in defects:
                pairs.append([f"--{flag}", draw(values[flag])])
        if "stray" in defects:
            pairs.append(draw(values["stray"]))
        pairs.append(["--quiet"])
        return [command] + [arg for pair in draw(st.permutations(pairs)) for arg in pair]

    return argvs()


class TestMalformedArgv:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(argv=_malformed_argv())
    def test_exit_code_not_exception(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            files = {"ok": root / "ok.json", "bad": root / "bad.json",
                     "list": root / "list.json", "dir": root / "d", "missing": root / "missing"}
            files["ok"].write_text(json.dumps({"distribution": {"family": "uniform", "n": 4}}))
            files["bad"].write_text("{not json")
            files["list"].write_text("[1, 2]")
            files["dir"].mkdir()
            filled = [arg.format(**files) for arg in argv]
            quiet = contextlib.redirect_stderr(io.StringIO())
            with quiet, contextlib.redirect_stdout(io.StringIO()):
                code = main(filled)
            written = sorted(p.name for p in root.iterdir())
        assert code in (1, 2), filled
        assert written == ["bad.json", "d", "list.json", "ok.json"], filled


class TestThroughLibrary:
    def test_simulate_outputs_are_the_library_batch(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {
                "distribution": {"family": "topheavy", "n": 15, "c2": 0.2},
                "replicates": 300,
                "thresholds": [8.0, 3.0],
            },
        )
        out = tmp_path / "run"
        args = ["simulate", "--config", str(cfg), "--seed", "2", "--out", str(out), "--quiet"]
        assert main(args) == 0
        sim = SimConfig(
            p=topheavy(15, 0.2),
            replicates=300,
            master_seed=2,
            passage_thresholds=(8.0, 3.0),
        )
        lines = (tmp_path / "run.replicates.csv").read_text().splitlines()[1:]
        assert [int(line.split(",")[1]) for line in lines] == [
            run(sim, i).T for i in range(300)
        ]
        payload = json.loads((tmp_path / "run.json").read_text())
        summary = batch(sim)
        assert payload["mean_T"] == summary.t.mean
        assert payload["stderr_T"] == summary.t.stderr
        assert payload["passages"] == {
            "8": summary.passages[8.0].mean,
            "3": summary.passages[3.0].mean,
        }

    def test_threads_flag_is_unknown(self, tmp_path):
        cfg = write_config(
            tmp_path, "m.json", {"distribution": {"family": "uniform", "n": 4}}
        )
        args = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
        assert main(args + ["--threads", "2"]) == 1


# a small config of each subcommand
_TINY = {
    "moments": {"distribution": {"family": "uniform", "n": 4}},
    "exact": {"distribution": {"family": "uniform", "n": 4}},
    "simulate": {"distribution": {"family": "uniform", "n": 4}, "replicates": 10},
    "dynamics": {"distribution": {"family": "uniform", "n": 4}},
    "variational": {"n": 4, "c2": 0.3, "k": 5, "budget": 100},
    "bounds": {"distribution": {"family": "uniform", "n": 20}, "k": 10},
    "limit": {"n": 20, "replicates": 100, "K": 10},
    "threshold": {"n": 20, "replicates": 5},
}
# the library call each subcommand starts its work with
_ENTRY = {
    "moments": (coalsim.distributions.ProbabilityVector, "moments"),
    "exact": (cli.exact_chain, "TriangularKernel"),
    "simulate": (cli.simulate, "runs"),
    "variational": (cli.variational, "minimize_proxy_fixed_c2"),
    "bounds": (cli.tail_bounds, "tilt_center"),
    "limit": (cli.asymptotics, "limit_law_experiment"),
    "threshold": (cli.asymptotics, "threshold_experiment"),
}


class TestOutputPaths:
    @pytest.mark.parametrize("command", sorted(_ENTRY))
    def test_overwrite_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def boom(*args, **kwargs):
            raise AssertionError(f"{command} started its work")

        monkeypatch.setattr(*_ENTRY[command], boom)
        cfg = write_config(tmp_path, "b1.json", _TINY[command])
        before = cfg.read_text()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "b1")]) == 1
        assert "would overwrite the config" in capsys.readouterr().err
        assert cfg.read_text() == before
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", sorted(_TINY))
    def test_writes_exactly_its_table_files(self, tmp_path, command):
        cfg = write_config(tmp_path, "cfg.json", _TINY[command])
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        _, *exts = cli._HANDLERS[command]
        written = {p.name for p in tmp_path.iterdir()} - {cfg.name}
        assert written == {"o" + ext for ext in exts}

    @pytest.mark.parametrize(
        "command, payload, written",
        [
            ("threshold", {"n_values": [20], "replicates": 5}, ".csv"),
            ("exact", {"distribution": {"family": "uniform", "n": 4}}, ".kernel.csv"),
        ],
    )
    def test_out_never_overwrites_config(self, tmp_path, capsys, command, payload, written):
        cfg = write_config(tmp_path, "b1.json", payload)
        before = cfg.read_text()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "b1")]) == 1
        assert "would overwrite the config" in capsys.readouterr().err
        assert cfg.read_text() == before
        assert not (tmp_path / f"b1{written}").exists()

    def test_other_outputs_may_share_the_config_stem(self, tmp_path):
        cfg = write_config(tmp_path, "b1.json", {"distribution": {"family": "uniform", "n": 4}})
        before = cfg.read_text()
        assert main(["dynamics", "--config", str(cfg), "--out", str(tmp_path / "b1")]) == 0
        assert cfg.read_text() == before
        assert (tmp_path / "b1.csv").exists()


class TestDefaultOutputBase:
    def test_config_file_never_overwritten(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {"distribution": {"family": "uniform", "n": 4}}
        cfg = write_config(tmp_path, "exp.json", payload)
        before = cfg.read_text()
        assert main(["moments", "--config", str(cfg), "--quiet"]) == 0
        assert cfg.read_text() == before
        assert json.loads((tmp_path / "exp.out.json").read_text())["n"] == 4


def _percent_g(table) -> bytes:
    """The reference bytes: "%.17g" of every value, joined by ',' and '\\n'."""
    rows = np.asarray(table, dtype=float).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()


def _row_writer_bytes(header, rows) -> bytes:
    """The reference bytes of a table as the commands typed its values: a
    header line, then each row's values by "%.17g" for a float and str for an int."""
    lines = [",".join(header)]
    lines += (",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _neighbours(x: float) -> list[float]:
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


# values where a formatter of %.17g most likely goes wrong: zeros, subnormals,
# the ends of the range the fast path takes, and the powers of ten, whose
# log10 can land one off and whose neighbours round to nines or to zeros
_EDGES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.99999999999999999e16, 2.0**53,
    float("inf"), float("-inf"), float("nan"),
    *_neighbours(1e-280), *_neighbours(1e280),
    *(v for k in range(-300, 301) for v in _neighbours(10.0**k)),
]


class TestG17:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns_match_percent_g(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        for table in (x.reshape(-1, 1), x.reshape(1, -1)):
            assert _tables._g17(table) == _percent_g(table)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats_match_percent_g(self, values):
        x = np.array(values)
        for table in (x.reshape(-1, 1), x.reshape(1, -1)):
            assert _tables._g17(table) == _percent_g(table)

    def test_edges_match_percent_g(self):
        x = np.array(_EDGES + [-v for v in _EDGES])
        assert _tables._g17(x.reshape(-1, 1)) == _percent_g(x.reshape(-1, 1))
        table = np.append(x, [7.0] * (-x.size % 7)).reshape(-1, 7)
        assert _tables._g17(table) == _percent_g(table)
        assert _tables._g17(np.array([[10.0**226]])) == b"9.9999999999999996e+225\n"


class TestArrayTables:
    def test_blocks_match_row_writer(self, tmp_path):
        # more rows than one block holds, in one column and in five
        rng = np.random.default_rng(24)
        x = rng.standard_normal(12_000) * 10.0 ** rng.integers(-30, 30, 12_000)
        x[::97] = np.round(x[::97])
        for table in (x.reshape(-1, 1), x.reshape(-1, 5)):
            path, header = tmp_path / "table.csv", ["a"] * table.shape[1]
            _tables.write_csv(path, header, [table])
            assert path.read_bytes() == (",".join(header) + "\n").encode() + _percent_g(table)
            assert path.read_bytes() == _row_writer_bytes(header, table.tolist())

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_row(self, tmp_path, rows):
        table = np.array([[0.5, -3.0, 1e-7]])[:rows]
        assert _tables._g17(table) == b"0.5,-3,9.9999999999999995e-08\n" * rows
        path = tmp_path / "table.csv"
        _tables.write_csv(path, ["x", "y", "z"], [table])
        assert path.read_bytes() == b"x,y,z\n" + b"0.5,-3,9.9999999999999995e-08\n" * rows

    def test_empty_k_values_write_the_header(self, tmp_path):
        cfg = write_config(
            tmp_path, "dyn.json", {"distribution": {"family": "uniform", "n": 5}, "k_values": []}
        )
        out = str(tmp_path / "d")
        assert main(["dynamics", "--config", str(cfg), "--out", out, "--quiet"]) == 0
        header = b"k,empty_proxy,occupancy_proxy,envelope,margin\n"
        assert (tmp_path / "d.csv").read_bytes() == header


class TestTablesMatchRowWriter:
    """Each table a command writes has the bytes of _row_writer_bytes, the
    reference, of the values the command tabulated before it handed over arrays."""

    def _run(self, tmp_path, command, config, ext=".csv", seed="3"):
        cfg = write_config(tmp_path, f"{command}_in.json", config)
        out = tmp_path / command
        argv = [command, "--config", str(cfg), "--seed", seed, "--out", str(out), "--quiet"]
        assert main(argv) == 0
        data = Path(str(out) + ext).read_bytes()
        return data.split(b"\n", 1)[0].decode().split(","), data

    def test_dynamics(self, tmp_path):
        p = topheavy(300, 0.05)
        header, data = self._run(
            tmp_path, "dynamics", {"distribution": {"family": "topheavy", "n": 300, "c2": 0.05}}
        )
        ks = np.arange(301.0)
        margin = np.zeros_like(ks)
        margin[1:] = cli.envelope_margin(p, ks[1:])
        columns = (
            cli.empty_boxes_proxy(p, ks), cli.occupancy_proxy(p, ks), cli.one_step_envelope(p, ks)
        )
        rows = np.column_stack((ks, *columns, margin)).tolist()
        assert data == _row_writer_bytes(header, rows)

    def test_bounds(self, tmp_path):
        p = coalsim.uniform(40)
        offsets = np.linspace(-4.0, 4.0, 25).tolist()
        config = {"distribution": {"family": "uniform", "n": 40}, "k": 20, "b_offsets": offsets}
        header, data = self._run(tmp_path, "bounds", config)
        center = cli.tail_bounds.tilt_center(p, 20)
        report = cli.tail_bounds.curvature_report(p, 20, [center + o for o in offsets])
        rows = [(pt.b, pt.z, pt.r, pt.h, pt.curvature_fd, pt.hessian_det) for pt in report.points]
        assert len(rows) == len(offsets)
        assert data == _row_writer_bytes(header, rows)

    def test_exact_expected_times(self, tmp_path):
        p = topheavy(100, 0.1)
        config = {"distribution": {"family": "topheavy", "n": 100, "c2": 0.1}}
        header, data = self._run(tmp_path, "exact", config, ".expected.csv")
        et = expected_coalescence_times(TriangularKernel(p))
        assert data == _row_writer_bytes(header, enumerate(et[1:], start=1))

    def test_simulate_with_thresholds(self, tmp_path):
        config = {
            "distribution": {"family": "topheavy", "n": 40, "c2": 0.1},
            "replicates": 200,
            "thresholds": [20, 7.5, 2],
        }
        header, data = self._run(tmp_path, "simulate", config, ".replicates.csv")
        assert header == ["replicate", "T", "tau_at_20", "tau_at_7.5", "tau_at_2"]
        sim = SimConfig(topheavy(40, 0.1), 200, master_seed=3, passage_thresholds=(20.0, 7.5, 2.0))
        rows = ([i, r.T, *r.passages.values()] for i, r in enumerate(cli.simulate.runs(sim)))
        assert data == _row_writer_bytes(header, rows)

    def test_limit(self, tmp_path):
        config = {"n_values": [30, 60], "replicates": 150, "K": 50}
        header, data = self._run(tmp_path, "limit", config)
        rows = [cli.asymptotics.limit_law_experiment(n, 150, 3, 50) for n in (30, 60)]
        assert data == _row_writer_bytes(header, map(cli.dataclasses.astuple, rows))

    def test_threshold(self, tmp_path):
        config = {"n_values": [30, 60], "lambda": "sqrt_ln", "replicates": 40}
        header, data = self._run(tmp_path, "threshold", config)
        rows = cli.asymptotics.threshold_experiment([30, 60], "sqrt_ln", 40, 3)
        assert data == _row_writer_bytes(header, map(cli.dataclasses.astuple, rows))

    @pytest.mark.slow
    def test_hundred_thousand_rows_in_less_memory(self, tmp_path):
        # dynamics on topheavy n = 1e5 writes 100 001 rows; a child that writes
        # the same table as Python lists, one "%.17g" per value, is the reference
        cfg = write_config(
            tmp_path, "dyn.json", {"distribution": {"family": "topheavy", "n": 100_000, "c2": 0.01}}
        )
        script = """if True:
            import json, sys
            from coalsim import cli
            argv = ["dynamics", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]
            if sys.argv[3] == "rows":
                args = cli._build_parser().parse_args(argv)
                _, [(header, table)] = cli._cmd_dynamics(args, cli._load_config(args))
                with open(sys.argv[2] + ".csv", "w") as fh:
                    fh.write(",".join(header) + "\\n")
                    for row in table.tolist():
                        fh.write(",".join("%.17g" % v for v in row) + "\\n")
            else:
                assert cli.main(argv) == 0
            # this process's own peak, not the test runner's that ru_maxrss keeps
            with open("/proc/self/status") as fh:
                rss = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps(rss))
        """
        src = str(Path(coalsim.__file__).resolve().parent.parent)
        peaks, data = {}, {}
        for how in ("rows", "array"):
            out = str(tmp_path / how)
            child = subprocess.run(
                [sys.executable, "-c", script, str(cfg), out, how],
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=300, check=True,
            )
            peaks[how] = json.loads(child.stdout)
            data[how] = Path(out + ".csv").read_bytes()
        assert data["array"].count(b"\n") == 1 + 100_001
        assert data["array"] == data["rows"]
        assert peaks["array"] <= 1.1 * peaks["rows"]  # VmHWM is in KiB


class TestKernelDump:
    @pytest.mark.slow
    def test_uniform_2000_in_the_memory_of_no_dump(self, tmp_path):
        # 2 001 000 entries, built a block of rows at a time: the dump costs no
        # more peak memory than a child that builds the same kernel and E[T]
        # and writes every other file
        cfg = write_config(tmp_path, "exact.json", {"distribution": {"family": "uniform", "n": 2000}})
        script = """if True:
            import json, sys
            from coalsim import cli, exact_chain
            if sys.argv[3] == "no_dump":
                exact_chain.write_kernel_csv = lambda kernel, path: None
            argv = ["exact", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]
            assert cli.main(argv) == 0
            with open("/proc/self/status") as fh:
                rss = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps(rss))
        """
        src = str(Path(coalsim.__file__).resolve().parent.parent)
        peaks = {}
        for how in ("no_dump", "dump"):
            child = subprocess.run(
                [sys.executable, "-c", script, str(cfg), str(tmp_path / how), how],
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=300, check=True,
            )
            peaks[how] = json.loads(child.stdout)
        assert not (tmp_path / "no_dump.kernel.csv").exists()
        assert peaks["dump"] <= 1.1 * peaks["no_dump"]  # VmHWM is in KiB
        kernel = TriangularKernel(coalsim.uniform(2000))
        with open(tmp_path / "dump.kernel.csv", "rb") as fh:
            assert fh.readline() == b"k,b,prob\n"
            for k in range(1, 2001):  # one f-string per entry is the reference
                probs = kernel.row(k).probs
                want = "".join(f"{k},{b},{probs[b]:.17g}\n" for b in range(1, k + 1)).encode()
                assert fh.read(len(want)) == want
            assert fh.read() == b""
