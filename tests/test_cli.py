import json

import pytest

from coalsim.cli import main
from coalsim.distributions import topheavy
from coalsim.simulate import SimConfig, batch, run


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


    def test_uniform_pair_expected_time_is_exact(self, tmp_path):
        cfg = write_config(
            tmp_path, "pair.json", {"distribution": {"family": "uniform", "n": 2}}
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


class TestVariationalCommand:
    def test_report(self, tmp_path):
        cfg = write_config(
            tmp_path, "var.json", {"n": 4, "c2": 0.3, "k": 5, "budget": 20_000}
        )
        out = tmp_path / "var"
        assert main(["variational", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "var.json").read_text())
        assert report["f_best"] >= report["f_topheavy"] - 1e-9
        assert report["distinct_levels_at_1e-6"] >= 1


class TestBoundsCommand:
    def test_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "bounds.json",
            {"distribution": {"family": "uniform", "n": 20}, "k": 10},
        )
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["all_ok"] is True
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[0] == "b,z,r,h,h_second_fd,hessian_det"


class TestExperimentsCommands:
    def test_limit_small(self, tmp_path):
        cfg = write_config(
            tmp_path, "lim.json", {"n_values": [50], "replicates": 200, "K": 200}
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

    def test_numerical_failure_exit_code(self, tmp_path):
        # three-level request with c3 at its ceiling but a large heavy count
        # has no solution: the solver reports non-convergence
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
        assert main(["moments", "--config", str(cfg)]) == 2


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
            ("limit", {"n": 50, "lambda": "zz"}, "'lambda' rule 'zz'"),
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
        ],
    )
    def test_experiment_config_names_bad_field(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path, "exp.json", payload)
        out = tmp_path / "exp"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err

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
        assert main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "two")]) == 1
        assert "collision rate 2.0 out of range" in capsys.readouterr().err


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


class TestDefaultOutputBase:
    def test_config_file_never_overwritten(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {"distribution": {"family": "uniform", "n": 4}}
        cfg = write_config(tmp_path, "exp.json", payload)
        before = cfg.read_text()
        assert main(["moments", "--config", str(cfg), "--quiet"]) == 0
        assert cfg.read_text() == before
        assert json.loads((tmp_path / "exp.out.json").read_text())["n"] == 4
