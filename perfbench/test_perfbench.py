"""Self-tests of the benchmark: its checks turn corrupted output into a failed
job, and tracing leaves every file the CLI writes byte-identical.

Run from the repository root: ``python3 -m pytest -q perfbench/test_perfbench.py``
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coalsim import cli, simulate  # noqa: E402
from run import Runner  # noqa: E402


class _CorruptingCli:
    """The real CLI, after which row k=2 of each kernel CSV sums to 1.01."""

    @staticmethod
    def main(argv):
        code = cli.main(argv)
        out = argv[argv.index("--out") + 1]
        path = Path(out + ".kernel.csv")
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            k, b, prob = line.split(",")
            if k == "2":
                lines[i] = f"{k},{b},{float(prob) * 1.01!r}"
        path.write_text("\n".join(lines) + "\n")
        return code


def test_corrupted_kernel_row_counts_as_failed_job(tmp_path):
    job = workloads.Job(
        "uniform_n12", "exact", {"distribution": {"family": "uniform", "n": 12}}, 0
    )
    clean = Runner([job], tmp_path / "clean", checks.Checker(), cli).run_pass()
    assert clean.jobs[0].problems == []

    corrupted = Runner([job], tmp_path / "bad", checks.Checker(), _CorruptingCli)
    problems = corrupted.run_pass().jobs[0].problems
    assert any("row k=2 sums to" in p for p in problems), problems


def test_traced_and_untraced_runs_write_identical_files(tmp_path):
    # the probes of these two workloads cover all seven subcommands, small
    probes = {
        job.name: job
        for name in ("analysis", "mc_uniform")
        for job in workloads.build(name, 7)
        if job.name.startswith("probe_")
    }
    jobs = list(probes.values())
    assert {job.command for job in jobs} == set(workloads.COMMANDS)
    original_run = simulate.run

    plain = Runner(jobs, tmp_path / "plain", checks.Checker(), cli).run_pass()
    tracer = spans.Tracer()
    traced = Runner(jobs, tmp_path / "traced", checks.Checker(), cli).run_pass(tracer)
    assert simulate.run is original_run

    for result in (plain, traced):
        assert all(not j.problems for j in result.jobs)
    plain_files = sorted((tmp_path / "plain" / "out").iterdir())
    traced_files = sorted((tmp_path / "traced" / "out").iterdir())
    assert [p.name for p in plain_files] == [p.name for p in traced_files]
    for a, b in zip(plain_files, traced_files):
        assert a.read_bytes() == b.read_bytes(), a.name

    # every layer is seen, and worker-thread spans still belong to their job
    assert {s.layer for s in tracer.spans} == {"cli", *spans.LIBRARY_LAYERS}
    assert all(s.job in tracer.job_names for s in tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["cli.jobs"] == len(jobs)
    # one run per replicate: per n for limit, per n and vector for threshold
    runs_per_replicate = {"simulate": lambda c: 1,
                          "limit": lambda c: len(c["n_values"]),
                          "threshold": lambda c: 2 * len(c["n_values"])}
    assert metrics["simulate.replicates"] == sum(
        job.config["replicates"] * runs_per_replicate[job.command](job.config)
        for job in jobs if job.command in runs_per_replicate
    )


def test_workloads_match_benchmark_json_and_depend_only_on_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)
