"""Benchmark of the ``coalsim`` command line: four seeded closed-loop workloads.

Run from the repository root, for example::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

One client runs the workload's job list (see workloads.py) back to back,
in-process through ``coalsim.cli.main(argv)``, for ``--seconds`` seconds, and
checks every job's output files against the package's own oracles (see
checks.py).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics,
measured by alternating untraced and traced passes (see spans.py).  The line
before it records provenance.  Job outputs, the spans and the full result go
to ``.perfbench_run/`` under the repository root.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_RUNS = 5
# Time of _calibrate() at the reference speed; it only sets the scale of the
# reported times (see _calibrate).
CALIBRATION_REF_S = 0.008
_CALIBRATION_DATA = np.random.default_rng(0).random(100_000)


def _calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work (~8 ms).

    On a shared two-vCPU virtual machine the speed drifts by up to a third
    over tens of seconds, far more than the bounds allow.  Job times are
    therefore reported at the reference speed: measured seconds times
    CALIBRATION_REF_S over the mean of the calibrations run just before and
    just after the job.  The calibration calls no coalsim code, so a change
    to the package moves the job times and not the calibration.
    """
    t0 = perf_counter()
    x = 0
    for i in range(80_000):
        x += i * i
    np.sort(_CALIBRATION_DATA)
    return perf_counter() - t0


def _import_coalsim():
    """Import the package from this checkout's source tree, and only from there."""
    sys.path.insert(0, str(SRC))
    try:
        import coalsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import coalsim from {SRC}: {exc}")
    if Path(coalsim.__file__).resolve().parent != SRC / "coalsim":
        raise SystemExit(f"perfbench: coalsim imported from {coalsim.__file__}, not {SRC}")
    return coalsim


@dataclass
class JobRun:
    name: str
    command: str
    seconds: float  # as measured
    scale: float  # to the reference speed
    problems: list[str]
    bytes_out: int

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Pass:
    traced: bool
    wall: float  # as measured, calibrations between jobs included
    jobs: list[JobRun] = field(default_factory=list)

    @property
    def ref_seconds(self) -> float:
        """The jobs' time at the reference speed; they run back to back."""
        return sum(j.ref_seconds for j in self.jobs)


class Runner:
    """Runs the job list once per pass and checks what each job wrote."""

    def __init__(self, jobs, work: Path, checker, cli):
        self.jobs = jobs
        self.out = work / "out"
        self.configs = workloads.write_configs(jobs, work / "configs")
        self.checker = checker
        self.cli = cli
        self.digests: dict[str, str] = {}

    def _call(self, job, tracer):
        argv = job.argv(self.configs[job.name], self.out / job.name)
        scope = tracer.job(job.name, job.command) if tracer else nullcontext()
        try:
            with scope:
                return self.cli.main(argv)
        except Exception:  # a job that raises is a failed job, not a failed run
            traceback.print_exc()
            return None

    def run_pass(self, tracer=None) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        timed = []
        calibrations = [_calibrate()]
        with tracer.installed() if tracer else nullcontext():
            for job in self.jobs:
                t0 = perf_counter()
                code = self._call(job, tracer)
                timed.append((job, code, t0, perf_counter()))
                calibrations.append(_calibrate())
        result = Pass(tracer is not None, timed[-1][3] - timed[0][2])
        for i, (job, code, t0, t1) in enumerate(timed):  # checks: outside the timing
            files = sorted(self.out.glob(f"{job.name}.*"))
            if code != 0:
                problems = [f"exit code {code}" if code is not None else "raised"]
            else:
                problems = self.checker.check(job, self.out / job.name)
            digest = hashlib.sha256()
            for path in files:
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            first = self.digests.setdefault(job.name, digest.hexdigest())
            if first != digest.hexdigest():
                problems.append("output differs from the first pass with the same seed")
            for problem in problems:
                print(f"perfbench: job {job.name} failed: {problem}", file=sys.stderr)
            size = sum(path.stat().st_size for path in files)
            scale = 2.0 * CALIBRATION_REF_S / (calibrations[i] + calibrations[i + 1])
            result.jobs.append(
                JobRun(job.name, job.command, t1 - t0, scale, problems, size)
            )
        return result


def _setup_seconds(argv: list[str]) -> list[tuple[float, float]]:
    """Process start to ready, timed from outside, SETUP_RUNS times; each as
    (seconds as measured, scale to the reference speed)."""
    times = []
    before = _calibrate()
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
            capture_output=True, text=True, timeout=120,
        )
        seconds = perf_counter() - t0
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{done.stderr}")
        after = _calibrate()
        times.append((seconds, 2.0 * CALIBRATION_REF_S / (before + after)))
        before = after
    return times


def _provenance(coalsim) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coalsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # not an enclosing repository's HEAD
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,  # None outside a git checkout; src_sha256 still applies
        "src_sha256": digest.hexdigest(),
        "coalsim_version": coalsim.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": os.environ.get("THREADS"),
    }


def _measure(runner: Runner, seconds: float, tracer) -> list[Pass]:
    """Passes until the next one would overrun; with a tracer, alternates
    untraced and traced passes so both kinds see the same conditions."""
    trace = tracer is not None
    deadline = perf_counter() + seconds
    passes: list[Pass] = []
    while True:
        started = perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(runner.run_pass(tracer if traced else None))
        enough = len(passes) >= (2 if trace else 1)
        if enough and perf_counter() + (perf_counter() - started) > deadline:
            return passes


def _end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> dict[str, float]:
    """End-to-end metrics; every time is at the reference speed."""
    jobs = [j for p in passes for j in p.jobs]
    m = {
        "wall_s": statistics.median(p.ref_seconds for p in passes),
        "setup_s": statistics.median(seconds * scale for seconds, scale in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": sum(not j.problems for j in jobs) / len(jobs),
    }
    # each job's median over passes, summed per subcommand: steadier than the
    # median of per-pass sums when one job of several has a slow pass
    times: dict[tuple[str, str], list[float]] = {}
    for j in jobs:
        times.setdefault((j.command, j.name), []).append(j.ref_seconds)
    for command in workloads.COMMANDS:
        m[f"cmd_{command}_s"] = sum(
            statistics.median(t) for (c, _), t in times.items() if c == command
        )
    return m


def _per_layer(passes: list[Pass], tracer) -> dict[str, float]:
    from spans import layer_metrics

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    m = layer_metrics(tracer.spans, len(traced))
    jobs = [j for p in traced for j in p.jobs]
    m["cli.failed"] = sum(bool(j.problems) for j in jobs) / len(traced)
    m["cli.bytes_out"] = sum(j.bytes_out for j in jobs) / len(traced)
    m["trace.overhead_ratio"] = (
        statistics.median(p.ref_seconds for p in traced)
        / statistics.median(p.ref_seconds for p in plain) - 1.0
    )
    return m


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate configs, then exit (times set-up)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(why)}")
    coalsim = _import_coalsim()
    import checks
    import spans
    from coalsim import cli

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobs = workloads.build(args.workload, args.seed)
    if args.setup_only:
        workloads.write_configs(jobs, work.with_name(work.name + "-setup"))
        return 0
    shutil.rmtree(work, ignore_errors=True)
    setup = [] if args.trace else _setup_seconds(argv)
    runner = Runner(jobs, work, checks.Checker(), cli)
    tracer = spans.Tracer() if args.trace else None
    passes = _measure(runner, args.seconds, tracer)

    if tracer is not None:
        metrics = _per_layer(passes, tracer)
        tracer.write(work / "spans.jsonl")
        declared = spec["per_layer"]
    else:
        metrics = _end_to_end(passes, setup)
        declared = spec["end_to_end"]
    if set(metrics) != {d["name"] for d in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json")
    jobs_run = [j for p in passes for j in p.jobs]
    failed = sum(bool(j.problems) for j in jobs_run)
    result = {
        "correct": failed == 0,
        "attempted": len(jobs_run),
        "failed": failed,
        "metrics": {
            d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared
        },
    }
    context = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "setup_runs": [{"seconds": t, "scale": c} for t, c in setup],
        "provenance": _provenance(coalsim),
    }
    detail = dict(context, result=result, passes=[
        {"traced": p.traced, "wall_s": p.wall, "ref_seconds": p.ref_seconds,
         "jobs": [vars(j) for j in p.jobs]} for p in passes
    ])
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
