"""Seeded job lists for the benchmark's four workloads.

A workload is a fixed list of ``coalsim`` CLI jobs that one client runs back
to back (a closed loop).  Everything that varies between seeds comes from the
workload seed: the CLI ``--seed`` of each job, the Dirichlet weight vectors,
and small jitters of collision rates.  Problem
sizes do not depend on the seed, so run time stays comparable across seeds.

Besides its own jobs, every workload runs one small probe job of each other
subcommand.  Every end-to-end metric, ``cmd_<subcommand>_s`` included, has to
be reported on every workload, and a probe keeps each of those times defined
and nonzero without moving the workload's focus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMMANDS = (
    "exact",
    "simulate",
    "limit",
    "threshold",
    "bounds",
    "variational",
    "dynamics",
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``name`` is unique in its workload and names its files."""

    name: str
    command: str
    config: dict
    seed: int

    def argv(self, config_path: Path, out_base: Path) -> list[str]:
        return [
            self.command,
            "--config", str(config_path),
            "--seed", str(self.seed),
            "--out", str(out_base),
            "--quiet",
        ]


def _jitter(rng: np.random.Generator, value: float, rel: float = 0.05) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _dirichlet(rng: np.random.Generator, n: int) -> dict:
    # all-distinct weights: the kernel cannot group boxes, and every draw differs
    return {
        "family": "explicit",
        "weights": rng.dirichlet(np.ones(n)).tolist(),
        "normalize": True,
    }


def _three_level(n: int, heavy: float, middle: float, nu: int) -> dict:
    """Descriptor whose (c2, c3) are the moments of an explicit three-level
    vector (heavy x nu, middle x 1, the rest equal), so a solution exists."""
    rest = (1.0 - nu * heavy - middle) / (n - nu - 1)
    w = np.array([heavy] * nu + [middle] + [rest] * (n - nu - 1))
    return {
        "family": "three_level",
        "n": n,
        "c2": float(w @ w),
        "c3": float((w * w) @ w),
        "nu": nu,
    }


def _grid(low: float, high: float) -> list[float]:
    # 25 b offsets from the tilt centre.  Grids stay fixed across seeds and
    # inside the solvable range: a failing solve near b = k costs over a
    # second, so a grid that moved with the seed would swing the run time.
    return [float(x) for x in np.linspace(low, high, 25)]


def _probes(rng: np.random.Generator, seeds: list[int], skip: set[str]) -> list[Job]:
    probes = [
        Job("probe_exact", "exact",
            {"distribution": {"family": "uniform", "n": 90}}, seeds[0]),
        Job("probe_simulate", "simulate",
            {"distribution": {"family": "uniform", "n": 50}, "replicates": 1000},
            seeds[1]),
        Job("probe_limit", "limit",
            {"n_values": [100], "replicates": 300, "K": 1000}, seeds[2]),
        Job("probe_threshold", "threshold",
            {"n_values": [100, 200], "lambda": "ln", "replicates": 150}, seeds[3]),
        Job("probe_bounds", "bounds",
            {"distribution": {"family": "uniform", "n": 1000}, "k": 400,
             "b_offsets": _grid(-100.0, 60.0)}, seeds[4]),
        Job("probe_variational", "variational",
            {"n": 30, "c2": _jitter(rng, 0.1), "k": 30, "budget": 30_000},
            seeds[5]),
        Job("probe_dynamics", "dynamics",
            {"distribution": {"family": "topheavy", "n": 3000,
                              "c2": _jitter(rng, 0.01)}}, seeds[6]),
    ]
    return [job for job in probes if job.command not in skip]


def _exact(rng, seeds):
    return [
        Job("uniform_n200", "exact",
            {"distribution": {"family": "uniform", "n": 200}}, seeds[0]),
        Job("topheavy_n160", "exact",
            {"distribution": {"family": "topheavy", "n": 160,
                              "c2": _jitter(rng, 0.05)},
             "eps": 0.2}, seeds[1]),
        Job("three_level_n120", "exact",
            {"distribution": _three_level(120, _jitter(rng, 0.08), 0.02, nu=3)},
            seeds[2]),
        Job("dirichlet_n40", "exact",
            {"distribution": _dirichlet(rng, 40)}, seeds[3]),
    ]


def _mc_uniform(rng, seeds):
    return [
        Job("uniform_n1000", "simulate",
            {"distribution": {"family": "uniform", "n": 1000}, "replicates": 200,
             "thresholds": [500, 100, 10]}, seeds[0]),
        Job("limit", "limit",
            {"n_values": [100, 1000], "replicates": 200, "K": 1000}, seeds[1]),
        Job("threshold", "threshold",
            {"n_values": [100, 1000], "lambda": "ln", "replicates": 100},
            seeds[2]),
    ]


def _mc_skewed(rng, seeds):
    n = 10_000
    return [
        Job("topheavy_n10000_ln", "simulate",
            {"distribution": {"family": "topheavy", "n": n, "c2": 1.0 / math.log(n)},
             "replicates": 300}, seeds[0]),
        Job("topheavy_n10000_c2_1e-2", "simulate",
            {"distribution": {"family": "topheavy", "n": n, "c2": 0.01},
             "replicates": 100}, seeds[1]),
        Job("dirichlet_n2000", "simulate",
            {"distribution": _dirichlet(rng, 2000), "replicates": 100}, seeds[2]),
        Job("dirichlet_n40", "simulate",
            {"distribution": _dirichlet(rng, 40), "replicates": 1000}, seeds[3]),
    ]


def _analysis(rng, seeds):
    return [
        Job("bounds_uniform_n1000", "bounds",
            {"distribution": {"family": "uniform", "n": 1000}, "k": 500,
             "b_offsets": _grid(-150.0, 90.0)}, seeds[0]),
        Job("bounds_topheavy_n1000", "bounds",
            {"distribution": {"family": "topheavy", "n": 1000, "c2": 0.02},
             "k": 300, "b_offsets": _grid(-60.0, 50.0)}, seeds[1]),
        Job("bounds_uniform_n2000", "bounds",
            {"distribution": {"family": "uniform", "n": 2000}, "k": 1000,
             "b_offsets": _grid(-300.0, 150.0)}, seeds[2]),
        Job("bounds_topheavy_n3000", "bounds",
            {"distribution": {"family": "topheavy", "n": 3000, "c2": 0.005},
             "k": 1000, "b_offsets": _grid(-150.0, 100.0)}, seeds[6]),
        Job("variational_n50", "variational",
            {"n": 50, "c2": _jitter(rng, 0.05), "k": 50, "budget": 100_000},
            seeds[3]),
        Job("variational_n200", "variational",
            {"n": 200, "c2": _jitter(rng, 0.02), "k": 200, "budget": 100_000},
            seeds[4]),
        Job("dynamics_topheavy_n10000", "dynamics",
            {"distribution": {"family": "topheavy", "n": 10_000,
                              "c2": _jitter(rng, 0.01)}}, seeds[5]),
    ]


WORKLOADS = {
    "exact": _exact,
    "mc_uniform": _mc_uniform,
    "mc_skewed": _mc_skewed,
    "analysis": _analysis,
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed: its own jobs, then the probes."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**32, size=16)]
    jobs = WORKLOADS[workload](rng, seeds)
    own = {job.command for job in jobs}
    return jobs + _probes(rng, seeds[8:], own)


def write_configs(jobs: list[Job], directory: Path) -> dict[str, Path]:
    """Write each job's config as JSON; returns the path per job name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        path = directory / f"{job.name}.json"
        path.write_text(json.dumps(job.config, sort_keys=True) + "\n")
        paths[job.name] = path
    return paths
