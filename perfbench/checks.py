"""Output checks for benchmark jobs, built on the package's own oracles.

``Checker.check(job, base)`` reads the files one job wrote under ``base`` and
returns a list of problems; an empty list means the output is correct.  The
runner calls it outside the timed window, and a job with any problem counts as
failed.  Statistical checks use wide bands (5 standard errors, or more) so that
a change to the random stream alone cannot flip them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from coalsim import exact_chain, from_descriptor
from coalsim.tail_bounds import coalescence_time_lower_bound

# above this n an exact reference mean costs more than the job it checks
EXACT_REFERENCE_MAX_N = 60
Z = 5.0


def _csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _file(base: Path, ext: str) -> Path:
    return base.parent / (base.name + ext)


class Checker:
    """Dispatches on the job's subcommand; caches exact reference means."""

    def __init__(self):
        self._reference: dict[str, float] = {}

    def check(self, job, base: Path) -> list[str]:
        try:
            return getattr(self, f"_check_{job.command}")(job, base)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _exact_mean(self, descriptor: dict) -> float:
        """Exact expected coalescence time from n balls (package kernel)."""
        key = json.dumps(descriptor, sort_keys=True)
        if key not in self._reference:
            kernel = exact_chain.TriangularKernel(from_descriptor(descriptor))
            self._reference[key] = float(
                exact_chain.expected_coalescence_times(kernel)[kernel.n]
            )
        return self._reference[key]

    def _check_exact(self, job, base):
        problems = []
        desc = job.config["distribution"]
        summary = _json(_file(base, ".json"))
        n = summary["n"]
        _, kernel = _csv(_file(base, ".kernel.csv"))
        k = kernel[:, 0].astype(np.int64)
        probs = kernel[:, 2]
        if not np.array_equal(np.bincount(k, minlength=n + 1)[1:], np.arange(1, n + 1)):
            problems.append("kernel CSV does not hold rows k = 1..n with k entries each")
        else:
            defect = np.abs(np.bincount(k, weights=probs, minlength=n + 1)[1:] - 1.0)
            bad = np.flatnonzero(defect > 1e-12 * np.arange(1, n + 1))
            if bad.size:
                problems.append(
                    f"kernel row k={bad[0] + 1} sums to 1{defect[bad[0]]:+.3e}"
                )
        if probs.min() < 0.0:
            problems.append("negative kernel probability")
        _, expected = _csv(_file(base, ".expected.csv"))
        et = expected[:, 1]
        if not np.array_equal(expected[:, 0], np.arange(1, n + 1)):
            problems.append("expected-time CSV does not list m = 1..n")
        if np.any(np.diff(et) < 0.0):
            problems.append("E[T] decreases in m")
        if et[-1] != summary["expected_T_from_n"]:
            problems.append("summary E[T] differs from the expected-time CSV")
        if desc["family"] == "uniform" and et[-1] > 2 * n - 2:
            problems.append(f"uniform E[T]={et[-1]} exceeds 2n-2={2 * n - 2}")
        if desc["family"] == "three_level" and not math.isclose(
            summary["c2"], desc["c2"], rel_tol=1e-9
        ):
            problems.append("three-level vector misses the requested c2")
        phases = summary.get("phases")
        if phases is not None:
            total = phases["early"] + phases["middle"] + phases["late"]
            if not math.isclose(total, et[-1], rel_tol=1e-9):
                problems.append(f"phases add to {total}, not E[T]={et[-1]}")
        return problems

    def _check_simulate(self, job, base):
        problems = []
        desc = job.config["distribution"]
        replicates = job.config["replicates"]
        thresholds = sorted(job.config.get("thresholds", ()), reverse=True)
        summary = _json(_file(base, ".json"))
        _, rows = _csv(_file(base, ".replicates.csv"))
        t = rows[:, 1]
        if rows.shape[0] != replicates or summary["replicates"] != replicates:
            problems.append("replicate count differs from the config")
        if t.min() < 1:
            problems.append("a replicate coalesced in zero rounds from n >= 2 balls")
        if not math.isclose(summary["mean_T"], float(t.mean()), rel_tol=1e-12):
            problems.append("summary mean differs from the replicate CSV")
        # columns follow the config order; passage times grow as thresholds drop
        order = [2 + job.config["thresholds"].index(th) for th in thresholds]
        taus = rows[:, order]
        if taus.size and (np.any(np.diff(taus, axis=1) < 0) or np.any(taus > t[:, None])):
            problems.append("passage times out of order or after coalescence")
        mean, se = summary["mean_T"], summary["stderr_T"]
        p = from_descriptor(desc)
        if p.n <= EXACT_REFERENCE_MAX_N:
            ref = self._exact_mean(desc)
            if abs(mean - ref) > Z * se:
                problems.append(
                    f"mean T={mean:.6g} is {abs(mean - ref) / se:.1f} SE from exact {ref:.6g}"
                )
        else:
            m = p.moments()
            floor = coalescence_time_lower_bound(m.c2, m.c3, p.n)
            if mean < floor - Z * se or mean > 2 * p.n - 2 + Z * se:
                problems.append(
                    f"mean T={mean:.6g} outside [{floor:.6g}, {2 * p.n - 2}] by over {Z} SE"
                )
        return problems

    def _check_limit(self, job, base):
        problems = []
        reps = job.config["replicates"]
        summary = _json(_file(base, ".json"))
        if [r["n"] for r in summary["rows"]] != job.config["n_values"]:
            problems.append("limit rows do not follow n_values")
        # SD of T/(2n) tends to sqrt(pi^2/3 - 3) = 0.54; 8 SE plus finite-n bias
        band = 0.1 + 8.0 * 0.54 / math.sqrt(reps)
        for r in summary["rows"]:
            if abs(r["mean_ratio"] - 1.0) > band:
                problems.append(f"n={r['n']}: mean_ratio {r['mean_ratio']:.4f} outside 1 +- {band:.3f}")
            if not 0.0 <= r["ks_distance"] <= 1.0:
                problems.append(f"n={r['n']}: KS distance {r['ks_distance']} outside [0, 1]")
        return problems

    def _check_threshold(self, job, base):
        problems = []
        reps = job.config["replicates"]
        summary = _json(_file(base, ".json"))
        if [r["n"] for r in summary["rows"]] != job.config["n_values"]:
            problems.append("threshold rows do not follow n_values")
        band = 0.2 + 8.0 * 1.08 / math.sqrt(reps)
        for r in summary["rows"]:
            n, c2 = r["n"], r["c2"]
            if not math.isclose(c2, 1.0 / math.log(n), rel_tol=1e-12):
                problems.append(f"n={n}: c2={c2} is not lambda(n)/ln^2 n")
            if abs(r["scaled_mean_uniform"] - 2.0) > band:
                problems.append(f"n={n}: uniform mean T/n={r['scaled_mean_uniform']:.4f} far from 2")
            # E[T] c2 >= 1 from two balls on; the uniform cap bounds E[T] by 2n
            if not 0.5 <= r["scaled_mean_top"] <= 2.0 * n * c2:
                problems.append(f"n={n}: scaled heavy mean {r['scaled_mean_top']:.4f} out of band")
            if not 0.0 <= r["slow_fraction"] <= 1.0:
                problems.append(f"n={n}: slow fraction outside [0, 1]")
        return problems

    def _check_bounds(self, job, base):
        problems = []
        summary = _json(_file(base, ".json"))
        _, rows = _csv(_file(base, ".csv"))
        solved = summary["solved_points"]
        if solved < 1:
            problems.append("no grid point solved")
        elif not summary["all_ok"]:
            problems.append("slope, curvature or Hessian check failed on a solved point")
        if rows.shape[0] != solved:
            problems.append("CSV rows differ from solved_points")
        return problems

    def _check_variational(self, job, base):
        problems = []
        summary = _json(_file(base, ".json"))
        w = np.array(summary["best_weights"])
        if summary["gap"] < -1e-9:
            problems.append(f"search beat the topheavy floor by {-summary['gap']:.3e}")
        if not math.isclose(float(w @ w), job.config["c2"], rel_tol=1e-8):
            problems.append("best vector left the fixed-c2 slice")
        f = float(np.exp(-job.config["k"] * w).sum())
        if not math.isclose(f, summary["f_best"], rel_tol=1e-9):
            problems.append("f_best is not the proxy of best_weights")
        return problems

    def _check_dynamics(self, job, base):
        problems = []
        n = from_descriptor(job.config["distribution"]).n
        _, rows = _csv(_file(base, ".csv"))
        if rows.shape[0] != int(job.config.get("k_max", n)) + 1:
            problems.append("dynamics table has the wrong number of rows")
        if np.any(np.diff(rows[:, 4]) < 0.0):
            problems.append("envelope margin decreases in k")
        if not np.allclose(rows[:, 1] + rows[:, 2], n, rtol=0.0, atol=1e-9 * n):
            problems.append("empty and occupancy proxies do not add to n")
        return problems
