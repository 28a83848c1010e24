"""Monte Carlo throughput of ``coalsim.simulate``, as written to BENCH_simulate.json.

Run from the repository root, naming each source tree to measure::

    python3 scripts/bench_simulate.py --pairs 5 parent=/path/to/parent/src change=src

Each labelled tree is imported in its own child process.  The children run in
turn, label after label, ``--pairs`` times, so slow spells of a shared machine
hit every label alike; the JSON on standard output holds each label's median
over its runs, with the core count and the Python and numpy versions.

Every rate is taken with the per-vector caches warm:

- ``replicates_per_s``: ``simulate.runs`` for uniform and topheavy
  (c2 = 1/ln n) vectors at n = 1e2, 1e3 and 1e4, and for three-level vectors
  at n = 1e3 and 1e4: nu heavy boxes of weight 0.15/nu, one middle box of
  weight 0.02 and n - nu - 1 light boxes, with nu = 1 (one level of several
  boxes) and nu = 3 (two such levels);
- ``rounds_per_s``: ``simulate.step`` at 64 and at n balls, the round that
  every count of at least 64 balls takes, for the same vectors at n = 1e3
  and 1e4 and for a Dirichlet(1) vector, whose weights are all distinct;
  and at 64 balls for topheavy at n = 1e5, where a count that scans all n
  boxes would cost far more than the 64 balls;
- ``jump_chain_runs_per_s``: whole runs from b0 = 63 balls, which only take
  jump-chain steps;
- ``run_call_per_s``: lone ``simulate.run`` calls, each a block of one lane,
  for uniform vectors at n = 12 and n = 1000 (as a loop over ``run`` makes);
- ``setup_s``: one one-replicate run of a new vector, which builds what the
  vector's rounds and jump chain reuse; a throwaway run of another vector
  first keeps the process's one-time warm-up out of the first entry.  Besides
  the vectors above, Dirichlet(1) vectors at n = 1e3 and 1e4, whose jump rows
  come from the box pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

REPLICATES = {
    ("uniform", 100): 5000, ("uniform", 1000): 600, ("uniform", 10_000): 40,
    ("topheavy", 100): 5000, ("topheavy", 1000): 3000, ("topheavy", 10_000): 600,
    ("three_level_nu1", 1000): 1000, ("three_level_nu1", 10_000): 300,
    ("three_level_nu3", 1000): 1000, ("three_level_nu3", 10_000): 300,
}
ROUND_FAMILIES = ("uniform", "topheavy", "three_level_nu1", "three_level_nu3", "dirichlet")
# (family, n) -> ball counts of its timed rounds
ROUNDS = {(f, n): (64, n) for f in ROUND_FAMILIES for n in (1000, 10_000)}
ROUNDS[("topheavy", 100_000)] = (64,)


def _vector(cs, family: str, n: int):
    if family == "uniform":
        return cs.uniform(n)
    if family == "topheavy":
        return cs.topheavy(n, 1.0 / math.log(n))
    if family.startswith("three_level_nu"):
        nu = int(family.removeprefix("three_level_nu"))
        w = np.array([0.15 / nu] * nu + [0.02] + [0.83 / (n - nu - 1)] * (n - nu - 1))
        return cs.three_level(n, float(w @ w), float((w * w) @ w), nu)
    return cs.ProbabilityVector(np.random.default_rng(n).dirichlet(np.ones(n)))


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _child(src: str) -> dict:
    sys.path.insert(0, src)
    import coalsim as cs
    from coalsim import simulate

    out: dict = {"replicates_per_s": {}, "rounds_per_s": {}, "setup_s": {}}
    simulate.runs(cs.SimConfig(p=cs.uniform(80), master_seed=1))
    for (family, n), reps in REPLICATES.items():
        key = f"{family}_n{n}"
        p = _vector(cs, family, n)
        out["setup_s"][key] = _timed(lambda: simulate.runs(cs.SimConfig(p=p, master_seed=1)))
        config = cs.SimConfig(p=p, replicates=reps, master_seed=2)
        out["replicates_per_s"][key] = reps / _timed(lambda: simulate.runs(config))
    for n in (1000, 10_000):
        p = _vector(cs, "dirichlet", n)
        config = cs.SimConfig(p=p, master_seed=1)
        out["setup_s"][f"dirichlet_n{n}"] = _timed(lambda: simulate.runs(config))
    for (family, n), balls in ROUNDS.items():
        p = _vector(cs, family, n)
        rng = np.random.default_rng(3)
        simulate.step(p, 64, rng)  # builds the vector's round
        for b in balls:
            calls = 10_000 if b == 64 else 2000 if b <= 1000 else 400
            secs = _timed(lambda: [simulate.step(p, b, rng) for _ in range(calls)])
            out["rounds_per_s"][f"{family}_n{n}_b{b}"] = calls / secs
    p = cs.uniform(1000)
    config = cs.SimConfig(p=p, replicates=5000, master_seed=4, b0=63)
    simulate.runs(cs.SimConfig(p=p, master_seed=1, b0=63))
    secs = _timed(lambda: simulate.runs(config))
    out["jump_chain_runs_per_s"] = {"uniform_n1000_b63": config.replicates / secs}
    out["run_call_per_s"] = {}
    for n, calls in ((12, 2000), (1000, 200)):
        config = cs.SimConfig(p=cs.uniform(n), master_seed=5)
        simulate.run(config, 0)
        secs = _timed(lambda: [simulate.run(config, i) for i in range(calls)])
        out["run_call_per_s"][f"uniform_n{n}"] = calls / secs
    return out


def _median_tree(samples: list):
    if isinstance(samples[0], dict):
        return {k: _median_tree([s[k] for s in samples]) for k in samples[0]}
    if any(isinstance(s, str) for s in samples):
        # a note such as "not run" or "over 30 s" ranks above every time, so a
        # run stopped at a cap counts as slower than any run that finished
        times = sorted(s for s in samples if not isinstance(s, str))
        notes = [s for s in samples if isinstance(s, str)]
        return (times + notes)[len(samples) // 2]
    return statistics.median(samples)


def main(child=_child, doc: str = __doc__, script: str = __file__) -> None:
    """With --child SRC, print child(SRC) as JSON; otherwise run each labelled
    tree's child `script` in turn, --pairs times, and print every label's medians."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="label=path/to/src")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child)))
        return
    trees = dict(t.split("=", 1) for t in args.trees)
    runs: dict[str, list] = {label: [] for label in trees}
    for i in range(args.pairs):
        # alternate which label goes first
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            argv = [sys.executable, script, "--child", trees[label]]
            result = subprocess.run(argv, check=True, capture_output=True, text=True)
            runs[label].append(json.loads(result.stdout))
    report = {
        "command": f"python3 scripts/{os.path.basename(script)} " + " ".join(sys.argv[1:]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runs_per_label": args.pairs,
        "statistic": "median over runs",
        "results": {label: _median_tree(samples) for label, samples in runs.items()},
    }
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
