"""Tilt solves per second on the benchmark's b-grids, as written to BENCH_bounds.json.

Run from the repository root, naming each source tree to measure::

    python3 scripts/bench_bounds.py --pairs 5 parent=/path/to/parent/src change=src

Each labelled tree is imported in its own child process.  The children run in
turn, label after label, ``--pairs`` times, so slow spells of a shared machine
hit every label alike; the JSON on standard output holds each label's median
over its runs, with the core count and the Python and numpy versions (the
runner is ``scripts/bench_simulate.py``'s ``main``).

The grids are those of perfbench's ``bounds`` jobs: 25 offsets from the tilt
centre on the four ``analysis`` grids and the probe grid, kept to 0 < b <= k
as ``coalsim bounds`` keeps them.  Every grid point needs three solves (b and
b +- the difference step).  Per grid:

- ``grid_solves_per_s``: those solves per second of ``curvature_report`` on
  the whole grid, which also evaluates the exponent and the Hessian;
- ``point_solves_per_s``: ``solve_tilt`` calls per second, one target at a
  time, over the grid's points.

Each rate is the median of REPEATS timings after one warm-up call.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import numpy as np
from bench_simulate import main  # the labelled-tree runner the bench scripts share

REPEATS = 7
# name: (descriptor, k, lowest offset, highest offset), as in perfbench/workloads.py
GRIDS = {
    "uniform_n1000_k500": ({"family": "uniform", "n": 1000}, 500, -150.0, 90.0),
    "topheavy_n1000_k300": ({"family": "topheavy", "n": 1000, "c2": 0.02}, 300, -60.0, 50.0),
    "uniform_n2000_k1000": ({"family": "uniform", "n": 2000}, 1000, -300.0, 150.0),
    "topheavy_n3000_k1000": ({"family": "topheavy", "n": 3000, "c2": 0.005}, 1000, -150.0, 100.0),
    "probe_uniform_n1000_k400": ({"family": "uniform", "n": 1000}, 400, -100.0, 60.0),
}


def _median_secs(fn) -> float:
    fn()
    secs = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        secs.append(perf_counter() - t0)
    return statistics.median(secs)


def _child(src: str) -> dict:
    sys.path.insert(0, src)
    import coalsim as cs

    out: dict = {"grid_solves_per_s": {}, "point_solves_per_s": {}}
    for name, (desc, k, low, high) in GRIDS.items():
        p = cs.from_descriptor(desc)
        center = cs.tilt_center(p, k)
        grid = [b for b in (center + o for o in np.linspace(low, high, 25)) if 0.0 < b <= k]
        solves = 3 * len(cs.curvature_report(p, k, grid).points)
        secs = _median_secs(lambda: cs.curvature_report(p, k, grid))
        out["grid_solves_per_s"][name] = solves / secs
        secs = _median_secs(lambda: [cs.solve_tilt(p, k, b) for b in grid])
        out["point_solves_per_s"][name] = len(grid) / secs
    return out


if __name__ == "__main__":
    main(_child, __doc__, __file__)
