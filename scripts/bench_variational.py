"""Speed of the variational minima and slice sampling, as written to BENCH_variational.json.

Run from the repository root, naming each source tree to measure::

    python3 scripts/bench_variational.py --pairs 5 parent=/path/to/parent/src change=src

Each labelled tree is imported in its own child process.  The children run in
turn, label after label, ``--pairs`` times, so slow spells of a shared machine
hit every label alike; the JSON on standard output holds each label's median
over its runs, with the core count and the Python and numpy versions (the
runner is ``scripts/bench_simulate.py``'s ``main``).

Each figure is the median of three calls, at n = 50, 200 and 1000 with k = n:

- ``fixed_c2_s``: seconds for one ``minimize_proxy_fixed_c2``.  A tree whose
  minimizer still takes a budget and an rng (the random search that the exact
  scan replaced) runs it at budget 100 000;
- ``shapes_per_s``: (zeros, heavy count) shapes the exact scan evaluates per
  second, counted through ``variational._two_level``; trees without the scan
  report none;
- ``sampled_rows_per_s``: fixed-c2 slice samples drawn and scored per second,
  by ``sampled_proxy_min`` or, in older trees, ``_sample_seeds``;
- ``fixed_c2_c3_s``: seconds for one ``minimize_proxy_fixed_c2_c3`` at n = 50
  and k = 50, on the moments of a Dirichlet(2) vector; older trees walk
  100 000 moves from that vector.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import numpy as np
from bench_simulate import main  # the labelled-tree runner both scripts share

# n: (c2, slice samples drawn)
CONFIGS = {50: (0.05, 50_000), 200: (0.02, 50_000), 1000: (0.005, 10_000)}
BUDGET = 100_000


def _seconds(call) -> float:
    times = []
    for _ in range(3):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _child(src: str) -> dict:
    sys.path.insert(0, src)
    from coalsim import variational

    exact = not hasattr(variational, "_descend")
    out: dict = {"fixed_c2_s": {}, "sampled_rows_per_s": {}}
    if exact:
        out["shapes_per_s"] = {}
        two_level = variational._two_level
        shapes = 0

        def counted(heavy, light, s, q):
            nonlocal shapes
            shapes += np.size(heavy) if isinstance(heavy, np.ndarray) else 0
            return two_level(heavy, light, s, q)

        variational._two_level = counted
        sample = variational.sampled_proxy_min
    else:
        sample = variational._sample_seeds
    sample(30, 0.1, 30.0, np.random.default_rng(0), 2000)  # warm-up

    for n, (c2, size) in CONFIGS.items():
        key, k = f"n{n}", float(n)
        if exact:
            shapes = 0
            secs = _seconds(lambda: variational.minimize_proxy_fixed_c2(n, c2, k))
            out["shapes_per_s"][key] = shapes / 3 / secs
        else:
            secs = _seconds(lambda: variational.minimize_proxy_fixed_c2(
                n, c2, k, BUDGET, np.random.default_rng(2)))
        out["fixed_c2_s"][key] = secs
        secs = _seconds(lambda: sample(n, c2, k, np.random.default_rng(1), size))
        out["sampled_rows_per_s"][key] = size / secs

    w = np.random.default_rng(13).dirichlet(np.full(50, 2.0))
    c2, c3 = float(w @ w), float((w**3).sum())
    if exact:
        call = lambda: variational.minimize_proxy_fixed_c2_c3(50, c2, c3, 50.0)  # noqa: E731
    else:
        call = lambda: variational.minimize_proxy_fixed_c2_c3(  # noqa: E731
            50, c2, c3, 50.0, BUDGET, np.random.default_rng(13), w)
    out["fixed_c2_c3_s"] = {"n50": _seconds(call)}
    return out


if __name__ == "__main__":
    main(_child, __doc__, __file__)
