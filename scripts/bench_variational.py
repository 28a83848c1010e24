"""Throughput of the fixed-c2 proxy search, as written to BENCH_variational.json.

Run from the repository root, naming each source tree to measure::

    python3 scripts/bench_variational.py --pairs 5 parent=/path/to/parent/src change=src

Each labelled tree is imported in its own child process.  The children run in
turn, label after label, ``--pairs`` times, so slow spells of a shared machine
hit every label alike; the JSON on standard output holds each label's median
over its runs, with the core count and the Python and numpy versions (the
runner is ``scripts/bench_simulate.py``'s ``main``).

The two phases of ``variational.minimize_proxy_fixed_c2`` are timed apart, at
n = 50, 200 and 1000 with k = n:

- ``samples_per_s``: slice samples drawn and scored per second by
  ``variational._sample_seeds``, which keeps the 8 with the smallest proxy;
- ``descent_proxy_evals_per_s``: proxy evaluations per second while those 8
  seeds are refined.  ``minimize_proxy_fixed_c2`` runs at budget 100 000 with
  its sampling replaced by the seeds drawn above, and every row scored by
  ``variational.proxy_rows`` counts as one evaluation.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np
from bench_simulate import main  # the labelled-tree runner both scripts share

# n: (c2, slice samples drawn)
CONFIGS = {50: (0.05, 50_000), 200: (0.02, 50_000), 1000: (0.005, 10_000)}
BUDGET = 100_000


def _child(src: str) -> dict:
    sys.path.insert(0, src)
    from coalsim import variational

    out: dict = {"samples_per_s": {}, "descent_proxy_evals_per_s": {}}
    variational._sample_seeds(30, 0.1, 30.0, np.random.default_rng(0), 2000)  # warm-up
    sample_seeds, proxy_rows = variational._sample_seeds, variational.proxy_rows
    for n, (c2, size) in CONFIGS.items():
        key, k = f"n{n}", float(n)
        t0 = perf_counter()
        seeds = sample_seeds(n, c2, k, np.random.default_rng(1), size)
        out["samples_per_s"][key] = size / (perf_counter() - t0)

        evals = 0

        def counted(weights, k):
            nonlocal evals
            evals += int(np.prod(np.shape(weights)[:-1]))
            return proxy_rows(weights, k)

        variational._sample_seeds = lambda *args: (seeds[0].copy(), seeds[1].copy())
        variational.proxy_rows = counted
        try:
            t0 = perf_counter()
            variational.minimize_proxy_fixed_c2(n, c2, k, BUDGET, np.random.default_rng(2))
            secs = perf_counter() - t0
        finally:
            variational._sample_seeds, variational.proxy_rows = sample_seeds, proxy_rows
        out["descent_proxy_evals_per_s"][key] = evals / secs
    return out


if __name__ == "__main__":
    main(_child, __doc__, __file__)
