"""Exact expected times and kernel output of ``coalsim.exact_chain``, as written
to BENCH_exact.json.

Run from the repository root, naming each source tree to measure::

    python3 scripts/bench_exact.py --pairs 3 parent=/path/to/parent/src change=src

Each labelled tree is imported in its own child process.  The children run in
turn, label after label, ``--pairs`` times, so slow spells of a shared machine
hit every label alike; the JSON on standard output holds each label's median
over its runs, with the core count and the Python and numpy versions (the
runner is ``scripts/bench_simulate.py``'s ``main``).

- ``expected_time_s``: one ``expected_coalescence_times`` of a vector, whose
  rows are streamed, for uniform and topheavy (c2 = 1/ln n) vectors at
  n = 1e3, 1e4, 3e4 and 1e5.  A size is "not run" when the quadratic
  extrapolation of the family's previous size, t * (n / n_prev)^2, exceeds
  the cap of ``CAP_S`` seconds; ``expected_time`` holds E[T] from n balls and
  ``dropped`` the mass the banded pass left out, where rows carry it.  The
  same three keys hold two-level vectors at c2 = 1/ln^3 n, with 390 heavy
  boxes at n = 1e4 and 16 at n = 1e5; a tree that raises on a vector records
  the error text in place of its time;
- ``kernel_csv_entries_per_s``: ``write_kernel_csv`` of a built kernel,
  n (n + 1) / 2 entries, best of 5: uniform and topheavy at n = 200, uniform
  at n = 1000, where most entries lie outside their row's band, and a
  Dirichlet(1) vector at n = 200, whose box-pass rows are whole, so no entry
  is an out-of-band zero;
- ``row_pass_s``: all rows of a new ``TriangularKernel`` for the grouped
  vectors of perfbench's ``exact`` workload (uniform n = 200, topheavy n = 160
  at c2 = 0.05, three-level n = 120 with three heavy boxes), best of 20, and
  for a Dirichlet(1) vector at n = 200, whose all-distinct weights take the
  box pass, best of 5.  A kernel that builds its rows when it is made is
  timed by its construction: the same one pass over all rows as a kernel
  that builds them on request, so entries on both sides compare;
- ``kernel_expected_s``: ``expected_coalescence_times(TriangularKernel(p))``
  of uniform vectors at n = 1e3 and 1e4, kernel construction included, best
  of 3; ``kernel_peak_mb`` is the ``tracemalloc`` peak of one such call in
  MiB, which counts numpy's buffers, so it shows what a kernel holds;
- ``jump_rows_s``: ``transition_row(p, 63)`` of a Dirichlet(1) vector at
  n = 2000 and 1e4, which builds rows 1..63 by the box pass: the rows the
  Monte Carlo jump chain reads.  Best of 5;
- ``route_s``: two vectors of 2^20 joint occupancy states whose arrays pass
  the occupancy route's cell cap, once each: all rows of ``TriangularKernel``
  for five groups of 15 equal boxes plus 949 zero boxes, and
  ``transition_row(p, 63)`` for twenty boxes of distinct weights plus 1004
  zero boxes.  A run still going after ``CAP_S`` seconds is stopped and
  records "over 30 s" in place of its time.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import tempfile
import tracemalloc
from time import perf_counter

import numpy as np
from bench_simulate import main  # the labelled-tree runner the bench scripts share

SIZES = (1000, 10_000, 30_000, 100_000)
CAP_S = 30.0
TWO_LEVEL = ((10_000, 390), (100_000, 16))  # (n, heavy boxes)
# key -> (sizes of the equal-weight groups, zero boxes, rows: None for all n)
ROUTE = {
    "five_groups_of_15_all_rows": ([15] * 5, 949, None),
    "twenty_single_boxes_rows_63": ([1] * 20, 1004, 63),
}


def _vectors(cs, n: int) -> dict:
    return {"uniform": cs.uniform(n), "topheavy": cs.topheavy(n, 1.0 / math.log(n))}


def _two_level(cs, n: int, heavy: int):
    top, bottom = cs.distributions._two_level(heavy, n - heavy, 1.0, 1.0 / math.log(n) ** 3)
    return cs.ProbabilityVector([top] * heavy + [bottom] * (n - heavy), normalize=True)


def _expected_time(cs, out: dict, key: str, p) -> float | None:
    """Time one expected_coalescence_times of p into out, with E[T] and the
    dropped mass; the seconds, or None when the tree raises on p."""
    t0 = perf_counter()
    try:
        e = cs.expected_coalescence_times(p)
    except ValueError as exc:
        out["expected_time_s"][key] = f"error: {exc}"
        return None
    secs = perf_counter() - t0
    out["expected_time_s"][key] = secs
    out["expected_time"][key] = float(e[p.n])
    if hasattr(cs.TransitionRow, "dropped"):  # rows that carry their dropped mass
        out["dropped"][key] = cs.transition_row(p, p.n).dropped
    return secs


def _grouped(cs, sizes: list, zeros: int):
    weights = np.repeat(np.arange(1.0, len(sizes) + 1), sizes)
    return cs.ProbabilityVector(np.concatenate((weights, np.zeros(zeros))), normalize=True)


def _capped(fn) -> float | str:
    """The seconds one fn() takes, or "over CAP_S s" when it is stopped there."""

    def stop(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    t0 = perf_counter()
    try:
        fn()
        return perf_counter() - t0
    except TimeoutError:
        return f"over {CAP_S:g} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _dirichlet(cs, n: int):
    return cs.ProbabilityVector(np.random.default_rng(n).dirichlet(np.ones(n)))


def _best(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _child(src: str) -> dict:
    sys.path.insert(0, src)
    import coalsim as cs
    from coalsim import exact_chain

    out: dict = {"expected_time_s": {}, "expected_time": {}, "dropped": {},
                 "kernel_csv_entries_per_s": {}, "row_pass_s": {}, "jump_rows_s": {},
                 "kernel_expected_s": {}, "kernel_peak_mb": {}, "route_s": {}}
    cs.expected_coalescence_times(cs.uniform(50))  # warm-up
    last: dict = {}
    for n in SIZES:
        for family, p in _vectors(cs, n).items():
            key = f"{family}_n{n}"
            prev = last.get(family)
            if prev is not None and prev[1] * (n / prev[0]) ** 2 > CAP_S:
                out["expected_time_s"][key] = f"not run: over the {CAP_S:g} s cap"
                continue
            secs = _expected_time(cs, out, key, p)
            if secs is not None:
                last[family] = (n, secs)
    for n, heavy in TWO_LEVEL:
        _expected_time(cs, out, f"two_level_h{heavy}_n{n}", _two_level(cs, n, heavy))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kernel.csv")
        dumps = {f"{family}_n200": p for family, p in _vectors(cs, 200).items()}
        dumps.update(uniform_n1000=cs.uniform(1000), dirichlet_n200=_dirichlet(cs, 200))
        for key, p in dumps.items():
            kernel = cs.TriangularKernel(p)
            kernel.row(p.n)
            secs = _best(lambda: exact_chain.write_kernel_csv(kernel, path), 5)
            out["kernel_csv_entries_per_s"][key] = p.n * (p.n + 1) / 2 / secs
    heavy = [0.08 / 3] * 3 + [0.02]
    jobs = {
        "uniform_n200": cs.uniform(200),
        "topheavy_n160": cs.topheavy(160, 0.05),
        "three_level_n120": cs.ProbabilityVector(heavy + [(1.0 - sum(heavy)) / 116] * 116),
    }
    for key, p in jobs.items():
        out["row_pass_s"][key] = _best(lambda: cs.TriangularKernel(p).row(p.n), 20)
    p = _dirichlet(cs, 200)
    out["row_pass_s"]["dirichlet_n200"] = _best(lambda: cs.TriangularKernel(p).row(p.n), 5)
    for n in (2000, 10_000):
        p = _dirichlet(cs, n)
        out["jump_rows_s"][f"dirichlet_n{n}"] = _best(lambda: cs.transition_row(p, 63), 5)
    for key, (sizes, zeros, rows) in ROUTE.items():
        p = _grouped(cs, sizes, zeros)
        if rows is None:
            out["route_s"][key] = _capped(lambda: cs.TriangularKernel(p))
        else:
            out["route_s"][key] = _capped(lambda: cs.transition_row(p, rows))
    for n in (1000, 10_000):
        p = cs.uniform(n)
        kernel_times = lambda: cs.expected_coalescence_times(cs.TriangularKernel(p))
        out["kernel_expected_s"][f"uniform_n{n}"] = _best(kernel_times, 3)
        out["kernel_peak_mb"][f"uniform_n{n}"] = _peak_mb(kernel_times)
    return out


if __name__ == "__main__":
    main(_child, __doc__, __file__)
