"""Span tracing of the ``coalsim`` layers from outside the package.

``Tracer.installed()`` replaces every public function of each library module
with a wrapper that records a span, in every package module that holds a
reference to it (so ``asymptotics.run`` or the dynamics functions imported by
``cli`` are traced too), plus ``TriangularKernel.row`` and
``AliasTable.__init__``.  Leaving the block restores the originals.  Spans
stay in memory; ``write`` dumps them as JSON lines when the run ends.

A layer is a package module.  Each span has a parent: the innermost open span
of its thread, or the running job's span for a thread that has none open (the
CLI's worker threads).  All spans of one job carry that job's span id.  A
span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import coalsim

LIBRARY_LAYERS = (
    "distributions",
    "dynamics",
    "exact_chain",
    "simulate",
    "asymptotics",
    "tail_bounds",
    "variational",
)
_MODULES = {name: importlib.import_module(f"coalsim.{name}") for name in LIBRARY_LAYERS}
_HOLDERS = (coalsim, importlib.import_module("coalsim.cli"), *_MODULES.values())
_METHODS = (
    ("exact_chain", "TriangularKernel", "row"),
    ("simulate", "AliasTable", "__init__"),
)


def _row_defect(args, row) -> float:
    return abs(float(row.probs.sum()) - 1.0)


def _run_rounds(args, result) -> int:
    return result.T


def _proxy_rows(args, out) -> int:
    return int(np.prod(np.shape(args[0])[:-1], dtype=np.int64))


# what a span keeps of its call, per (layer, function)
_OBSERVERS = {
    ("exact_chain", "transition_row"): _row_defect,
    ("simulate", "run"): _run_rounds,
    ("variational", "proxy_rows"): _proxy_rows,
}


@dataclass(slots=True)
class Span:
    sid: int
    parent: int
    job: int
    layer: str
    name: str
    t0: float
    t1: float
    info: Any = None  # observer value, or {"error": type name} when it raised

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job_names: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job = 0  # span id of the running job

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        observe = _OBSERVERS.get((layer, name))
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            job = self._job
            parent = stack[-1] if stack else job
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                t1 = perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, job, layer, name, t0, t1,
                                  {"error": type(exc).__name__}))
                raise
            t1 = perf_counter()
            stack.pop()
            spans.append(Span(sid, parent, job, layer, name, t0, t1,
                              observe(args, out) if observe else None))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Trace every library layer inside the block."""
        wrappers = {}
        for layer, module in _MODULES.items():
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, layer, name)
        patches = []
        for holder in _HOLDERS:
            for name, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((holder, name, obj))
                    setattr(holder, name, wrappers[obj])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(_MODULES[layer], cls_name)
            fn = vars(cls)[meth]
            patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, layer, f"{cls_name}.{meth}"))
        try:
            yield self
        finally:
            for holder, name, obj in reversed(patches):
                setattr(holder, name, obj)

    @contextmanager
    def job(self, name: str, command: str):
        """Span of one CLI job; library spans inside it share its id."""
        sid = next(self._ids)
        self.job_names[sid] = name
        self._job = sid
        stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self._job = 0
            self.spans.append(Span(sid, 0, sid, "cli", command, t0, t1))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "job": s.job,
                    "job_name": self.job_names.get(s.job), "layer": s.layer,
                    "name": s.name, "t0": s.t0, "t1": s.t1, "info": s.info,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    return {s.sid: s.seconds - _covered(children[s.sid], s.t0, s.t1) for s in spans}


def _pct_ms(spans: list[Span], q: float) -> float:
    if not spans:
        return 0.0
    return float(np.percentile([s.seconds * 1e3 for s in spans], q))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts and times are per pass; percentiles pool every span; ratios with
    an empty base read 0.
    """
    own = self_times(spans)
    by_layer = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)
        by_name[(s.layer, s.name)].append(s)

    def named(layer, *names):
        return [s for n in names for s in by_name[(layer, n)]]

    def secs(group):
        return sum(s.seconds for s in group)

    def self_s(group):
        return sum(own[s.sid] for s in group)

    rows = named("exact_chain", "transition_row")
    requests = named("exact_chain", "TriangularKernel.row")
    runs = named("simulate", "run")
    rounds = sum(s.info for s in runs if isinstance(s.info, int))
    sim_jobs = {s.sid for s in named("cli", "simulate")}
    solves = named("tail_bounds", "solve_tilt")
    failed_solves = [s for s in solves if isinstance(s.info, dict)]
    proxy = named("variational", "proxy_rows")
    proxy_count = sum(s.info for s in proxy if isinstance(s.info, int))
    m = {
        "exact_chain.rows_built": len(rows),
        "exact_chain.row_requests": len(requests),
        "exact_chain.row_s": secs(rows),
        "exact_chain.backsub_s": self_s(
            named("exact_chain", "expected_coalescence_times", "phase_decomposition")
        ),
        "exact_chain.csv_s": self_s(named("exact_chain", "write_kernel_csv")),
        "simulate.replicates": len(runs),
        "simulate.rounds": rounds,
        "simulate.run_s": secs(runs),
        "simulate.alias_build_s": secs(named("simulate", "AliasTable.__init__")),
        "asymptotics.experiments": len(named(
            "asymptotics", "limit_law_experiment", "threshold_experiment",
            "early_phase_experiment",
        )),
        "asymptotics.self_s": self_s(by_layer["asymptotics"]),
        "tail_bounds.solves": len(solves),
        "tail_bounds.solve_failed": len(failed_solves),
        "tail_bounds.self_s": self_s(by_layer["tail_bounds"]),
        "variational.proxy_rows": proxy_count,
        "variational.search_s": secs(
            named("variational", "minimize_proxy_fixed_c2", "minimize_proxy_fixed_c2_c3")
        ),
        "variational.sample_s": secs(named("distributions", "sample_fixed_c2_batch")),
        "dynamics.calls": len(by_layer["dynamics"]),
        "dynamics.self_s": self_s(by_layer["dynamics"]),
        "distributions.vectors": len(named("distributions", "from_descriptor")),
        "distributions.self_s": self_s(by_layer["distributions"]),
        "cli.jobs": len(by_layer["cli"]),
        "cli.self_s": self_s(by_layer["cli"]),
    }
    m = {name: value / passes for name, value in m.items()}
    m.update({
        "exact_chain.row_cache_hit_ratio": _ratio(len(requests) - len(rows), len(requests)),
        "exact_chain.row_ms_p50": _pct_ms(rows, 50),
        "exact_chain.row_ms_p99": _pct_ms(rows, 99),
        "exact_chain.row_mass_defect_max": max((s.info for s in rows), default=0.0),
        "simulate.rounds_per_s": _ratio(rounds, secs(runs)),
        "simulate.run_ms_p50": _pct_ms(runs, 50),
        "simulate.run_ms_p99": _pct_ms(runs, 99),
        "simulate.concurrency": _ratio(
            secs(s for s in runs if s.job in sim_jobs), secs(named("cli", "simulate"))
        ),
        "tail_bounds.solve_ok_ratio": _ratio(len(solves) - len(failed_solves), len(solves)),
        "tail_bounds.solve_ms_p50": _pct_ms(solves, 50),
        "variational.proxy_rows_per_s": _ratio(proxy_count, secs(proxy)),
    })
    return m
