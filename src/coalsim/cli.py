"""Command-line front door: JSON experiment configs in, CSV/JSON out."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, exact_chain, simulate, tail_bounds, variational
from ._tables import write_csv
from .distributions import (
    DistributionError,
    SolverError,
    _finite,
    _finite_numbers,
    _whole,
    from_descriptor,
    topheavy,
)
from .dynamics import (
    early_threshold,
    empty_boxes_proxy,
    envelope_margin,
    late_threshold,
    occupancy_proxy,
    one_step_envelope,
)
from .tail_bounds import TiltSolveError

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes ours, not argparse's
        raise ValueError(message)


def _write(path: Path, content) -> None:
    """Write one output file: a JSON payload (dict), a CSV (header, 2-D float64
    table) or a TriangularKernel, whose rows go to write_kernel_csv."""
    if isinstance(content, exact_chain.TriangularKernel):
        exact_chain.write_kernel_csv(content, path)
    elif isinstance(content, dict):
        with open(path, "w") as fh:
            json.dump(content, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        header, table = content
        write_csv(path, header, [table])


def _table(cls, rows) -> tuple[list[str], np.ndarray]:
    """The CSV of dataclass rows: the class's field names, then each row's values."""
    header = [f.name for f in dataclasses.fields(cls)]
    return header, np.array([dataclasses.astuple(r) for r in rows], float).reshape(-1, len(header))


def _at_least(least: int, unit: str = ""):
    def parse(value, key: str) -> int:
        whole = _whole(value, key)
        if whole < least:
            raise ValueError(f"{key!r}={whole} must be at least {least}{unit}")
        return whole

    return parse


def _sizes(value, key: str) -> list[int]:
    """The n list of limit and threshold: whole numbers, each at least 2."""
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list of whole numbers, got {value!r}")
    ns = [_whole(v, key) for v in value]
    if not ns or min(ns) < 2:
        raise ValueError(f"{key!r}={value!r}: give 'n_values' or 'n'; each n must be at least 2")
    return ns


def _lambda_rule(value, key: str) -> str | float:
    """A rule name of LAMBDA_RULES, or a fixed collision rate c2: lambda(n) = c2 ln^2 n."""
    if isinstance(value, str) and value not in asymptotics.LAMBDA_RULES:
        rules = ", ".join(asymptotics.LAMBDA_RULES)
        raise ValueError(f"unknown {key!r} rule {value!r}; choose from {rules}")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"{key!r} must be a rule name or a collision rate, got {value!r}")
    return value if isinstance(value, str) else float(value)


_DISTRIBUTION = {"distribution": (lambda value, key: from_descriptor(value), ...)}
_N_LIST = {"n_values": (_sizes, ...), "n": (_whole, ...)}  # a lone n < 2 fails before it runs
# Each subcommand's config keys: key -> (parser, default).  A default of ...
# marks a required key; a key whose default is None reads null as absent.
_KEYS = {
    "moments": _DISTRIBUTION,
    "exact": {**_DISTRIBUTION, "eps": (_finite, None)},
    "simulate": {
        **_DISTRIBUTION,
        "replicates": (_whole, 1000),
        "thresholds": (_finite_numbers, ()),
        "b0": (_whole, None),
    },
    "dynamics": {
        **_DISTRIBUTION,
        "k_values": (_finite_numbers, None),
        "k_max": (_at_least(0), None),  # None: the distribution's n
    },
    "variational": {
        "n": (_whole, ...),
        "c2": (_finite, ...),
        "k": (_finite, ...),
        "budget": (_at_least(1), 100_000),
    },
    "bounds": {
        **_DISTRIBUTION,
        "k": (_whole, ...),
        "b_values": (_finite_numbers, None),
        "b_offsets": (_finite_numbers, (-2.0, -1.0, 0.0, 1.0, 2.0)),
    },
    "limit": {
        **_N_LIST,
        # the KS distance of fewer than 100 draws says nothing of the limit law
        "replicates": (_at_least(100, " replicates"), 1000),
        "K": (_at_least(2), 1000),
    },
    "threshold": {
        **_N_LIST,
        "replicates": (_whole, 1000),
        "lambda": (_lambda_rule, "ln"),
        "c2": (_lambda_rule, "ln"),
    },
}
# Either/or keys: a config gives at most one of a pair, and the other reads None.
_PAIRS = (("n_values", "n"), ("lambda", "c2"), ("k_values", "k_max"), ("b_values", "b_offsets"))
_PARTNER = {a: b for pair in _PAIRS for a, b in (pair, pair[::-1])}


def _load_config(args) -> dict:
    """The parsed config of args.command: each key of its table parsed, or
    its default when absent, and --replicates in place of the config's count."""
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config {args.config}: {exc}")
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object: {args.config}")
    table = _KEYS[args.command]
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; expected among {sorted(table)}")
    config = {k: v for k, v in config.items() if v is not None or table[k][1] is not None}
    parsed = {}
    for key, (parse, default) in table.items():
        partner = _PARTNER.get(key)
        if key in config and partner in config:
            raise ValueError(f"config gives both {key!r} and {partner!r}; give one")
        if key in config:
            parsed[key] = parse(config[key], key)
        elif partner in config:
            parsed[key] = None
        elif default is ...:
            need = " or ".join(repr(k) for k in (key, partner) if k in table)
            need = f"a {need} descriptor" if key == "distribution" else need
            raise ValueError(f"{args.command} config needs {need}")
        else:
            parsed[key] = default
    if getattr(args, "replicates", None) is not None:  # the flag, parsed like the key
        parsed["replicates"] = table["replicates"][0](args.replicates, "replicates")
    return parsed


def _outputs(args, *exts: str) -> list[Path]:
    """The paths <base><ext> a subcommand writes, checked against its config."""
    config = Path(args.config)
    # the default base never collides with the config file itself
    base = Path(args.out) if args.out else Path(str(config.with_suffix("")) + ".out")
    # plain concatenation: suffix-replacing semantics would eat dotted bases
    paths = [base.parent / (base.name + ext) for ext in exts]
    if config.resolve() in [p.resolve() for p in paths]:
        raise ValueError(f"--out {args.out} would overwrite the config {args.config}")
    return paths


def _cmd_moments(args, cfg: dict) -> tuple[str, list]:
    p = cfg["distribution"]
    m = p.moments()
    payload = {"n": p.n, "c2": m.c2, "c3": m.c3}
    return f"moments: n={p.n} c2={m.c2:.12g} c3={m.c3:.12g}", [payload]


def _cmd_exact(args, cfg: dict) -> tuple[str, list]:
    p, eps = cfg["distribution"], cfg["eps"]
    kernel = exact_chain.TriangularKernel(p)
    c2 = p.moments().c2
    payload = {"n": p.n, "c2": c2, "pair_bound_2n_minus_2": 2 * p.n - 2}
    if eps is None:
        et = exact_chain.expected_coalescence_times(kernel)
    else:
        k_star = min(max(early_threshold(c2, p.n, eps), 1.0), float(p.n))
        k_1 = min(max(late_threshold(c2, p.n, eps), 1.0), k_star)
        et, phases = exact_chain._times_and_phases(kernel, k_star, k_1)
        payload["phases"] = {"k_star": k_star, "k_1": k_1, **vars(phases)}
    payload["expected_T_from_n"] = et[p.n]
    expected = (["m", "expected_T"], np.column_stack((np.arange(1.0, p.n + 1), et[1:])))
    return f"exact: n={p.n} expected_T={et[p.n]:.12g}", [kernel, expected, payload]


def _cmd_simulate(args, cfg: dict) -> tuple[str, list]:
    replicates, thresholds = cfg["replicates"], tuple(cfg["thresholds"])
    sim = simulate.SimConfig(  # checks the counts against n
        p=cfg["distribution"],
        replicates=replicates,
        master_seed=args.seed,
        b0=cfg["b0"],
        passage_thresholds=thresholds,
    )
    results = simulate.runs(sim)
    summary = simulate.BatchSummary.from_runs(results, thresholds)
    header = ["replicate", "T"] + ["tau_at_%.17g" % t for t in thresholds]
    rows = np.column_stack((  # by column: a list of lists converts about 10x slower
        np.arange(len(results), dtype=float),
        [r.T for r in results],
        *([r.passages[t] for r in results] for t in thresholds),
    ))
    stats = summary.t
    payload = {
        "replicates": replicates,
        "seed": args.seed,
        "mean_T": stats.mean,
        "stderr_T": stats.stderr,
        "variance_T": stats.variance,
        "passages": {"%.17g" % t: s.mean for t, s in summary.passages.items()},
    }
    se = stats.stderr
    return (
        f"simulate: mean T={stats.mean:.12g}"
        + (f" stderr={se:.4g}" if se is not None else "")
    ), [(header, rows), payload]


def _cmd_dynamics(args, cfg: dict) -> tuple[str, list]:
    p, ks = cfg["distribution"], cfg["k_values"]
    if ks is None:
        ks = range((p.n if cfg["k_max"] is None else cfg["k_max"]) + 1)
    ks = np.array(ks, dtype=float)
    margin = np.zeros_like(ks)  # the margin's limit at k = 0
    margin[ks > 0] = envelope_margin(p, ks[ks > 0])
    columns = (empty_boxes_proxy(p, ks), occupancy_proxy(p, ks), one_step_envelope(p, ks))
    rows = np.column_stack((ks, *columns, margin))
    header = ["k", "empty_proxy", "occupancy_proxy", "envelope", "margin"]
    return f"dynamics: wrote {len(rows)} rows", [(header, rows)]


def _cmd_variational(args, cfg: dict) -> tuple[str, list]:
    n, c2, k, budget = cfg["n"], cfg["c2"], cfg["k"], cfg["budget"]
    q_best, f_best = variational.minimize_proxy_fixed_c2(n, c2, k)
    # the independent check: the lowest proxy of budget // 2 random slice samples
    rng = np.random.default_rng(args.seed)
    f_sampled = variational.sampled_proxy_min(n, c2, k, rng, max(budget // 2, 1))
    f_top = empty_boxes_proxy(topheavy(n, c2), k)
    payload = {
        "n": n,
        "c2": c2,
        "k": k,
        "budget": budget,
        "best_weights": [float(v) for v in q_best.sorted_desc()],
        "f_best": f_best,
        "f_sampled": f_sampled,
        "shapes": n * (n - 1) // 2,  # the (zeros, heavy count) pairs the scan covers
        "f_topheavy": f_top,
        "gap": f_best - f_top,
        "distinct_levels_at_1e-6": variational.level_count(q_best),
    }
    return f"variational: f_best={f_best:.12g} gap={f_best - f_top:.3e}", [payload]


def _cmd_bounds(args, cfg: dict) -> tuple[str, list]:
    p, k, b_values = cfg["distribution"], cfg["k"], cfg["b_values"]
    if not 1 <= k <= p.n:
        raise ValueError(f"'k'={k} outside [1, n={p.n}]")
    center = tail_bounds.tilt_center(p, k)
    if b_values is None:
        b_values = [center + o for o in cfg["b_offsets"]]
    report = tail_bounds.curvature_report(p, k, b_values)
    rows = np.array(
        [(pt.b, pt.z, pt.r, pt.h, pt.curvature_fd, pt.hessian_det) for pt in report.points],
        float,
    ).reshape(-1, 6)
    header = ["b", "z", "r", "h", "h_second_fd", "hessian_det"]
    payload = {
        "k": k,
        "center": center,
        "all_ok": report.all_ok,
        "solved_points": len(report.points),
        "skipped": [{"b": b, "reason": reason} for b, reason in report.skipped],
    }
    summary = f"bounds: solved {len(report.points)} points, all_ok={report.all_ok}"
    return summary, [(header, rows), payload]


def _cmd_limit(args, cfg: dict) -> tuple[str, list]:
    rows = [
        asymptotics.limit_law_experiment(n, cfg["replicates"], args.seed, cfg["K"])
        for n in cfg["n_values"] or [cfg["n"]]
    ]
    ks = [r.ks_distance for r in rows]
    payload = {
        "rows": [vars(r) for r in rows],
        "ks_nonincreasing_in_n": all(a >= b for a, b in zip(ks, ks[1:])),
        "note": "finite-n proxy bands; the underlying statements are limits",
    }
    summary = "limit: " + " ".join(f"n={r.n} ks={r.ks_distance:.4f}" for r in rows)
    return summary, [_table(asymptotics.LimitLawResult, rows), payload]


def _cmd_threshold(args, cfg: dict) -> tuple[str, list]:
    c2 = cfg["c2"] if cfg["lambda"] is None else cfg["lambda"]
    rule = c2 if isinstance(c2, str) else lambda n: c2 * math.log(n) ** 2
    ns = cfg["n_values"] or [cfg["n"]]
    rows = asymptotics.threshold_experiment(ns, rule, cfg["replicates"], args.seed)
    tops = [r.scaled_mean_top for r in rows]
    payload = {
        "rows": [vars(r) for r in rows],
        "scaled_mean_top_strictly_increasing": all(
            a < b for a, b in zip(tops, tops[1:])
        ),
        "note": "finite-n proxy bands; the underlying statements are limits",
    }
    summary = "threshold: " + " ".join(f"n={r.n} scaled={r.scaled_mean_top:.3f}" for r in rows)
    return summary, [_table(asymptotics.ThresholdRow, rows), payload]


# Each subcommand's handler, then its output extensions in the order of its contents.
_HANDLERS = {
    "moments": (_cmd_moments, ".json"),
    "exact": (_cmd_exact, ".kernel.csv", ".expected.csv", ".json"),
    "simulate": (_cmd_simulate, ".replicates.csv", ".json"),
    "dynamics": (_cmd_dynamics, ".csv"),
    "variational": (_cmd_variational, ".json"),
    "bounds": (_cmd_bounds, ".csv", ".json"),
    "limit": (_cmd_limit, ".csv", ".json"),
    "threshold": (_cmd_threshold, ".csv", ".json"),
}


@functools.cache  # one parser per process: parse_args does not change it
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="coalsim",
        description="Coalescing balls-into-boxes: exact kernels, simulation, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--seed", type=int, default=0, help="master seed, any integer >= 0")
        cmd.add_argument("--out", default=None, help="output base path")
        if "replicates" in _KEYS[name]:
            cmd.add_argument("--replicates", type=int, default=None)
        cmd.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.seed < 0:  # numpy's SeedSequence takes any non-negative integer
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        handler, *exts = _HANDLERS[args.command]
        cfg = _load_config(args)
        paths = _outputs(args, *exts)  # a colliding --out fails before any work
        summary, contents = handler(args, cfg)
        for path, content in zip(paths, contents, strict=True):
            _write(path, content)
    except (SolverError, TiltSolveError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DistributionError, ValueError, KeyError, TypeError, OSError, MemoryError) as exc:
        # numpy raises some MemoryErrors with no message: name the error then
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
