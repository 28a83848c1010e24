"""Command-line front door: JSON experiment configs in, CSV/JSON out."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import asymptotics, exact_chain, simulate, tail_bounds, variational
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


class _CliError(Exception):
    """Validation problem: bad flags, config, or distribution parameters."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes ours, not argparse's
        raise _CliError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write each row as one %-format, whose fields follow _fmt: %.17g for a
    float and %s for everything else.  The format is built again only when a
    row's types differ from the row before it."""
    kinds = None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            types = list(map(type, row))
            if types != kinds:
                kinds = types
                fields = ("%.17g" if issubclass(t, float) else "%s" for t in kinds)
                line = ",".join(fields) + "\n"
            fh.write(line % row)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str | None, keys) -> dict:
    """The config at path, which may hold only the keys its subcommand reads."""
    if path is None:
        raise _CliError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise _CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed config {path}: {exc}")
    if not isinstance(config, dict):
        raise _CliError(f"config must be a JSON object: {path}")
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise _CliError(f"unknown config key {unknown[0]!r}; expected among {sorted(keys)}")
    return config


def _field(config: dict, key: str, command: str):
    try:
        return config[key]
    except KeyError:
        raise _CliError(f"{command} config needs {key!r}")


def _distribution(config: dict):
    if "distribution" not in config:
        raise _CliError("config needs a 'distribution' descriptor")
    try:
        return from_descriptor(config["distribution"])
    except KeyError as exc:  # a field the descriptor's family requires
        raise _CliError(f"distribution descriptor needs {exc.args[0]!r}")


def _outputs(args, *exts: str) -> list[Path]:
    """The paths <base><ext> a subcommand writes, checked against its config."""
    config = Path(args.config)
    # the default base never collides with the config file itself
    base = Path(args.out) if args.out else Path(str(config.with_suffix("")) + ".out")
    # plain concatenation: suffix-replacing semantics would eat dotted bases
    paths = [base.parent / (base.name + ext) for ext in exts]
    if config.resolve() in [p.resolve() for p in paths]:
        raise _CliError(f"--out {args.out} would overwrite the config {args.config}")
    return paths


def _cmd_moments(args) -> str:
    config = _load_config(args.config, {"distribution"})
    p = _distribution(config)
    m = p.moments()
    payload = {"n": p.n, "c2": m.c2, "c3": m.c3}
    _write_json(_outputs(args, ".json")[0], payload)
    return f"moments: n={p.n} c2={m.c2:.12g} c3={m.c3:.12g}"


def _cmd_exact(args) -> str:
    config = _load_config(args.config, {"distribution", "eps"})
    p = _distribution(config)
    eps = config.get("eps")
    eps = None if eps is None else _finite(eps, "eps")
    kernel = exact_chain.TriangularKernel(p)
    out_kernel, out_csv, out_json = _outputs(args, ".kernel.csv", ".expected.csv", ".json")
    exact_chain.write_kernel_csv(kernel, out_kernel)
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
    _write_csv(out_csv, ["m", "expected_T"], enumerate(et[1:], start=1))
    _write_json(out_json, payload)
    return f"exact: n={p.n} expected_T={et[p.n]:.12g}"


def _cmd_simulate(args) -> str:
    keys = {"distribution", "replicates", "thresholds", "b0", "record"}
    config = _load_config(args.config, keys)
    p = _distribution(config)
    replicates = _whole(config.get("replicates", 1000), "replicates")
    if args.replicates is not None:  # validated by SimConfig
        replicates = args.replicates
    thresholds = tuple(_finite_numbers(config.get("thresholds", []), "thresholds"))
    b0, record = config.get("b0"), config.get("record", False)
    if not isinstance(record, bool):
        raise _CliError(f"'record' must be true or false, got {record!r}")
    sim = simulate.SimConfig(
        p=p,
        replicates=replicates,
        master_seed=args.seed,
        b0=None if b0 is None else _whole(b0, "b0"),
        record_trajectory=record,
        passage_thresholds=thresholds,
    )
    results = simulate.runs(sim)
    summary = simulate.BatchSummary.from_runs(results, thresholds)
    out_csv, out_json = _outputs(args, ".replicates.csv", ".json")
    header = ["replicate", "T"] + [f"tau_at_{_fmt(t)}" for t in thresholds]
    _write_csv(
        out_csv,
        header,
        (
            [i, r.T] + [r.passages[t] for t in thresholds]
            for i, r in enumerate(results)
        ),
    )
    stats = summary.t
    payload = {
        "replicates": replicates,
        "seed": args.seed,
        "mean_T": stats.mean,
        "stderr_T": stats.stderr,
        "variance_T": stats.variance,
        "passages": {_fmt(t): s.mean for t, s in summary.passages.items()},
    }
    _write_json(out_json, payload)
    se = stats.stderr
    return (
        f"simulate: mean T={stats.mean:.12g}"
        + (f" stderr={se:.4g}" if se is not None else "")
    )


def _cmd_dynamics(args) -> str:
    config = _load_config(args.config, {"distribution", "k_values", "k_max"})
    p = _distribution(config)
    ks = config.get("k_values")
    if ks is None:
        k_max = _whole(config.get("k_max", p.n), "k_max")
        if k_max < 0:
            raise _CliError(f"'k_max'={k_max} must be at least 0")
        ks = range(k_max + 1)
    else:
        ks = _finite_numbers(ks, "k_values")
    ks = np.array(ks, dtype=float)
    margin = np.zeros_like(ks)  # the margin's limit at k = 0
    margin[ks > 0] = envelope_margin(p, ks[ks > 0])
    columns = (empty_boxes_proxy(p, ks), occupancy_proxy(p, ks), one_step_envelope(p, ks))
    rows = np.column_stack((ks, *columns, margin)).tolist()
    _write_csv(
        _outputs(args, ".csv")[0],
        ["k", "empty_proxy", "occupancy_proxy", "envelope", "margin"],
        rows,
    )
    return f"dynamics: wrote {len(rows)} rows"


def _cmd_variational(args) -> str:
    config = _load_config(args.config, {"n", "c2", "k", "budget"})
    n = _whole(_field(config, "n", "variational"), "n")
    c2 = _finite(_field(config, "c2", "variational"), "c2")
    k = _finite(_field(config, "k", "variational"), "k")
    budget = _whole(config.get("budget", 100_000), "budget")
    if budget < 1:
        raise _CliError(f"'budget'={budget} must be at least 1")
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
        "distinct_levels_at_1e-6": variational.level_count(q_best.weights),
    }
    _write_json(_outputs(args, ".json")[0], payload)
    return f"variational: f_best={f_best:.12g} gap={f_best - f_top:.3e}"


def _cmd_bounds(args) -> str:
    config = _load_config(args.config, {"distribution", "k", "b_values", "b_offsets"})
    p = _distribution(config)
    k = _whole(_field(config, "k", "bounds"), "k")
    if not 1 <= k <= p.n:
        raise _CliError(f"'k'={k} outside [1, n={p.n}]")
    center = tail_bounds.tilt_center(p, k)
    b_values = config.get("b_values")
    if b_values is None:
        offsets = _finite_numbers(config.get("b_offsets", [-2, -1, 0, 1, 2]), "b_offsets")
        b_values = [center + o for o in offsets]
    else:
        b_values = _finite_numbers(b_values, "b_values")
    b_values = [b for b in b_values if 0.0 < b <= k]
    report = tail_bounds.curvature_report(p, k, b_values)
    rows = [
        (pt.b, pt.z, pt.r, pt.h, pt.curvature_fd, pt.hessian_det)
        for pt in report.points
    ]
    out_csv, out_json = _outputs(args, ".csv", ".json")
    _write_csv(
        out_csv,
        ["b", "z", "r", "h", "h_second_fd", "hessian_det"],
        rows,
    )
    payload = {
        "k": k,
        "center": center,
        "all_ok": report.all_ok,
        "solved_points": len(report.points),
        "skipped": [{"b": b, "reason": reason} for b, reason in report.skipped],
    }
    _write_json(out_json, payload)
    return f"bounds: solved {len(report.points)} points, all_ok={report.all_ok}"


def _cmd_limit(args) -> str:
    config = _load_config(args.config, asymptotics.ExperimentConfig.KEYS)
    cfg = asymptotics.ExperimentConfig.from_dict("limit", config, args.seed)
    if args.replicates is not None:  # validated like the config's count
        cfg = replace(cfg, replicates=args.replicates)
    rows = [
        asymptotics.limit_law_experiment(n, cfg.replicates, cfg.seed, cfg.truncation)
        for n in cfg.n_values
    ]
    out_csv, out_json = _outputs(args, ".csv", ".json")
    _write_csv(
        out_csv,
        ["n", "replicates", "mean_T", "mean_ratio", "ks_distance"],
        ((r.n, r.replicates, r.mean_T, r.mean_ratio, r.ks_distance) for r in rows),
    )
    ks = [r.ks_distance for r in rows]
    payload = {
        "rows": [vars(r) for r in rows],
        "ks_nonincreasing_in_n": all(a >= b for a, b in zip(ks, ks[1:])),
        "note": "finite-n proxy bands; the underlying statements are limits",
    }
    _write_json(out_json, payload)
    return "limit: " + " ".join(f"n={r.n} ks={r.ks_distance:.4f}" for r in rows)


def _cmd_threshold(args) -> str:
    config = _load_config(args.config, asymptotics.ExperimentConfig.KEYS)
    cfg = asymptotics.ExperimentConfig.from_dict("threshold", config, args.seed)
    if args.replicates is not None:  # validated like the config's count
        cfg = replace(cfg, replicates=args.replicates)
    c2 = cfg.c2_rule  # a lambda rule's name, or a fixed rate: lambda(n) = c2 ln^2 n
    rule = c2 if isinstance(c2, str) else lambda n: c2 * math.log(n) ** 2
    rows = asymptotics.threshold_experiment(cfg.n_values, rule, cfg.replicates, cfg.seed)
    out_csv, out_json = _outputs(args, ".csv", ".json")
    _write_csv(
        out_csv,
        ["n", "c2", "scaled_mean_top", "slow_fraction", "scaled_mean_uniform"],
        (
            (r.n, r.c2, r.scaled_mean_top, r.slow_fraction, r.scaled_mean_uniform)
            for r in rows
        ),
    )
    tops = [r.scaled_mean_top for r in rows]
    payload = {
        "rows": [vars(r) for r in rows],
        "scaled_mean_top_strictly_increasing": all(
            a < b for a, b in zip(tops, tops[1:])
        ),
        "note": "finite-n proxy bands; the underlying statements are limits",
    }
    _write_json(out_json, payload)
    return "threshold: " + " ".join(f"n={r.n} scaled={r.scaled_mean_top:.3f}" for r in rows)


_HANDLERS = {
    "moments": _cmd_moments,
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "dynamics": _cmd_dynamics,
    "variational": _cmd_variational,
    "bounds": _cmd_bounds,
    "limit": _cmd_limit,
    "threshold": _cmd_threshold,
}


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="coalsim",
        description="Coalescing balls-into-boxes: exact kernels, simulation, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON experiment config")
        cmd.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        cmd.add_argument("--out", default=None, help="output base path")
        cmd.add_argument("--replicates", type=int, default=None)
        cmd.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        summary = _HANDLERS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, TiltSolveError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DistributionError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
