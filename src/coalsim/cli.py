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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        raise _CliError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed config {path}: {exc}")


def _field(config: dict, key: str, command: str):
    try:
        return config[key]
    except KeyError:
        raise _CliError(f"{command} config needs {key!r}")


def _distribution(config: dict):
    try:
        return from_descriptor(config["distribution"])
    except KeyError:
        raise _CliError("config needs a 'distribution' descriptor")


def _out_base(args) -> Path:
    if args.out:
        return Path(args.out)
    if args.config:
        # never collide with the config file itself
        return Path(str(Path(args.config).with_suffix("")) + ".out")
    return Path("coalsim_out")


def _out_file(base: Path, ext: str) -> Path:
    # plain concatenation: suffix-replacing semantics would eat dotted bases
    return base.parent / (base.name + ext)


def _cmd_moments(args) -> str:
    config = _load_config(args.config)
    p = _distribution(config)
    m = p.moments()
    payload = {"n": p.n, "c2": m.c2, "c3": m.c3}
    _write_json(_out_file(_out_base(args), ".json"), payload)
    return f"moments: n={p.n} c2={m.c2:.12g} c3={m.c3:.12g}"


def _cmd_exact(args) -> str:
    config = _load_config(args.config)
    p = _distribution(config)
    kernel = exact_chain.TriangularKernel(p)
    base = _out_base(args)
    exact_chain.write_kernel_csv(kernel, _out_file(base, ".kernel.csv"))
    et = exact_chain.expected_coalescence_times(kernel)
    _write_csv(
        _out_file(base, ".expected.csv"),
        ["m", "expected_T"],
        ((m, et[m]) for m in range(1, p.n + 1)),
    )
    m = p.moments()
    payload = {
        "n": p.n,
        "c2": m.c2,
        "expected_T_from_n": et[p.n],
        "pair_bound_2n_minus_2": 2 * p.n - 2,
    }
    eps = config.get("eps")
    if eps is not None:
        k_star = min(max(early_threshold(m.c2, p.n, float(eps)), 1.0), float(p.n))
        k_1 = min(max(late_threshold(m.c2, p.n, float(eps)), 1.0), k_star)
        phases = exact_chain.phase_decomposition(kernel, k_star, k_1)
        payload["phases"] = {
            "k_star": k_star,
            "k_1": k_1,
            "early": phases.early,
            "middle": phases.middle,
            "late": phases.late,
        }
    _write_json(_out_file(base, ".json"), payload)
    return f"exact: n={p.n} expected_T={et[p.n]:.12g}"


def _cmd_simulate(args) -> str:
    config = _load_config(args.config)
    p = _distribution(config)
    replicates = args.replicates or int(config.get("replicates", 1000))
    thresholds = tuple(float(t) for t in config.get("thresholds", ()))
    sim = simulate.SimConfig(
        p=p,
        replicates=replicates,
        master_seed=args.seed,
        b0=config.get("b0"),
        record_trajectory=bool(config.get("record", False)),
        passage_thresholds=thresholds,
    )
    results = simulate.runs(sim)
    summary = simulate.BatchSummary.from_runs(results, thresholds)
    base = _out_base(args)
    header = ["replicate", "T"] + [f"tau_at_{_fmt(t)}" for t in thresholds]
    _write_csv(
        _out_file(base, ".replicates.csv"),
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
    _write_json(_out_file(base, ".json"), payload)
    se = stats.stderr
    return (
        f"simulate: mean T={stats.mean:.12g}"
        + (f" stderr={se:.4g}" if se is not None else "")
    )


def _cmd_dynamics(args) -> str:
    config = _load_config(args.config)
    p = _distribution(config)
    ks = config.get("k_values")
    if ks is None:
        ks = list(range(0, int(config.get("k_max", p.n)) + 1))
    rows = []
    for k in ks:
        k = float(k)
        rows.append(
            (
                k,
                empty_boxes_proxy(p, k),
                occupancy_proxy(p, k),
                one_step_envelope(p, k),
                envelope_margin(p, k) if k > 0 else 0.0,
            )
        )
    base = _out_base(args)
    _write_csv(
        _out_file(base, ".csv"),
        ["k", "empty_proxy", "occupancy_proxy", "envelope", "margin"],
        rows,
    )
    return f"dynamics: wrote {len(rows)} rows"


def _cmd_variational(args) -> str:
    config = _load_config(args.config)
    n = _whole(_field(config, "n", "variational"), "n")
    c2 = float(_field(config, "c2", "variational"))
    k = float(_field(config, "k", "variational"))
    budget = _whole(config.get("budget", 100_000), "budget")
    rng = np.random.default_rng(args.seed)
    q_best, f_best = variational.minimize_proxy_fixed_c2(n, c2, k, budget, rng)
    f_top = empty_boxes_proxy(topheavy(n, c2), k)
    payload = {
        "n": n,
        "c2": c2,
        "k": k,
        "budget": budget,
        "best_weights": [float(v) for v in q_best.sorted_desc()],
        "f_best": f_best,
        "f_topheavy": f_top,
        "gap": f_best - f_top,
        "distinct_levels_at_1e-6": variational.level_count(q_best.weights),
    }
    _write_json(_out_file(_out_base(args), ".json"), payload)
    return f"variational: f_best={f_best:.12g} gap={f_best - f_top:.3e}"


def _cmd_bounds(args) -> str:
    config = _load_config(args.config)
    p = _distribution(config)
    k = _whole(_field(config, "k", "bounds"), "k")
    if not 1 <= k <= p.n:
        raise _CliError(f"'k'={k} outside [1, n={p.n}]")
    center = tail_bounds.tilt_center(p, k)
    b_values = config.get("b_values")
    if b_values is None:
        offsets = config.get("b_offsets", [-2, -1, 0, 1, 2])
        b_values = [center + float(o) for o in offsets]
    b_values = [b for b in b_values if 0.0 < b <= k]
    report = tail_bounds.curvature_report(p, k, b_values)
    rows = [
        (pt.b, pt.z, pt.r, pt.h, pt.curvature_fd, pt.hessian_det)
        for pt in report.points
    ]
    base = _out_base(args)
    _write_csv(
        _out_file(base, ".csv"),
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
    _write_json(_out_file(base, ".json"), payload)
    return f"bounds: solved {len(report.points)} points, all_ok={report.all_ok}"


def _cmd_limit(args) -> str:
    config = _load_config(args.config)
    cfg = asymptotics.ExperimentConfig.from_dict("limit", config, args.seed)
    if args.replicates:
        cfg = replace(cfg, replicates=args.replicates)
    rows = [
        asymptotics.limit_law_experiment(n, cfg.replicates, cfg.seed, cfg.truncation)
        for n in cfg.n_values
    ]
    base = _out_base(args)
    _write_csv(
        _out_file(base, ".csv"),
        ["n", "replicates", "mean_T", "mean_ratio", "ks_distance"],
        ((r.n, r.replicates, r.mean_T, r.mean_ratio, r.ks_distance) for r in rows),
    )
    ks = [r.ks_distance for r in rows]
    payload = {
        "rows": [vars(r) for r in rows],
        "ks_nonincreasing_in_n": all(a >= b for a, b in zip(ks, ks[1:])),
        "note": "finite-n proxy bands; the underlying statements are limits",
    }
    _write_json(_out_file(base, ".json"), payload)
    return "limit: " + " ".join(f"n={r.n} ks={r.ks_distance:.4f}" for r in rows)


def _cmd_threshold(args) -> str:
    config = _load_config(args.config)
    cfg = asymptotics.ExperimentConfig.from_dict("threshold", config, args.seed)
    replicates = args.replicates or cfg.replicates
    rule = cfg.c2_rule
    if isinstance(rule, float):
        rows = asymptotics.threshold_experiment(
            cfg.n_values, lambda n: rule * math.log(n) ** 2, replicates, cfg.seed
        )
    else:
        rows = asymptotics.threshold_experiment(
            cfg.n_values, rule, replicates, cfg.seed
        )
    base = _out_base(args)
    _write_csv(
        _out_file(base, ".csv"),
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
    _write_json(_out_file(base, ".json"), payload)
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
