"""Command-line front end: experiment configs, subcommands, CSV/JSON output.

Subcommands: simulate, sweep, linear-dichotomy, monomial-dichotomy,
discrete-dichotomy, urn, validate.  Options can come from a JSON config
file (--config) with flags overriding file values; the SADDLELAB_SEED
environment variable is the base-seed fallback when neither gives one.

Every run writes a manifest JSON (config snapshot, base seed, counts or
the urn's results, wall-clock, version, and the Python and numpy versions
it ran on) sufficient to reproduce it exactly: pass the manifest back
through --config.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import Outcome
from .experiments import (DichotomyOutput, ExperimentConfig, phase_sweep,
                          run_dichotomy, run_urn_experiment)
from .rng import NonFiniteStateError

CSV_COLUMNS = ["k", "gamma", "prediction", "n_converged", "n_escaped",
               "n_undecided", "p_conv", "ci_lo", "ci_hi", "seed"]

_KIND_DEFAULTS = {
    # per-subcommand defaults layered over ExperimentConfig's
    "linear-dichotomy": {"k": 0.8, "t0": 0.0, "horizon": 15.0, "dt": 1e-3,
                         "trials": 2000, "family": "linear"},
    "monomial-dichotomy": {"k": 2.0, "gamma": 0.9, "t0": 1.0, "horizon": 200.0,
                           "dt": 1e-3, "trials": 1000},
    "discrete-dichotomy": {"k": 2.0, "gamma": 0.9, "n0": 10, "steps": 1_000_000,
                           "trials": 500, "model": "discrete"},
    "sweep": {"trials": 500},
    "simulate": {},
    "urn": {"steps": 10_000, "trials": 1000},
}


def _cell_row(k, gamma, prediction, result) -> dict:
    lo, hi = result.interval(Outcome.CONVERGED)
    return {
        "k": k,
        "gamma": gamma,
        "prediction": prediction,
        "n_converged": result.counts[Outcome.CONVERGED],
        "n_escaped": result.counts[Outcome.ESCAPED],
        "n_undecided": result.counts[Outcome.UNDECIDED],
        "p_conv": result.estimate(Outcome.CONVERGED),
        "ci_lo": lo,
        "ci_hi": hi,
        "seed": result.base_seed,
    }


def emit_csv(rows, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def emit_json(rows, manifest: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump({"rows": rows, "manifest": manifest}, fh, indent=2)
        fh.write("\n")


def _counts(rows) -> dict:
    counts = {"converged": 0, "escaped": 0, "undecided": 0}
    for row in rows:
        counts["converged"] += row["n_converged"]
        counts["escaped"] += row["n_escaped"]
        counts["undecided"] += row["n_undecided"]
    return counts


def make_manifest(config: ExperimentConfig, results: dict, started: float) -> dict:
    """The run's config snapshot and seed, its results block (a dichotomy
    run's "counts", the urn's "urn"), its wall-clock time and the Python
    and numpy versions it ran on: numpy's streams, and so every count, may
    change across its feature releases (NEP 19)."""
    return {
        "artifact_version": __version__,
        "config": config.to_dict(),
        "base_seed": config.seed,
        **results,
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "environment": {"python": sys.version.split()[0], "numpy": np.__version__},
    }


def load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    with open(p) as fh:
        data = json.load(fh)
    # a manifest is accepted anywhere a config is: unwrap its snapshot
    if isinstance(data, dict) and "config" in data and "artifact_version" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"config file {p} must hold a JSON object")
    return data


def _common_flags() -> argparse.ArgumentParser:
    """The flags every experiment subcommand takes, on one parent parser
    that each subcommand's parser copies (parents=): argparse builds a help
    formatter for every add_argument call, so they are added once."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or a run manifest); "
                                         "flags override file values")
    common.add_argument("--k", type=float)
    common.add_argument("--gamma", type=float)
    common.add_argument("--c", type=float)
    common.add_argument("--cap", type=float)
    common.add_argument("--noise", choices=["rademacher", "uniform_centered"])
    common.add_argument("--noise-bound", type=float, dest="noise_bound")
    common.add_argument("--dt", type=float)
    common.add_argument("--horizon", type=float)
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--eps-conv", type=float, dest="eps_conv")
    common.add_argument("--barrier", type=float)
    common.add_argument("--tail-fraction", type=float, dest="tail_fraction")
    common.add_argument("--x0", type=float)
    common.add_argument("--t0", type=float)
    common.add_argument("--n0", type=int)
    common.add_argument("--steps", type=int)
    common.add_argument("--format", choices=["csv", "json"], dest="out_format")
    common.add_argument("--out", dest="out_dir", help="output directory")
    common.add_argument("--jobs", type=int, help="worker pool size "
                                                 "(default: available cores)")
    common.add_argument("--dump-trajectories", action="store_true", default=None,
                        dest="dump_trajectories")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlelab",
        description="Monte Carlo experiments for stochastic-approximation "
                    "dynamics near degenerate saddle points")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]
    for name in ("simulate", "sweep", "linear-dichotomy", "monomial-dichotomy",
                 "discrete-dichotomy", "urn"):
        p = sub.add_parser(name, parents=common)
        if name == "simulate":
            p.add_argument("--model", choices=["continuous", "discrete"])
            p.add_argument("--family", choices=["linear", "monomial"])
            p.add_argument("--raw-frame", action="store_true", default=None,
                           dest="raw_frame")
        if name == "sweep":
            p.add_argument("--model", choices=["continuous", "discrete"])
            p.add_argument("--k-values", dest="k_values",
                           help="comma-separated k grid")
            p.add_argument("--gamma-values", dest="gamma_values",
                           help="comma-separated gamma grid")
        if name == "urn":
            p.add_argument("--urn-f", dest="urn_f",
                           choices=["constant", "identity", "power", "table"])
            p.add_argument("--urn-value", type=float, dest="urn_value")
            p.add_argument("--urn-table", dest="urn_table",
                           help="comma-separated feedback table on [0,1]")
            p.add_argument("--urn-red0", type=int, dest="urn_red0")
            p.add_argument("--urn-total0", type=int, dest="urn_total0")
    v = sub.add_parser("validate", help="run the acceptance suite")
    v.add_argument("--criterion", help="run a single criterion by number")
    v.add_argument("--jobs", type=int,
                   help="worker pool size for the criteria's dichotomy runs "
                        "(default 1)")
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Layer sources: kind defaults < config file < flags < env-var seed."""
    data = dict(_KIND_DEFAULTS.get(args.command, {}))
    data["kind"] = args.command
    if getattr(args, "config", None):
        file_data = load_config_file(args.config)
        file_data.pop("kind", None)
        data.update(file_data)
        data["kind"] = args.command
    seed_given = "seed" in data
    for key, value in vars(args).items():
        if key in ("command", "config", "criterion") or value is None:
            continue
        if (isinstance(getattr(ExperimentConfig, key, None), tuple)
                and isinstance(value, str)):
            value = tuple(float(v) for v in value.split(",") if v)
        data[key] = value
        if key == "seed":
            seed_given = True
    if not seed_given and os.environ.get("SADDLELAB_SEED"):
        data["seed"] = int(os.environ["SADDLELAB_SEED"])
    if data.get("jobs") is None:
        # the CPUs this process may run on, where the platform can tell
        affinity = getattr(os, "sched_getaffinity", None)
        data["jobs"] = len(affinity(0)) if affinity else os.cpu_count() or 1
    return ExperimentConfig.from_dict(data)


def _dump_trajectories(out: DichotomyOutput, out_dir: Path) -> None:
    """Write every state of the first dump_max counted trials, which the
    counting run recorded (they were stepped to the horizon, not retired
    at escape), with an SDE run's grid times; the recursion's times are
    its step indices n, which the file leaves out."""
    paths = () if out.result.paths is None else out.result.paths
    arrays = {f"trial_{i}": path for i, path in enumerate(paths)}
    if out.runner.noise is None:
        arrays = {"times": out.runner.grid.times(), **arrays}
    np.savez(out_dir / "trajectories.npz", **arrays)


def _run_experiment_command(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    dump = None  # the dichotomy run whose recorded trials are written
    if config.kind == "sweep":
        cells = phase_sweep(config)
        rows = [_cell_row(c.k, c.gamma, c.prediction, c.result) for c in cells]
        results = {"counts": _counts(rows)}
        for cell, row in zip(cells, rows):
            flag = " [boundary]" if cell.boundary else ""
            print(f"k={cell.k:g} gamma={cell.gamma:g} -> {cell.prediction}"
                  f" conv={row['p_conv']:.3f} "
                  f"[{row['ci_lo']:.3f}, {row['ci_hi']:.3f}]{flag}")
    elif config.kind == "urn":
        out = run_urn_experiment(config)
        results = {"urn": {
            "final_mean": out.final_mean,
            "final_sd": out.final_std,
            "near_half_fraction": out.near_half_fraction,
            "decomposition_max_gap": out.decomposition_max_gap,
            "decomposition_first_divergence": out.decomposition_first_divergence,
        }}
        print(f"urn f={config.urn_f} trials={out.n_trials} "
              f"final mean={out.final_mean:.5f} sd={out.final_std:.5f} "
              f"near-1/2 fraction={out.near_half_fraction:.4f} "
              f"decomposition gap={out.decomposition_max_gap:.2e}")
    else:
        out = run_dichotomy(config)
        rows = [_cell_row(out.k, out.gamma, out.prediction, out.result)]
        results = {"counts": _counts(rows)}
        r = rows[0]
        print(f"k={out.k:g} gamma={out.gamma:g} -> {out.prediction} "
              f"converged={r['n_converged']} escaped={r['n_escaped']} "
              f"undecided={r['n_undecided']} "
              f"p_conv={r['p_conv']:.4f} [{r['ci_lo']:.4f}, {r['ci_hi']:.4f}]")
        if config.dump_trajectories:
            dump = out
    # made only now, so a run rejected before it counts leaves no directory
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if dump is not None:
        _dump_trajectories(dump, out_dir)
    manifest = make_manifest(config, results, started)
    stem = config.kind.replace("-", "_")
    with open(out_dir / f"{stem}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    if config.kind != "urn":
        if config.out_format == "csv":
            emit_csv(rows, out_dir / f"{stem}_results.csv")
        else:
            emit_json(rows, manifest, out_dir / f"{stem}_results.json")
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from .acceptance import run_acceptance

    only = getattr(args, "criterion", None)
    jobs = 1 if args.jobs is None else args.jobs
    results = run_acceptance(only=only, jobs=jobs)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _run_validate(args)
        config = resolve_config(args)
        return _run_experiment_command(config)
    except (ValueError, OSError, NonFiniteStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
