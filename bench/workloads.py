"""The benchmark's workloads: seeded saddlelab invocations and their checks.

A workload is a fixed list of invocations: command lines run through the
public entry point ``saddlelab.cli.main`` and, for ``linear-exact``, direct
calls to public functions.  Each invocation knows its nominal trial-steps
(trials x steps, whether or not the program later skips some), how to
reduce its output to an outcome summary, and the science gates that the
summary must pass at any seed.  Summaries at the pinned seeds must equal
``pinned.json`` exactly: speed never buys a changed count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import saddlelab.analysis as analysis
import saddlelab.cli as cli
import saddlelab.continuous as continuous
import saddlelab.rng as rng
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec

DEFAULT_SEED = 20260810
PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())


class CheckFailed(Exception):
    """An invocation's output does not hold together."""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  Science gates and pins are calibrated on FULL only."""

    calibrated: bool
    sweep_trials: int
    sweep_horizon: float
    sweep_dt: float
    disc_trials: int
    disc_steps: int
    urn_trials: int
    urn_steps: int
    lin_trials: int
    lin_horizon: float
    lin_dt: float
    hit_paths: int
    exact_paths: int
    coupled_trials: int
    coupled_horizon: float
    coupled_dt: float
    probe_steps: int


# Scaled-down acceptance criteria 4, 5, 9 and 1-3, 6, 8; see README.md.
FULL = Sizes(calibrated=True, sweep_trials=1024, sweep_horizon=30.0,
             sweep_dt=0.01, disc_trials=256, disc_steps=20_000,
             urn_trials=1024, urn_steps=10_000, lin_trials=512,
             lin_horizon=15.0, lin_dt=0.01, hit_paths=100_000,
             exact_paths=10_000, coupled_trials=500, coupled_horizon=15.0,
             coupled_dt=1e-3, probe_steps=2048)
SMOKE = Sizes(calibrated=False, sweep_trials=300, sweep_horizon=3.0,
              sweep_dt=0.05, disc_trials=8, disc_steps=200, urn_trials=16,
              urn_steps=100, lin_trials=16, lin_horizon=2.0, lin_dt=0.05,
              hit_paths=1000, exact_paths=100, coupled_trials=8,
              coupled_horizon=1.0, coupled_dt=0.01, probe_steps=64)


@dataclass(frozen=True)
class Invocation:
    label: str
    trial_steps: int
    call: Callable[[Path], Any]          # runs the program, returns its output
    summarize: Callable[[Any], dict]     # output -> outcome summary, or CheckFailed
    gates: Callable[[dict], list]        # failed science gates (calibrated sizes)
    argv: list | None = None             # the command line, for CLI invocations


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    sizes: Sizes
    invocations: list

    @property
    def startup_argv(self) -> list:
        """The first command line; setup_s times a fresh interpreter up to it."""
        return next(inv.argv for inv in self.invocations if inv.argv)

    @property
    def jobs(self) -> int:
        """Largest --jobs among the command lines: the processes it keeps busy."""
        return max(int(inv.argv[inv.argv.index("--jobs") + 1])
                   for inv in self.invocations if inv.argv)

    @property
    def trial_steps(self) -> int:
        return sum(inv.trial_steps for inv in self.invocations)

    def pinned(self):
        return PINNED.get(self.name, {}).get(str(self.seed)) if self.sizes.calibrated else None


def _n_steps(t0: float, t_end: float, dt: float) -> int:
    return int(math.floor((t_end - t0) / dt + 1e-9))


# -- command-line invocations --------------------------------------------------

@dataclass
class CliRun:
    rc: int
    stdout: str
    out_dir: Path


def _cli(argv: list) -> Callable[[Path], CliRun]:
    def call(out_dir: Path) -> CliRun:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([*argv, "--out", str(out_dir)])
        return CliRun(rc, buf.getvalue(), out_dir)
    return call


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _dichotomy_cells(run: CliRun, stem: str, trials: int) -> list:
    """Rows of the results CSV, cross-checked against manifest and stdout."""
    _require(run.rc == 0, f"exit code {run.rc}")
    with open(run.out_dir / f"{stem}_results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(run.out_dir / f"{stem}_manifest.json") as fh:
        manifest = json.load(fh)
    cells = [[float(r["k"]), float(r["gamma"]), r["prediction"],
              int(r["n_converged"]), int(r["n_escaped"]), int(r["n_undecided"])]
             for r in rows]
    _require(len(cells) > 0, "no result rows")
    for cell in cells:
        _require(sum(cell[3:]) == trials, f"cell {cell[:2]} counts do not sum to {trials}")
    totals = [sum(c[i] for c in cells) for i in (3, 4, 5)]
    m = manifest["counts"]
    _require(totals == [m["converged"], m["escaped"], m["undecided"]],
             "manifest counts disagree with the CSV")
    lines = [line for line in run.stdout.splitlines() if line.startswith("k=")]
    _require(len(lines) == len(cells), "stdout has a different number of cells")
    for line, cell in zip(lines, cells):
        single = re.search(r"converged=(\d+) escaped=(\d+) undecided=(\d+)", line)
        if single:
            _require([int(v) for v in single.groups()] == cell[3:],
                     f"stdout counts disagree with the CSV: {line!r}")
        else:
            conv = re.search(r"conv=([0-9.]+)", line)
            _require(conv is not None and conv.group(1) == f"{cell[3] / trials:.3f}",
                     f"stdout fraction disagrees with the CSV: {line!r}")
    return cells


def _regime_gates(cells: list, trials: int, linear: bool = False) -> list:
    """Each cell's prediction follows the threshold, and its counts lean
    the predicted way (criteria 1, 2, 4 and 5, scaled down): escape cells
    have at most 1 % converged and a majority escaped, convergence cells at
    least 5 % converged."""
    failed = []
    for k, gamma, prediction, conv, esc, _ in cells:
        escapes = k >= 0.5 if linear else gamma <= 0.5 + 0.5 / k
        expected = "nonconvergence" if escapes else "convergence"
        if prediction != expected:
            failed.append(f"k={k:g} gamma={gamma:g}: prediction {prediction}")
        # the scaled-down horizon leaves some escaping paths undecided
        if escapes and not (esc >= 0.5 * trials and conv <= 0.01 * trials):
            failed.append(f"k={k:g} gamma={gamma:g}: escaped {esc}, converged {conv}")
        if not escapes and conv < 0.05 * trials:
            failed.append(f"k={k:g} gamma={gamma:g}: converged {conv}")
        if linear and not escapes and esc < 0.05 * trials:
            failed.append(f"k={k:g}: escaped {esc} (subcritical needs both outcomes)")
    return failed


def _dichotomy(label: str, argv: list, stem: str, trials: int, steps: int,
               linear: bool = False, extra=None) -> Invocation:
    def summarize(run: CliRun) -> dict:
        summary = {"cells": _dichotomy_cells(run, stem, trials)}
        if extra is not None:
            summary.update(extra(run))
        return summary
    return Invocation(label=label, trial_steps=steps, call=_cli(argv),
                      summarize=summarize,
                      gates=lambda s: _regime_gates(s["cells"], trials, linear),
                      argv=argv)


def _dump_summary(run: CliRun, count: int, length: int, x0: float) -> dict:
    with np.load(run.out_dir / "trajectories.npz") as npz:
        paths = [npz[f"trial_{i}"] for i in range(len(npz.files))]
    _require(len(paths) == count, f"{len(paths)} dumped paths, expected {count}")
    for path in paths:
        _require(len(path) == length and path[0] == x0 and np.isfinite(path).all(),
                 "a dumped path has the wrong length, start or a non-finite value")
    return {"dump_final_sum": round(float(sum(p[-1] for p in paths)), 9)}


URN_LINE = re.compile(r"urn f=(\S+) trials=(\d+) final mean=(\S+) sd=(\S+) "
                      r"near-1/2 fraction=(\S+) decomposition gap=(\S+)")


def _urn(label: str, argv: list, trials: int, steps: int, f_kind: str,
         start_fraction: float) -> Invocation:
    def summarize(run: CliRun) -> dict:
        _require(run.rc == 0, f"exit code {run.rc}")
        match = URN_LINE.search(run.stdout)
        _require(match is not None, "no urn summary line on stdout")
        f, n, mean, sd, near, gap = match.groups()
        _require(f == f_kind and int(n) == trials, "urn line names another run")
        with open(run.out_dir / "urn_manifest.json") as fh:
            manifest = json.load(fh)
        _require(manifest["config"]["urn_f"] == f_kind, "manifest names another run")
        return {"final_mean": float(mean), "sd": float(sd),
                "near_half": float(near), "gap": float(gap)}

    def gates(s: dict) -> list:
        failed = []
        if s["gap"] > 1e-12:
            failed.append(f"decomposition gap {s['gap']:g}")
        # X_n is a martingale for f = identity; f = 1/2 concentrates at 1/2
        target = 0.5 if f_kind == "constant" else start_fraction
        if abs(s["final_mean"] - target) > 5 * s["sd"] / math.sqrt(trials) + 1e-5:
            failed.append(f"final mean {s['final_mean']} far from {target}")
        if f_kind == "constant" and s["near_half"] < 0.95:
            failed.append(f"near-1/2 fraction {s['near_half']}")
        return failed
    return Invocation(label=label, trial_steps=trials * steps + min(steps, 1000),
                      call=_cli(argv), summarize=summarize, gates=gates, argv=argv)


# -- direct calls (linear-exact) ---------------------------------------------------

HIT_POINTS = (-1.0, -0.5, -0.25)   # criterion 3: k = 0.3, s = 0, horizon 30


def _hit_invocation(seed: int, sizes: Sizes) -> Invocation:
    def call(_out_dir):
        return [continuous.linear_hit_zero_mc(0.3, x, 0.0, 30.0, sizes.hit_paths,
                                              rng.derive_seed(seed, 3, i))[0]
                for i, x in enumerate(HIT_POINTS)]

    def gates(s: dict) -> list:
        # criterion 3's rule: the 99 % Wilson interval of the hit frequency
        # covers never_return_alpha at two of the three starts or more
        inside = []
        for x, hits in zip(HIT_POINTS, s["hits"]):
            lo, hi = analysis.wilson_interval(hits, sizes.hit_paths, confidence=0.99)
            inside.append(lo <= analysis.never_return_alpha(0.3, 0.0, x) <= hi)
        return [] if sum(inside) >= 2 else [f"hit coverage {inside}"]
    return Invocation(label="linear_hit_zero_mc", trial_steps=3 * sizes.hit_paths * 64,
                      call=call, summarize=lambda hits: {"hits": hits}, gates=gates)


def _exact_invocation(seed: int, sizes: Sizes) -> Invocation:
    k, x0, t_end, n = 0.8, 3.0, 2.0, sizes.exact_paths   # criterion 6

    def call(_out_dir):
        return continuous.linear_exact_batch(k, "positive", x0, 0.0, [t_end], n,
                                             rng.derive_seed(seed, 6))

    def summarize(out) -> dict:
        values, first = out
        _require(values.shape == (n, 1) and np.isfinite(values).all(),
                 "exact sample has the wrong shape or a non-finite value")
        return {"mean": round(float(values.mean()), 9),
                "var": round(float(values.var(ddof=1)), 9),
                "crossings": int((first >= 0).sum())}

    def gates(s: dict) -> list:
        # closed-form Gaussian law of the positive branch at t_end
        mean = math.exp(k * t_end) * x0
        var = math.exp(2 * k * t_end) * (1 - math.exp(-(2 * k + 1) * t_end)) / (2 * k + 1)
        failed = []
        if abs(s["mean"] - mean) > 5 * math.sqrt(var / n):
            failed.append(f"exact mean {s['mean']} vs {mean}")
        if abs(s["var"] / var - 1) > 5 * math.sqrt(2 / (n - 1)):
            failed.append(f"exact variance {s['var']} vs {var}")
        if s["crossings"] > 2:
            failed.append(f"{s['crossings']} sign changes from x0 = 3")
        return failed
    return Invocation(label="linear_exact_batch", trial_steps=n, call=call,
                      summarize=summarize, gates=gates)


def _coupled_invocation(seed: int, sizes: Sizes) -> Invocation:
    grid_steps = _n_steps(0.0, sizes.coupled_horizon, sizes.coupled_dt)

    def call(_out_dir):
        schedule = NoiseSchedule("exp_half")
        spec_a = ProcessSpec(DriftSpec("linear", 0.8), schedule, t0=0.0, x0=-0.45)
        spec_b = ProcessSpec(DriftSpec("linear", 0.3), schedule, t0=0.0, x0=-0.5)
        grid = continuous.TimeGrid(0.0, sizes.coupled_horizon, sizes.coupled_dt)
        seeds = [rng.derive_seed(seed, 8, i) for i in range(sizes.coupled_trials)]
        return continuous.coupled_violations_batch(spec_a, spec_b, -0.45, -0.5,
                                                   grid, seeds)

    def summarize(first) -> dict:
        _require(len(first) == sizes.coupled_trials, "one result per coupled trial")
        return {"violations": int((first >= 0).sum())}
    return Invocation(label="coupled_violations_batch",
                      trial_steps=sizes.coupled_trials * grid_steps, call=call,
                      summarize=summarize,
                      gates=lambda s: ([] if s["violations"] == 0
                                       else [f"{s['violations']} ordering violations"]))


# -- the four workloads ------------------------------------------------------------

def _sweep_continuous(seed: int, z: Sizes) -> list:
    argv = ["sweep", "--model", "continuous", "--k-values", "2,3",
            "--gamma-values", "0.6,0.9", "--trials", str(z.sweep_trials),
            "--horizon", str(z.sweep_horizon), "--dt", str(z.sweep_dt),
            "--x0", "-0.2", "--seed", str(seed), "--jobs", "2"]
    steps = 4 * z.sweep_trials * _n_steps(1.0, z.sweep_horizon, z.sweep_dt)
    return [_dichotomy("sweep", argv, "sweep", z.sweep_trials, steps)]


def _discrete_simulate(seed: int, z: Sizes) -> list:
    argv = ["simulate", "--model", "discrete", "--k", "2", "--gamma", "0.9",
            "--noise", "rademacher", "--x0", "-0.2", "--steps", str(z.disc_steps),
            "--trials", str(z.disc_trials), "--dump-trajectories",
            "--seed", str(seed), "--jobs", "1"]
    dumped = min(z.disc_trials, 10)
    steps = (z.disc_trials + dumped) * z.disc_steps
    return [_dichotomy("simulate", argv, "simulate", z.disc_trials, steps,
                       extra=lambda run: _dump_summary(run, dumped,
                                                       z.disc_steps + 1, -0.2))]


def _urn_pair(seed: int, z: Sizes) -> list:
    common = ["--steps", str(z.urn_steps), "--trials", str(z.urn_trials),
              "--seed", str(seed), "--jobs", "1"]
    return [
        _urn("urn_constant", ["urn", "--urn-f", "constant", "--urn-value", "0.5",
                              *common], z.urn_trials, z.urn_steps, "constant", 0.5),
        _urn("urn_identity", ["urn", "--urn-f", "identity", "--urn-red0", "3",
                              "--urn-total0", "10", *common],
             z.urn_trials, z.urn_steps, "identity", 0.3),
    ]


def _linear_exact(seed: int, z: Sizes) -> list:
    steps = z.lin_trials * _n_steps(0.0, z.lin_horizon, z.lin_dt)
    out = []
    for k in ("0.3", "0.8"):
        argv = ["linear-dichotomy", "--k", k, "--x0", "-0.1",
                "--trials", str(z.lin_trials), "--horizon", str(z.lin_horizon),
                "--dt", str(z.lin_dt), "--seed", str(seed), "--jobs", "1"]
        out.append(_dichotomy(f"linear_k{k}", argv, "linear_dichotomy",
                              z.lin_trials, steps, linear=True))
    return out + [_hit_invocation(seed, z), _exact_invocation(seed, z),
                  _coupled_invocation(seed, z)]


FACTORIES = {
    "sweep-continuous": _sweep_continuous,
    "discrete-simulate": _discrete_simulate,
    "urn": _urn_pair,
    "linear-exact": _linear_exact,
}


def build(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    return Workload(name=name, seed=seed, sizes=sizes,
                    invocations=FACTORIES[name](seed, sizes))
