"""Named experiment families, their classifier defaults and the phase sweep.

Each dichotomy experiment pairs a simulator setup with a classifier whose
band and barrier are set from the regime's own scales:

* linear, k >= 1/2 (escape is a.s.): no path converges, so a low barrier
  at |x0| detects departure with no false-escape risk; the band sits two
  decades below it.
* linear, k < 1/2: converging paths decay like e^{-kt} times an
  O(sigma_inf) Gaussian prefactor, so the band is 3 sigma_inf e^{-k t_tail}
  and the barrier stays at the global default, far outside any
  still-converging path's range.
* monomial (continuous): converging paths track the mean flow, so the band
  is 2.5 |h(tail start)| with h(t) = t^(1/(1-k)) on the transformed clock,
  clipped at 0.1 to stay well under the barrier.
* the discrete recursion: the band is 3 (1-gamma) n^-(1-gamma) at the tail
  start, clipped at 0.1.  That is the k = 2 mean-flow scale, and it is used
  for every k; the k >= 3 flow decays more slowly than it.

An explicit eps_conv or barrier in the config overrides either default.

A single dichotomy run is a one-cell sweep: run_dichotomy, phase_sweep and
acceptance criterion 4 all go through _run_cells, which builds one runner
per (k, gamma) cell and counts every cell's trials in one
estimate_probability call.  That call gets the cells predicted to
converge first, since their trials run to the horizon while escaping
trials retire at the barrier; the outputs come back in cell order.

Every dichotomy cell, SDE or recursion, has one runner, DichotomyRunner:
a plain frozen dataclass mapping a block of trial seeds to (outcomes,
paths), so it pickles cleanly onto worker processes.  It holds the cell's
ProcessSpec and TimeGrid (the recursion's are raw-clock EM at unit steps),
its classifier, the model whose prediction applies (`model`) and the
recursion's bounded noise (`noise`, None for Brownian noise); paths holds
every state of the first `dump` trials it counts, recorded by the counting
run (--dump-trajectories) so they are never simulated twice, and is None
when dump is 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import continuous as cont
from . import discrete as disc
from .analysis import (ClassifierConfig, MCResult, classify_stats,
                       estimate_probability, tail_start, trial_seeds)
from .model import DriftSpec, NoiseSchedule, ProcessSpec, predict_regime
from .rng import Record, derive_seed

__all__ = [
    "ExperimentConfig",
    "DichotomyRunner",
    "run_dichotomy",
    "run_urn_experiment",
    "phase_sweep",
]


@dataclass(frozen=True)
class DichotomyRunner:
    """Trials of one dichotomy cell on its grid, classified from their
    running stats: EM with Brownian noise when noise is None, else the
    recursion, stepped by disc.sgd_batch (which builds the same raw-clock
    spec and unit grid) with this bounded noise.

    A call returns (outcomes, paths).  With a positive dump the first dump
    trials are stepped to the horizon and recorded by the same run,
    paths[i] holding every grid state of trial i; else paths is None."""

    spec: ProcessSpec
    grid: cont.TimeGrid
    cfg: ClassifierConfig
    model: str
    noise: disc.NoiseSpec | None = None
    dump: int = 0

    def __call__(self, seeds):
        spec, grid = self.spec, self.grid
        n = min(self.dump, len(seeds))
        record = Record((n,), grid.n_steps) if n else None
        batch_args = {"tail_start": self.cfg.tail_start(grid.t0, grid.t_end),
                      "barrier": self.cfg.barrier, "record": record}
        if self.noise is None:
            stats = cont.em_batch(spec, grid, seeds, **batch_args)
        else:
            stats = disc.sgd_batch(spec.drift, spec.noise.gamma, self.noise,
                                   spec.x0, grid.t0, grid.t_end, seeds, **batch_args)
        outcomes = classify_stats(stats.max_value, stats.tail_abs_max, self.cfg)
        return outcomes, None if record is None else record.value


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description; every field has a default and a
    round trip through to_dict/from_dict is exact."""

    kind: str = "simulate"
    model: str = "continuous"          # continuous | discrete (simulate/sweep)
    family: str = "monomial"           # linear | monomial (simulate)
    k: float = 2.0
    gamma: float = 0.9
    c: float = 1.0
    cap: float = 10.0
    noise: str = "rademacher"          # discrete noise family
    noise_bound: float = 1.0
    x0: float = -0.2
    t0: float = 1.0
    dt: float = 1e-3
    horizon: float = 200.0
    n0: int = 10
    steps: int = 1_000_000
    trials: int = 500
    seed: int = 0
    eps_conv: float | None = None      # None: per-experiment default rule
    barrier: float | None = None
    tail_fraction: float = 0.2
    k_values: tuple = (1.5, 2.0, 3.0)
    gamma_values: tuple = (0.55, 0.65, 0.75, 0.85, 0.95)
    urn_f: str = "identity"
    urn_value: float = 0.5
    urn_table: tuple = ()
    urn_red0: int = 1
    urn_total0: int = 2
    raw_frame: bool = False
    dump_trajectories: bool = False
    dump_max: int = 10
    out_format: str = "csv"            # csv | json
    out_dir: str = "."
    jobs: int = 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        data = dict(data)
        for key, value in data.items():
            expected = _type_mismatch(defaults[key], value)
            if expected:
                raise ValueError(f"config key {key!r} must be {expected}, "
                                 f"got {value!r}")
            if not _is_finite(value):
                raise ValueError(f"config key {key!r} must be finite, "
                                 f"got {value!r}")
            if key in _MINIMUM and value < _MINIMUM[key]:
                raise ValueError(f"config key {key!r} must be at least "
                                 f"{_MINIMUM[key]}, got {value!r}")
            if isinstance(value, list):
                data[key] = tuple(value)
        return cls(**data)


_MINIMUM = {"jobs": 1, "dump_max": 0}  # range checks on top of the type checks


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """False when a config value is, or a list value holds, a NaN or an
    infinite float."""
    values = value if isinstance(value, (list, tuple)) else (value,)
    return not any(isinstance(v, float) and not math.isfinite(v) for v in values)


def _type_mismatch(default, value) -> str | None:
    """What a config value must be, given its field's default, when value is
    not that; None when it is."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return (None if isinstance(value, int) and not isinstance(value, bool)
                else "an integer")
    if isinstance(default, float):
        return None if _is_number(value) else "a number"
    if default is None:
        return None if value is None or _is_number(value) else "a number or null"
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    ok = isinstance(value, (list, tuple)) and all(map(_is_number, value))
    return None if ok else "a list of numbers"


@dataclass(eq=False)
class DichotomyOutput:
    runner: DichotomyRunner
    result: MCResult
    k: float
    gamma: float
    prediction: str
    boundary: bool


def _runner_kind(config: ExperimentConfig) -> str:
    if config.kind.endswith("-dichotomy"):
        return config.kind.removesuffix("-dichotomy")
    if config.model == "discrete":
        return "discrete"
    return "linear" if config.family == "linear" else "monomial"


def _classifier(config: ExperimentConfig, t0: float, t_end: float,
                default_barrier: float, band) -> ClassifierConfig:
    """The config's barrier and eps_conv when set; else the regime's default
    barrier and band(barrier, tail start)."""
    barrier = default_barrier if config.barrier is None else config.barrier
    eps = config.eps_conv
    if eps is None:
        eps = band(barrier, tail_start(t0, t_end, config.tail_fraction))
    return ClassifierConfig(eps_conv=eps, barrier=barrier,
                            tail_fraction=config.tail_fraction)


def _build_runner(config: ExperimentConfig, k: float, gamma: float):
    """The runner of one cell: its model's spec, hypotheses, grid and
    classifier.  Each spec is built first, so DriftSpec's k bound is the
    one that rejects k; a discrete cell's steps or an SDE cell's grid
    comes next, so a bad horizon is rejected before any trial runs."""
    kind = _runner_kind(config)
    if kind == "discrete":
        drift = DriftSpec("monomial", k, config.c, config.cap)
        if not 0.5 < gamma < 1.0:
            raise ValueError("discrete dichotomy requires gamma in (1/2, 1) "
                             "(step-size hypothesis)")
        spec, grid = disc._as_em(drift, gamma, config.x0, config.n0,
                                 config.n0 + config.steps)
        cfg = _classifier(config, grid.t0, grid.t_end, 3.0, lambda _, n_tail: min(
            3.0 * (1.0 - gamma) * n_tail ** (-(1.0 - gamma)), 0.1))
        return DichotomyRunner(
            spec=spec, grid=grid, cfg=cfg, model="discrete",
            noise=disc.NoiseSpec(config.noise, config.noise_bound))
    if kind == "linear":
        # k|x| on the exponential clock reads no c, cap or gamma, so a value
        # other than the default would be recorded but not run
        for name, value in (("c", config.c), ("cap", config.cap), ("gamma", gamma)):
            default = getattr(ExperimentConfig, name)
            if value != default:
                raise ValueError(f"the linear drift k|x| on the exponential clock "
                                 f"does not use {name}; got {name} = {value:g}, "
                                 f"leave it at {default:g}")
        spec = ProcessSpec(DriftSpec("linear", k), NoiseSchedule("exp_half"),
                           t0=config.t0, x0=config.x0)
        if k >= 0.5:
            default_barrier, band = (abs(config.x0),
                                     lambda barrier, _: barrier / 100.0)
        else:
            sigma_inf = math.sqrt(1.0 / (1.0 - 2.0 * k))
            default_barrier, band = 3.0, lambda barrier, t_tail: min(
                3.0 * sigma_inf * math.exp(-k * t_tail), 0.9 * barrier)
    else:
        drift = DriftSpec("monomial", k, config.c, config.cap)
        if not 0.5 < gamma < 1.0:
            raise ValueError("continuous power-clock dichotomy requires "
                             "gamma in (1/2, 1); gamma = 1 is the linear "
                             "exponential-clock regime")
        schedule = NoiseSchedule("power_gamma" if config.raw_frame
                                 else "power_transformed", gamma)
        spec = ProcessSpec(drift, schedule, t0=config.t0, x0=config.x0)
        default_barrier, band = 3.0, lambda _, t_tail: min(
            2.5 * t_tail ** (1.0 / (1.0 - k)), 0.1)
    grid = cont.TimeGrid(config.t0, config.horizon, config.dt)
    return DichotomyRunner(
        spec=spec, grid=grid,
        cfg=_classifier(config, grid.t0, grid.t_end, default_barrier, band),
        model=spec.drift.family)


def _run_cells(config: ExperimentConfig, cells, seeds,
               dump: int = 0) -> list[DichotomyOutput]:
    """One DichotomyOutput per (k, gamma) cell, in cell order, cell i on base
    seed seeds[i]; every cell's trials run in one estimate_probability call,
    on one pool, which records the first `dump` trials of each cell
    (result.paths).

    The cells predicted to converge are handed to the pool first, in cell
    order, then the rest: their trials run to the horizon while escaping
    trials retire at the barrier, so the costliest blocks start first and
    the workers finish closer together.  Each cell keeps its runner and
    seed, so no count depends on the order."""
    runners = [dataclasses.replace(_build_runner(config, k, gamma), dump=dump)
               for k, gamma in cells]
    predictions = [predict_regime(runner.model, k, gamma)
                   for (k, gamma), runner in zip(cells, runners)]
    order = sorted(range(len(cells)),
                   key=lambda i: predictions[i][0] != "convergence")
    results = estimate_probability([runners[i] for i in order], config.trials,
                                   [seeds[i] for i in order], jobs=config.jobs)
    by_cell = dict(zip(order, results))
    return [DichotomyOutput(runners[i], by_cell[i], k, gamma, *predictions[i])
            for i, (k, gamma) in enumerate(cells)]


def run_dichotomy(config: ExperimentConfig) -> DichotomyOutput:
    """Run one dichotomy cell, (config.k, config.gamma) on config.seed: N
    classified trials plus the regime prediction, as a one-cell sweep.
    With dump_trajectories, result.paths holds every state of the first
    min(trials, dump_max) counted trials, recorded as they were counted."""
    dump = min(config.trials, config.dump_max) if config.dump_trajectories else 0
    (out,) = _run_cells(config, [(config.k, config.gamma)], [config.seed], dump)
    return out


def phase_sweep(config: ExperimentConfig) -> list[DichotomyOutput]:
    """One DichotomyOutput per (k, gamma) grid point, row-major over k then
    gamma.

    Cell seeds derive from (base seed, cell index), so the table is
    reproducible cell-by-cell and independent of worker count and of the
    order in which _run_cells hands the cells to the pool (predicted
    convergent cells first).  A sweep records no paths, so it rejects
    dump_trajectories.
    """
    if config.dump_trajectories:
        raise ValueError("dump_trajectories records the paths of a single "
                         "dichotomy run; a sweep cannot dump them")
    cells = [(k, gamma) for k in config.k_values for gamma in config.gamma_values]
    if not cells:
        return []
    return _run_cells(dataclasses.replace(config, kind="sweep"), cells,
                      derive_seed(config.seed, np.arange(len(cells))))


@dataclass(eq=False)
class UrnOutput:
    n_trials: int
    final_mean: float
    final_std: float
    near_half_fraction: float
    decomposition_max_gap: float
    decomposition_first_divergence: int | None


def run_urn_experiment(config: ExperimentConfig) -> UrnOutput:
    """Urn Monte Carlo: final-fraction statistics plus a pathwise
    decomposition audit on the first trial's seed.  The urn records no
    paths, so it rejects dump_trajectories."""
    if config.dump_trajectories:
        raise ValueError("dump_trajectories records the paths of a single "
                         "dichotomy run; the urn cannot dump them")
    spec = disc.UrnSpec(config.urn_f, value=config.urn_value,
                        table=config.urn_table, red0=config.urn_red0,
                        total0=config.urn_total0)
    if config.trials < 1:
        raise ValueError("need at least one trial")
    n_end = config.urn_total0 + config.steps
    seeds = trial_seeds(config.seed, config.trials)
    finals = disc.urn_final_batch(spec, n_end, seeds)
    audit = disc.urn_as_sgd_check(spec, min(n_end, config.urn_total0 + 1000),
                                  seeds[0])
    return UrnOutput(n_trials=config.trials,
                     final_mean=float(finals.mean()),
                     final_std=float(finals.std(ddof=1)) if len(finals) > 1 else 0.0,
                     near_half_fraction=float((np.abs(finals - 0.5) < 0.05).mean()),
                     decomposition_max_gap=audit.max_abs_gap,
                     decomposition_first_divergence=audit.first_divergence)
