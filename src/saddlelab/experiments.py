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
* monomial (continuous) and the discrete recursion: converging paths track
  the mean flow, so the band is a small multiple of |h(tail start)|,
  clipped at 0.1 to stay well under the barrier.

Experiment runners are plain frozen dataclasses mapping a block of trial
seeds to outcomes, so they pickle cleanly onto worker processes.  A runner
also records the paths behind those outcomes (`paths`) and names the model
whose prediction applies (`model`).
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
from .rng import derive_seed

__all__ = [
    "ExperimentConfig",
    "linear_classifier",
    "monomial_classifier",
    "discrete_classifier",
    "ContinuousDichotomyRunner",
    "DiscreteDichotomyRunner",
    "run_dichotomy",
    "run_urn_experiment",
    "phase_sweep",
]


def linear_classifier(k: float, x0: float, t0: float, t_end: float,
                      tail_fraction: float = 0.2,
                      eps_conv: float | None = None,
                      barrier: float | None = None) -> ClassifierConfig:
    """Classifier defaults for the exponential-clock linear experiment."""
    if k >= 0.5:
        barrier = abs(x0) if barrier is None else barrier
        eps = barrier / 100.0 if eps_conv is None else eps_conv
    else:
        barrier = 3.0 if barrier is None else barrier
        if eps_conv is None:
            t_tail = tail_start(t0, t_end, tail_fraction)
            sigma_inf = math.sqrt(1.0 / (1.0 - 2.0 * k))
            eps = min(3.0 * sigma_inf * math.exp(-k * t_tail), 0.9 * barrier)
        else:
            eps = eps_conv
    return ClassifierConfig(eps_conv=eps, barrier=barrier,
                            tail_fraction=tail_fraction)


def monomial_classifier(k: float, t0: float, t_end: float,
                        tail_fraction: float = 0.2,
                        eps_conv: float | None = None,
                        barrier: float | None = None) -> ClassifierConfig:
    """Band scaled to the mean-flow magnitude |h| at the tail start."""
    barrier = 3.0 if barrier is None else barrier
    if eps_conv is None:
        t_tail = tail_start(t0, t_end, tail_fraction)
        eps_conv = min(2.5 * t_tail ** (1.0 / (1.0 - k)), 0.1)
    return ClassifierConfig(eps_conv=eps_conv, barrier=barrier,
                            tail_fraction=tail_fraction)


def discrete_classifier(k: float, gamma: float, n0: int, n_end: int,
                        tail_fraction: float = 0.2,
                        eps_conv: float | None = None,
                        barrier: float | None = None) -> ClassifierConfig:
    """Band scaled to the discrete mean flow (1-gamma) n^{-(1-gamma)}."""
    barrier = 3.0 if barrier is None else barrier
    if eps_conv is None:
        n_tail = tail_start(n0, n_end, tail_fraction)
        eps_conv = min(3.0 * (1.0 - gamma) * n_tail ** (-(1.0 - gamma)), 0.1)
    return ClassifierConfig(eps_conv=eps_conv, barrier=barrier,
                            tail_fraction=tail_fraction)


@dataclass(frozen=True)
class ContinuousDichotomyRunner:
    """EM trials of one SDE instance, classified from their running stats."""

    spec: ProcessSpec
    t_end: float
    dt: float
    cfg: ClassifierConfig

    @property
    def model(self) -> str:
        return self.spec.drift.family

    @property
    def grid(self) -> cont.TimeGrid:
        return cont.TimeGrid(self.spec.t0, self.t_end, self.dt)

    def __call__(self, seeds):
        stats = cont.em_batch(self.spec, self.grid, seeds,
                              tail_start=self.cfg.tail_start(self.spec.t0, self.t_end))
        return classify_stats(stats.max_value, stats.tail_abs_max, self.cfg)

    def paths(self, seeds) -> dict:
        """The grid times and every state of one trial per seed."""
        return {"times": self.grid.times(),
                **_trial_arrays(cont.em_paths(self.spec, self.grid, seeds))}


@dataclass(frozen=True)
class DiscreteDichotomyRunner:
    """Trials of one discrete recursion, classified from their running stats."""

    drift: DriftSpec
    noise: disc.NoiseSpec
    gamma: float
    x0: float
    n0: int
    n_end: int
    cfg: ClassifierConfig
    model = "discrete"

    def __call__(self, seeds):
        stats = disc.sgd_batch(self.drift, self.gamma, self.noise, self.x0,
                               self.n0, self.n_end, seeds,
                               tail_start=self.cfg.tail_start(self.n0, self.n_end))
        return classify_stats(stats.max_value, stats.tail_abs_max, self.cfg)

    def paths(self, seeds) -> dict:
        """Every state X_{n0..n_end} of one trial per seed."""
        return _trial_arrays(disc.sgd_paths(self.drift, self.gamma, self.noise,
                                            self.x0, self.n0, self.n_end, seeds))


def _trial_arrays(paths) -> dict:
    return {f"trial_{i}": path for i, path in enumerate(paths)}


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
        d = dataclasses.asdict(self)
        d["k_values"] = list(self.k_values)
        d["gamma_values"] = list(self.gamma_values)
        d["urn_table"] = list(self.urn_table)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        data = dict(data)
        for key in ("k_values", "gamma_values", "urn_table"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)


@dataclass(eq=False)
class DichotomyOutput:
    config: ExperimentConfig
    runner: ContinuousDichotomyRunner | DiscreteDichotomyRunner
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


def _build_runner(config: ExperimentConfig, k: float, gamma: float):
    """The runner of one cell: its model's spec, hypotheses and classifier.
    Each spec is built before the classifier, so DriftSpec's k bound is
    the one that rejects k."""
    kind = _runner_kind(config)
    if kind == "discrete":
        drift = DriftSpec("monomial", k, config.c, config.cap)
        if not 0.5 < gamma < 1.0:
            raise ValueError("discrete dichotomy requires gamma in (1/2, 1) "
                             "(step-size hypothesis)")
        n_end = config.n0 + config.steps
        cfg = discrete_classifier(k, gamma, config.n0, n_end,
                                  config.tail_fraction, config.eps_conv,
                                  config.barrier)
        return DiscreteDichotomyRunner(
            drift=drift, noise=disc.NoiseSpec(config.noise, config.noise_bound),
            gamma=gamma, x0=config.x0, n0=config.n0, n_end=n_end, cfg=cfg)
    if kind == "linear":
        spec = ProcessSpec(DriftSpec("linear", k), NoiseSchedule("exp_half"),
                           t0=config.t0, x0=config.x0)
        cfg = linear_classifier(k, config.x0, config.t0, config.horizon,
                                config.tail_fraction, config.eps_conv,
                                config.barrier)
    else:
        drift = DriftSpec("monomial", k, config.c, config.cap)
        if not 0.5 < gamma < 1.0:
            raise ValueError("continuous power-clock dichotomy requires "
                             "gamma in (1/2, 1); gamma = 1 is the linear "
                             "exponential-clock regime")
        schedule = NoiseSchedule("power_gamma" if config.raw_frame
                                 else "power_transformed", gamma)
        spec = ProcessSpec(drift, schedule, t0=config.t0, x0=config.x0)
        cfg = monomial_classifier(k, config.t0, config.horizon,
                                  config.tail_fraction, config.eps_conv,
                                  config.barrier)
    return ContinuousDichotomyRunner(spec=spec, t_end=config.horizon,
                                     dt=config.dt, cfg=cfg)


def run_dichotomy(config: ExperimentConfig, k: float | None = None,
                  gamma: float | None = None,
                  base_seed: int | None = None) -> DichotomyOutput:
    """Run one dichotomy cell: N classified trials plus the regime prediction."""
    k = config.k if k is None else k
    gamma = config.gamma if gamma is None else gamma
    base_seed = config.seed if base_seed is None else base_seed
    runner = _build_runner(config, k, gamma)
    result = estimate_probability(runner, config.trials, base_seed,
                                  jobs=config.jobs)
    prediction, boundary = predict_regime(runner.model, k, gamma)
    return DichotomyOutput(config=config, runner=runner, result=result,
                           k=k, gamma=gamma, prediction=prediction,
                           boundary=boundary)


def phase_sweep(config: ExperimentConfig) -> list[DichotomyOutput]:
    """One DichotomyOutput per (k, gamma) grid point, row-major over k then
    gamma.

    Cell seeds derive from (base seed, cell index), so the table is
    reproducible cell-by-cell and independent of worker count.
    """
    sweep_cfg = dataclasses.replace(config, kind="sweep")
    cells = [(k, gamma) for k in config.k_values for gamma in config.gamma_values]
    return [run_dichotomy(sweep_cfg, k=k, gamma=gamma,
                          base_seed=derive_seed(config.seed, index))
            for index, (k, gamma) in enumerate(cells)]


@dataclass(eq=False)
class UrnOutput:
    config: ExperimentConfig
    spec: disc.UrnSpec
    n_trials: int
    final_mean: float
    final_std: float
    near_half_fraction: float
    decomposition_max_gap: float


def run_urn_experiment(config: ExperimentConfig) -> UrnOutput:
    """Urn Monte Carlo: final-fraction statistics plus a pathwise
    decomposition audit on the first trial's seed."""
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
    return UrnOutput(config=config, spec=spec, n_trials=config.trials,
                     final_mean=float(finals.mean()),
                     final_std=float(finals.std(ddof=1)) if len(finals) > 1 else 0.0,
                     near_half_fraction=float((np.abs(finals - 0.5) < 0.05).mean()),
                     decomposition_max_gap=audit.max_abs_gap)
