"""Trajectory classification, seeded Monte Carlo estimation and closed forms.

Finite-horizon surrogate for the asymptotic events: a path is Escaped once
it ever exceeds the barrier B, ConvergedToZero if it stayed within the band
|x| < eps through the whole tail fraction of the horizon, and Undecided
otherwise.  Outcome probabilities are reported with Wilson score intervals,
which stay meaningful at the p = 0 and p = 1 ends where the dichotomy
checks live.

Closed forms from the linear case (exponential clock, drift k|x|):

    never-return:  alpha = 2 P(N(0, s2) > -e^{ks} x_s),  s2 = e^{2s(k-1/2)}/(1-2k)
    remaining variance of int_s^inf e^{-u(k+1/2)} dB_u:  e^{-s(2k+1)}/(2k+1)
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .rng import derive_seed

__all__ = [
    "Outcome",
    "ClassifierConfig",
    "MCResult",
    "tail_start",
    "trial_seeds",
    "classify",
    "classify_stats",
    "wilson_interval",
    "block_width",
    "estimate_probability",
    "never_return_alpha",
    "remaining_variance",
    "moment_compare",
    "MomentReport",
]

# None until replaced: estimate_probability imports the pool where it starts
# one, because importing concurrent.futures.process costs every command about
# 17 ms of start-up; the benchmark's tracer and the tests replace this name
ProcessPoolExecutor = None


class Outcome(enum.Enum):
    CONVERGED = "converged"
    ESCAPED = "escaped"
    UNDECIDED = "undecided"


def tail_start(t0: float, t_end: float, tail_fraction: float) -> float:
    """Start of the tail window: the last tail_fraction of [t0, t_end]."""
    return t0 + (1.0 - tail_fraction) * (t_end - t0)


@dataclass(frozen=True)
class ClassifierConfig:
    """Band half-width, escape barrier and the tail fraction of the horizon
    over which the band must hold."""

    eps_conv: float = 0.02
    barrier: float = 3.0
    tail_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.eps_conv < self.barrier:
            raise ValueError("need 0 < eps_conv < barrier")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")

    def tail_start(self, t0: float, t_end: float) -> float:
        return tail_start(t0, t_end, self.tail_fraction)


def classify(traj, cfg: ClassifierConfig) -> Outcome:
    """Pure function of (trajectory, config); works on continuous and
    discrete trajectories (anything with .times and .values)."""
    t = np.asarray(traj.times, dtype=float)
    v = np.asarray(traj.values, dtype=float)
    # a NaN state leaves the max as it was, as in the batched Extremes
    if np.fmax.reduce(v) > cfg.barrier:
        return Outcome.ESCAPED
    tail = v[t >= cfg.tail_start(t[0], t[-1])]
    if len(tail) and np.max(np.abs(tail)) < cfg.eps_conv:
        return Outcome.CONVERGED
    return Outcome.UNDECIDED


def classify_stats(max_value, tail_abs_max, cfg: ClassifierConfig) -> list[Outcome]:
    """Classify from per-trial running summaries (what the batched runners
    return); agrees with classify() on stored trajectories."""
    out = []
    for mx, ta in zip(np.asarray(max_value), np.asarray(tail_abs_max)):
        if mx > cfg.barrier:
            out.append(Outcome.ESCAPED)
        elif ta < cfg.eps_conv:
            out.append(Outcome.CONVERGED)
        else:
            out.append(Outcome.UNDECIDED)
    return out


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / trials
                                     + z * z / (4 * trials * trials))
    # the score bounds are exactly 0/1 at the extremes; keep them so despite rounding
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return (lo, hi)


@dataclass(eq=True)
class MCResult:
    """Outcome counts; point estimates and Wilson intervals on request.
    paths holds every state of the first trials when the run recorded
    them (see estimate_probability), else None."""

    n_trials: int
    counts: dict
    base_seed: int
    paths: np.ndarray | None = dataclasses.field(default=None, compare=False,
                                                  repr=False)

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.n_trials:
            raise ValueError(f"counts sum to {total}, expected {self.n_trials}")
        for oc in Outcome:
            self.counts.setdefault(oc, 0)

    def estimate(self, outcome: Outcome) -> float:
        return self.counts[outcome] / self.n_trials

    def interval(self, outcome: Outcome, confidence: float = 0.95):
        return wilson_interval(self.counts[outcome], self.n_trials, confidence)


def trial_seeds(base_seed: int, n_trials: int) -> np.ndarray:
    """The one trial-seed rule: trial i runs on derive_seed(base_seed, i)."""
    return derive_seed(base_seed, np.arange(n_trials))


def block_width(n_total: int, jobs: int) -> int:
    """Trials per block: the n_total trials split into one block per
    worker, at most rng.TRIAL_CAP (the widest set the driver steps at
    once) wide.  Every step costs the same fixed overhead whatever its
    width, so a narrower block costs more per trial-step than a worker
    gains by taking another."""
    return min(rng.TRIAL_CAP, math.ceil(n_total / jobs))


def _run_block(args):
    runner, seeds = args
    return runner(seeds)


def _run_block_or_error(args):
    """_run_block's result, or the NonFiniteStateError it raised, so that
    one block's failure leaves the other blocks to run."""
    try:
        return _run_block(args)
    except rng.NonFiniteStateError as exc:
        return exc


def _joined(pieces):
    """The blocks' recorded paths in trial order; None when none recorded."""
    if not pieces:
        return None
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def estimate_probability(runners, n_trials: int, base_seeds, jobs: int = 1):
    """Run n_trials independent trials of each cell and count outcomes.

    runners[i] is a dataclass with a `dump` field that maps an array of
    per-trial seeds to (outcomes, paths): a sequence of Outcomes and the
    recorded paths of its first `dump` trials (None when dump is 0).  Its
    seeds are trial_seeds(base_seeds[i], n_trials), so counts do not
    depend on block boundaries or on how many workers execute them.  Every
    cell's blocks share one pool; one MCResult per cell comes back.

    Each block runs a copy of its runner whose dump is the number of the
    cell's first `dump` trials it holds, so the cell's MCResult carries
    the paths of those trials in trial order.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("need at least one job")
    cells = list(zip(runners, base_seeds))
    width = block_width(len(cells) * n_trials, jobs)
    tasks, owners = [], []
    for cell, (runner, seed) in enumerate(cells):
        seeds = trial_seeds(seed, n_trials)
        for a in range(0, n_trials, width):
            block = dataclasses.replace(runner, dump=min(max(runner.dump - a, 0), width))
            tasks.append((block, seeds[a:a + width]))
            owners.append(cell)
    if jobs > 1 and len(tasks) > 1:
        pool_type = ProcessPoolExecutor
        if pool_type is None:
            from concurrent.futures import ProcessPoolExecutor as pool_type
        # a pool starts all its workers at once, so none beyond the blocks
        with pool_type(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_run_block_or_error, tasks))
    else:
        outcomes = [_run_block_or_error(task) for task in tasks]
    errors = [out for out in outcomes if isinstance(out, rng.NonFiniteStateError)]
    if errors:
        # the first step over all trials, however they are split into blocks
        raise min(errors, key=lambda exc: exc.step_index)
    counts = [{oc: 0 for oc in Outcome} for _ in cells]
    recorded = [[] for _ in cells]
    for cell, (out, paths) in zip(owners, outcomes):
        if paths is not None:
            recorded[cell].append(paths)
        for outcome in out:
            counts[cell][outcome] += 1
    return [MCResult(n_trials=n_trials, counts=c, base_seed=int(seed),
                     paths=_joined(r))
            for c, r, (_, seed) in zip(counts, recorded, cells)]


def never_return_alpha(k: float, s: float, x_s: float) -> float:
    """Probability that the linear negative-branch path from x_s < 0 ever
    hits the origin; requires k in [0, 1/2) (at k >= 1/2 the martingale
    variance diverges and hitting is almost sure)."""
    if not 0.0 <= k < 0.5:
        raise ValueError("closed form needs k in [0, 1/2); "
                         "for k >= 1/2 the hit happens with probability 1")
    if not x_s < 0.0:
        raise ValueError("start must be negative")
    sigma = math.sqrt(math.exp(2.0 * s * (k - 0.5)) / (1.0 - 2.0 * k))
    b = -math.exp(k * s) * x_s
    # 2 P(N(0, sigma^2) > b), computed via erfc for stable tails
    return math.erfc(b / (sigma * math.sqrt(2.0)))


def remaining_variance(k: float, s: float) -> float:
    """Variance of the future noise integral int_s^inf e^{-u(k+1/2)} dB_u."""
    if not k > -0.5:
        raise ValueError("remaining variance is finite only for k > -1/2")
    return math.exp(-s * (2.0 * k + 1.0)) / (2.0 * k + 1.0)


@dataclass(frozen=True)
class MomentReport:
    """z-scores for mean and variance differences between two samples."""

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    mean_z: float
    var_z: float
    threshold: float = 4.0

    @property
    def passed(self) -> bool:
        return abs(self.mean_z) <= self.threshold and abs(self.var_z) <= self.threshold


def moment_compare(samples_a, samples_b, threshold: float = 4.0) -> MomentReport:
    """Two-sample z-tests for mean and variance, pass/fail at `threshold` SE."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both sample sets must be nonempty")
    ma, mb = a.mean(), b.mean()
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se_mean = math.sqrt(va / len(a) + vb / len(b))
    mean_z = 0.0 if se_mean == 0 else (ma - mb) / se_mean
    # SE of the sample variance from the fourth central moment (no normality assumed)
    m4a = ((a - ma) ** 4).mean()
    m4b = ((b - mb) ** 4).mean()
    se_var = math.sqrt(max(m4a - va ** 2, 0.0) / len(a)
                       + max(m4b - vb ** 2, 0.0) / len(b))
    var_z = 0.0 if se_var == 0 else (va - vb) / se_var
    return MomentReport(mean_a=ma, mean_b=mb, var_a=va, var_b=vb,
                        mean_z=mean_z, var_z=var_z, threshold=threshold)
