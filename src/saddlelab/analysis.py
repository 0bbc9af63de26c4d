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

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

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
    "estimate_probability",
    "never_return_alpha",
    "remaining_variance",
    "moment_compare",
    "MomentReport",
    "verify_dominance",
    "DominanceReport",
]

_NORMAL = NormalDist()

TRIAL_BLOCK = 256  # fixed partition width; jobs only changes concurrency


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
    if np.max(v) > cfg.barrier:
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
    z = _NORMAL.inv_cdf(0.5 + confidence / 2.0)
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
    """Outcome counts; point estimates and Wilson intervals on request."""

    n_trials: int
    counts: dict
    base_seed: int

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
    return np.array([derive_seed(base_seed, i) for i in range(n_trials)],
                    dtype=np.uint64)


def _run_block(args):
    runner, seeds = args
    return runner(seeds)


def estimate_probability(runner, n_trials: int, base_seed: int,
                         jobs: int = 1) -> MCResult:
    """Run n_trials independent trials and count outcomes.

    runner maps an array of per-trial seeds to a sequence of Outcomes; the
    seeds are trial_seeds(base_seed, n_trials), so counts do not depend on
    block boundaries or on how many workers execute them.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    seeds = trial_seeds(base_seed, n_trials)
    blocks = [seeds[a:a + TRIAL_BLOCK] for a in range(0, n_trials, TRIAL_BLOCK)]
    if jobs > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_block, [(runner, b) for b in blocks]))
    else:
        results = [_run_block((runner, b)) for b in blocks]
    counts = {oc: 0 for oc in Outcome}
    for block in results:
        for outcome in block:
            counts[outcome] += 1
    return MCResult(n_trials=n_trials, counts=counts, base_seed=int(base_seed))


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


@dataclass(frozen=True)
class DominanceReport:
    """Pathwise ordering check for a coupled pair sharing one noise path."""

    n_nodes: int
    tie: bool
    first_violation: int | None
    max_shortfall: float
    lipschitz_bound: float | None
    step_lipschitz: float | None
    monotone_precondition_ok: bool | None

    @property
    def ordered(self) -> bool:
        return self.first_violation is None


def verify_dominance(traj_a, traj_b, drift_a=None, drift_b=None,
                     dt: float | None = None) -> DominanceReport:
    """Report the first node where values_a >= values_b fails, plus the
    step-size margin: the EM step map is monotone when Lip(f) * dt <= 1/2,
    which is what guarantees ordering is preserved exactly."""
    va = np.asarray(traj_a.values, dtype=float)
    vb = np.asarray(traj_b.values, dtype=float)
    if len(va) != len(vb):
        raise ValueError("trajectories must share the grid")
    diff = va - vb
    bad = np.flatnonzero(diff < 0.0)
    first = int(bad[0]) if len(bad) else None
    shortfall = float(-diff.min()) if len(bad) else 0.0
    tie = bool(np.all(diff == 0.0))
    lip = None
    step_lip = None
    precondition = None
    if drift_a is not None and drift_b is not None:
        reach = float(max(np.abs(va).max(), np.abs(vb).max()))
        lip = max(drift_a.slope_bound(reach), drift_b.slope_bound(reach))
        if dt is None and getattr(traj_a, "grid", None) is not None:
            dt = traj_a.grid.dt
        if dt is not None:
            step_lip = lip * dt
            precondition = step_lip <= 0.5
    return DominanceReport(n_nodes=len(va), tie=tie, first_violation=first,
                           max_shortfall=shortfall, lipschitz_bound=lip,
                           step_lipschitz=step_lip,
                           monotone_precondition_ok=precondition)
