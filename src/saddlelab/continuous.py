"""Brownian paths, Euler-Maruyama integration and the exactly solvable linear case.

The linear drift k|x| with exponential-clock noise e^{-t/2} solves in closed
form on each sign branch:

    negative branch (x < 0):  X_t = e^{-kt} (e^{ks} X_s + int_s^t e^{u(k-1/2)} dB_u)
    positive branch (x > 0):  X_t = e^{+kt} (e^{-ks} X_s + int_s^t e^{-u(k+1/2)} dB_u)

so marginals are Gaussian with explicit mean factors and integrated
variances, giving an independent oracle for the EM integrator.  Hitting of
the origin reduces to a constant barrier for the Gaussian martingale
G_t = int_s^t e^{u(k-1/2)} dB_u, which is a Brownian motion run at the clock
tau(t) = <G>_t; crossing probabilities between sample nodes then have the
closed Brownian-bridge form exp(-2 a b / dtau), so the Monte Carlo hitting
frequency is unbiased for the continuous-time event.

Batched Monte Carlo runs and single trajectories are all stepped by
rng.drive with one update, so a trial produces bit-identical values however
the work is partitioned.  The discrete recursion is this EM on the raw clock
at unit steps, with its bounded noise in place of the Brownian increments
(see discrete.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .model import POWER_GAMMA, NoiseSchedule, ProcessSpec, drift_eval
from .rng import (Extremes, FirstViolation, NonFiniteStateError, Record,
                  derive_seed, drive, make_rng)

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "Trajectory",
    "NonFiniteStateError",
    "brownian_increments",
    "simulate_em",
    "simulate_coupled",
    "quadratic_variation",
    "linear_exact_batch",
    "linear_hit_zero_mc",
    "em_batch",
    "coupled_violations_batch",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t_end]; a non-commensurate horizon gets a short
    final step and is flagged."""

    t0: float
    t_end: float
    dt: float

    def __post_init__(self):
        for name in ("t0", "t_end", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")

    def _n_full(self) -> int:
        return int(math.floor((self.t_end - self.t0) / self.dt + 1e-9))

    @property
    def short_last_step(self) -> bool:
        rem = (self.t_end - self.t0) - self._n_full() * self.dt
        return rem > 1e-9 * self.dt

    @property
    def n_steps(self) -> int:
        return self._n_full() + (1 if self.short_last_step else 0)

    def times(self) -> np.ndarray:
        """The nodes t0 + dt i, i = 0..n_steps, with t_end last, in one array."""
        t = np.arange(self.n_steps + 1, dtype=float)
        t *= self.dt
        t += self.t0
        t[-1] = self.t_end
        return t

    def step_sizes(self) -> np.ndarray:
        return np.diff(self.times())


@dataclass(eq=False)
class BrownianPath:
    """Independent N(0, dt_i) increments along a grid, deterministic in seed."""

    grid: TimeGrid
    increments: np.ndarray

    def __post_init__(self):
        if len(self.increments) != self.grid.n_steps:
            raise ValueError("increment count does not match grid")

    @classmethod
    def zeros(cls, grid: TimeGrid) -> "BrownianPath":
        """Noise-free path, for ODE-reduction checks."""
        return cls(grid=grid, increments=np.zeros(grid.n_steps))


@dataclass(eq=False)
class Trajectory:
    """The states of one path and their times on the run's own clock: the
    grid times of an SDE path, or n for the recursion and the urn."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")


def brownian_increments(grid: TimeGrid, seed: int) -> BrownianPath:
    """Draw the N(0, dt) increments for a grid from the seed's stream, the
    same draws em_batch makes for that seed."""
    z = make_rng(seed).standard_normal(grid.n_steps)
    dw = z * np.sqrt(grid.step_sizes())
    return BrownianPath(grid=grid, increments=dw)


def _em_coefficients(noise: NoiseSchedule, grid: TimeGrid):
    """Per-step drift weight w*dt along the grid, and the per-step factors
    that, applied in order, turn a step's standard draw z into its noise
    term: sqrt(dt), then g, giving (z sqrt(dt)) g, which equals g (z
    sqrt(dt)) bit for bit.  Raises unless the grid starts where the
    schedule is defined.

    On a grid of unit steps from a whole t0 (the recursion's), every
    dt_i is exactly 1, so w dt is w and sqrt(dt) is left out; on the raw
    clock w and g are then one t^-gamma array, raised in place."""
    if grid.t0 < noise.min_t0:
        raise ValueError(f"grid starts before t0 = {noise.min_t0} "
                         f"allowed by schedule {noise.kind!r}")
    if (noise.kind == POWER_GAMMA and grid.dt == 1.0
            and float(grid.t0).is_integer()
            and grid.t_end == grid.t0 + grid.n_steps):
        w = grid.times()[:-1]
        w **= -noise.gamma
        return w, (w,)
    t = grid.times()
    dt = np.diff(t)  # grid.step_sizes(), without building the times again
    wdt = np.asarray(noise.drift_weight(t[:-1]), dtype=float) * dt
    g = np.asarray(noise.g(t[:-1]), dtype=float)
    return wdt, (np.sqrt(dt), g)


def _standard_normal(gen: np.random.Generator, out: np.ndarray) -> None:
    gen.standard_normal(out=out)


def _em_drive(spec: ProcessSpec, grid: TimeGrid, observers, seeds=None,
              increments=None, barrier: float | None = None,
              sample=_standard_normal) -> np.ndarray:
    """EM states x_{i+1} = x_i + (f(x_i) w dt_i + g dW_i), one trial per
    seed (or per row of increments), stepped by the driver in place, with
    each product and sum in that order.  A seed's stream is drawn by
    sample (standard normals: Brownian increments) and scaled by sqrt(dt)
    and then g as it is drawn; given increments are the g dW_i already."""
    wdt, scale = _em_coefficients(spec.noise, grid)
    drift = spec.drift

    def update(x, step, noise):
        # a 0-d view of the step's weight: numpy takes it faster than a float
        d = drift_eval(drift, x)
        d *= wdt[step, ...]
        d += noise
        x += d

    n_trials = len(seeds) if increments is None else len(increments)
    return drive(np.full(n_trials, float(spec.x0)), grid.n_steps, update,
                 observers, seeds=seeds, sample=sample, scale=scale,
                 increments=increments, barrier=barrier)


def _path_noise(noise: NoiseSchedule, grid: TimeGrid,
                path: BrownianPath) -> np.ndarray:
    """The path's noise terms g dW_i as one trial's row, once the path fits
    the grid and the grid the schedule: its increments times g, as a batch
    scales its draws."""
    if path.grid != grid:
        raise ValueError("path was drawn on a different grid")
    _, scale = _em_coefficients(noise, grid)
    return (path.increments * scale[-1]).reshape(1, -1)  # scale ends with g


def simulate_em(spec: ProcessSpec, grid: TimeGrid, path: BrownianPath) -> Trajectory:
    """Euler-Maruyama: x_{i+1} = x_i + f(x_i) w(t_i) dt_i + g(t_i) dW_i.

    w is the schedule's drift weight (t^-gamma on the raw clock, 1 on the
    transformed clocks).  Raises NonFiniteStateError with the offending
    step index if the state leaves the floating-point range.
    """
    record = Record((1,), grid.n_steps)
    _em_drive(spec, grid, [record],
              increments=_path_noise(spec.noise, grid, path))
    return Trajectory(grid.times(), record.value[0])


def em_batch(spec: ProcessSpec, grid: TimeGrid, seeds,
             tail_start: float | None = None,
             barrier: float | None = None,
             record: Record | None = None) -> Extremes:
    """One EM trajectory per seed, stepped together across trials; returns
    each trial's running extremes over the grid's times, with the tail
    from tail_start on (the whole path when None), and its final state.

    Each trial draws its own stream exactly as brownian_increments +
    simulate_em would, so per-seed results do not depend on how trials are
    grouped or scheduled.  With a barrier the run classifies (see
    rng.drive): a trial whose max passed the barrier retires at the next
    chunk end, and its final and tail_abs_max are its values at
    retirement.  A `record` receives every state of its leading trials,
    which are stepped to the horizon: row i is simulate_em's values on
    brownian_increments(grid, seeds[i]).
    """
    seeds = np.asarray(list(seeds), dtype=np.uint64)
    extremes = Extremes(len(seeds), grid.times(), tail_start)
    observers = [extremes] if record is None else [extremes, record]
    extremes.final = _em_drive(spec, grid, observers, seeds=seeds,
                               barrier=barrier)
    return extremes


def _coupled_drive(spec_a: ProcessSpec, spec_b: ProcessSpec, x0_a: float,
                   x0_b: float, grid: TimeGrid, observers, seeds=None,
                   increments=None) -> np.ndarray:
    """EM pairs driven by one noise per trial (a seed, or a row of
    increments, each the g dW_i of _em_drive): row 0 of the state runs
    spec_a's drift from x0_a, row 1 spec_b's from x0_b, each with
    _em_drive's update."""
    if spec_a.noise != spec_b.noise:
        raise ValueError("coupled processes must share one noise schedule")
    wdt, scale = _em_coefficients(spec_a.noise, grid)
    drift_a, drift_b = spec_a.drift, spec_b.drift

    def update(x, step, noise):
        w = wdt[step, ...]
        for row, drift in ((x[0], drift_a), (x[1], drift_b)):
            d = drift_eval(drift, row)
            d *= w
            d += noise
            row += d

    state = np.empty((2, len(seeds) if increments is None else len(increments)))
    state[0], state[1] = x0_a, x0_b
    return drive(state, grid.n_steps, update, observers, seeds=seeds,
                 sample=_standard_normal, scale=scale, increments=increments)


def simulate_coupled(spec_a: ProcessSpec, spec_b: ProcessSpec,
                     x0_a: float, x0_b: float,
                     grid: TimeGrid, path: BrownianPath) -> tuple[Trajectory, Trajectory]:
    """Two EM trajectories driven by the identical Brownian increments; the
    pair equals coupled_violations_batch's trial on the same noise."""
    record = Record((2, 1), grid.n_steps)
    _coupled_drive(spec_a, spec_b, x0_a, x0_b, grid, [record],
                   increments=_path_noise(spec_a.noise, grid, path))
    times = grid.times()
    return Trajectory(times, record.value[0, 0]), Trajectory(times, record.value[1, 0])


def coupled_violations_batch(spec_a: ProcessSpec, spec_b: ProcessSpec,
                             x0_a: float, x0_b: float, grid: TimeGrid,
                             seeds) -> np.ndarray:
    """First node index where the A >= B ordering fails, per trial (-1: none)."""
    seeds = np.asarray(list(seeds), dtype=np.uint64)
    first = FirstViolation(len(seeds))
    _coupled_drive(spec_a, spec_b, x0_a, x0_b, grid, [first], seeds=seeds)
    return first.value


def quadratic_variation(schedule: NoiseSchedule, s: float, t: float) -> float:
    """Closed-form int_s^t g(u)^2 du; t may be inf when the tail integrates."""
    if not math.isinf(t) and t < s:
        raise ValueError("need t >= s")
    if s < schedule.min_t0:
        raise ValueError(f"s below domain start {schedule.min_t0} of {schedule.kind!r}")
    if t == s:
        return 0.0
    if schedule.kind == "exp_half":
        upper = 0.0 if math.isinf(t) else math.exp(-t)
        return math.exp(-s) - upper
    if schedule.kind == "power_gamma":
        expo = 1.0 - 2.0 * schedule.gamma          # < 0 on (1/2, 1]
    else:                                          # power_transformed
        expo = (1.0 - 2.0 * schedule.gamma) / (1.0 - schedule.gamma)
    if expo >= -1e-12 and math.isinf(t):
        raise ValueError("infinite remaining variance: g^2 is not integrable")
    upper = 0.0 if math.isinf(t) else t ** expo
    return (s ** expo - upper) / (-expo)


def _branch_coefficients(k: float, regime: str, times: np.ndarray):
    """Per-interval mean factor and noise std of the branch solution."""
    t = np.asarray(times, dtype=float)
    lo, hi = t[:-1], t[1:]
    if regime == "negative":
        mean = np.exp(-k * (hi - lo))
        var = np.exp(-2.0 * k * hi) * gaussian_clock(k, lo, hi)
    elif regime == "positive":
        mean = np.exp(k * (hi - lo))
        a = 2.0 * k + 1.0
        var_g = (np.exp(-a * lo) - np.exp(-a * hi)) / a
        var = np.exp(2.0 * k * hi) * var_g
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return mean, np.sqrt(np.maximum(var, 0.0))


def linear_exact_batch(k: float, regime: str, x_s, s: float,
                       times, n_paths: int, seed: int):
    """Exact Gaussian sampling of the branch solution at the query times.

    x_s may be a scalar (all paths share the start) or an array of
    per-path starts.  Returns (values, first_crossing): values has shape
    (n_paths, len(times)); first_crossing holds the first node index where
    each path leaves the branch's half-line (-1 if it never does).  The
    full signed path is returned; the |x|-drift reading is valid before
    the crossing and the caller truncates there when that is intended.
    """
    times = np.asarray(times, dtype=float)
    if not len(times):
        raise ValueError("need at least one query time")
    if times[0] < s:
        raise ValueError("query times must start at or after s")
    if np.any(np.diff(times) <= 0):
        raise ValueError("query times must be strictly increasing")
    full = np.concatenate(([s], times))
    mean, std = _branch_coefficients(k, regime, full)
    gen = make_rng(seed)
    values = np.empty((n_paths, len(times)))
    x = np.broadcast_to(np.asarray(x_s, dtype=float), (n_paths,)).copy()
    for j in range(len(times)):
        x = mean[j] * x + std[j] * gen.standard_normal(n_paths)
        values[:, j] = x
    if regime == "negative":
        crossed = values >= 0.0
    else:
        crossed = values <= 0.0
    any_cross = crossed.any(axis=1)
    first = np.where(any_cross, crossed.argmax(axis=1), -1)
    return values, first.astype(np.int64)


def gaussian_clock(k: float, s, t) -> np.ndarray:
    """tau(t) = <G>_t for G_t = int_s^t e^{u(k-1/2)} dB_u (limit form at
    k=1/2); s and t may be arrays of interval ends."""
    t = np.asarray(t, dtype=float)
    a = 2.0 * (k - 0.5)
    if abs(a) < 1e-12:
        return t - s
    return (np.exp(a * t) - np.exp(a * s)) / a


HIT_GRID = 64        # clock steps per path in linear_hit_zero_mc
HIT_BLOCK = 20_000   # paths per generator (one derived seed each)


def linear_hit_zero_mc(k: float, x_s: float, s: float, t_end: float,
                       n_paths: int, seed: int) -> tuple[int, int]:
    """Count paths from x_s < 0 that hit the origin by t_end, out of n_paths.

    The origin is the constant barrier b = -e^{ks} x_s for the Gaussian
    martingale G, simulated on a uniform clock grid with the exact bridge
    crossing probability applied between nodes; node-only detection would
    undercount by O(sqrt(dtau)), far more than the Monte Carlo error here.
    """
    if x_s >= 0:
        raise ValueError("hitting probe starts from a negative state")
    if n_paths < 0:
        raise ValueError("n_paths must be non-negative")
    b = -math.exp(k * s) * x_s
    tau_end = float(gaussian_clock(k, s, t_end))
    dtau = tau_end / HIT_GRID
    sqrt_dtau = math.sqrt(dtau)
    # one array of at most TRIAL_CAP paths' draws, reused: first each
    # sub-block's walk increments, then the bridge uniforms of the paths
    # that stayed below b, sub-block by sub-block in path order.  A stream
    # is read as by two requests, all its normals and then all its
    # uniforms, so the count does not depend on TRIAL_CAP.  The scaled
    # increments are summed step-major in a second array of HIT_GRID x
    # TRIAL_CAP doubles (512 KiB): each node is the row before it plus its
    # own, the left-to-right sum np.cumsum along a path takes, so every
    # node is bit for bit the same.  In between, the bridge probabilities
    # of a generator's surviving paths are kept, step-major: survivors x
    # HIT_GRID doubles, up to a whole HIT_BLOCK x HIT_GRID block when
    # almost no path crosses at a node.
    width = rng.TRIAL_CAP
    buffer = np.empty((min(width, n_paths), HIT_GRID))
    walk = np.empty((HIT_GRID, min(width, n_paths)))
    hits = 0
    for batch_index, done in enumerate(range(0, n_paths, HIT_BLOCK)):
        m = min(HIT_BLOCK, n_paths - done)
        gen = make_rng(derive_seed(seed, batch_index))
        p_bridges = []
        for lo in range(0, m, width):
            z = buffer[:min(width, m - lo)]
            gen.standard_normal(out=z)
            w = walk[:, :len(z)]
            np.multiply(z.T, sqrt_dtau, out=w)
            for j in range(1, HIT_GRID):
                w[j] += w[j - 1]
            crossed = np.maximum.reduce(w, axis=0) >= b
            hits += int(crossed.sum())
            alive = np.flatnonzero(~crossed)
            if len(alive):
                # gap[j] = b - w at node j + 1; at node 0, w = 0 and b - 0 = b
                gap = w[:, alive]
                np.subtract(b, gap, out=gap)
                expo = np.empty_like(gap)
                expo[0] = -2.0 * b
                np.multiply(-2.0, gap[:-1], out=expo[1:])
                expo *= gap
                expo /= dtau
                p_bridges.append(np.exp(expo, out=expo))
        for p_bridge in p_bridges:
            u = buffer[:p_bridge.shape[1]]
            gen.random(out=u)
            hits += int((u < p_bridge.T).any(axis=1).sum())
    return hits, n_paths
