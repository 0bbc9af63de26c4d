"""Discrete stochastic-approximation recursion, bounded noise and the urn process.

The canonical recursion is

    X_{n+1} = X_n + f(X_n)/n^gamma + Y_{n+1}/n^gamma,   gamma in (1/2, 1),

with Y a martingale difference, |Y| <= M almost surely and conditional
variance at least l.  It is Euler-Maruyama for dX = f(X)/t^gamma dt +
1/t^gamma dB on the raw clock at unit steps: the step at t = n with dt = 1,
with the bounded Y_{n+1} in place of the Brownian increment.  So it runs
on continuous._em_drive, with NoiseSchedule("power_gamma", gamma) on the
unit grid from n0 and NoiseSpec.fill drawing Y.  The urn process

    X_{n+1} = (n X_n + 1)/(n + 1)  w.p. f(X_n),  else  n X_n/(n + 1)

is the same recursion in disguise: the step splits into the drift
A_n = (f(X_n) - X_n)/(n+1) and the centered noise g_n/(n+1) where
g_n = 1 - f(X_n) on an add-red step and -f(X_n) otherwise.

The discrete mean-flow normalization is h(n) = -n^{(1-gamma)/(1-k)} with
Z_n = -X_n/h(n); the step-size correction

    a_n = (1/h(n+1) - 1/h(n)) * (k-1)/(1-gamma) * h(n+1) * n^gamma / |h(n)|^{k-1}

uses the exact finite difference of 1/h (no mean-value point to choose)
and tends to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuous import TimeGrid, Trajectory, _em_drive
from .model import (POWER_GAMMA, DriftSpec, MeanFlowFrame, NoiseSchedule,
                    ProcessSpec, _operand, mean_flow_h)
# not called here (the recursion steps in continuous), but bench/tracing.py
# wraps drift_eval on this module as on the others that import it
from .model import drift_eval  # noqa: F401
from .rng import (NOISE_CHUNK, Extremes, Record, chunk_ranges, drive, make_rng,
                  stream_keys)

__all__ = [
    "NoiseSpec",
    "UrnSpec",
    "UrnSgdReport",
    "simulate_sgd",
    "sgd_batch",
    "simulate_urn",
    "urn_final_batch",
    "urn_as_sgd_check",
    "z_diagnostics",
    "step_correction",
]

RADEMACHER = "rademacher"
UNIFORM_CENTERED = "uniform_centered"

# the Rademacher fill's constants as read-only 0-d arrays, which numpy
# takes faster than Python floats (the bits and values are the same)
_HALF, _TWO, _ONE = _operand(0.5, np.float32), _operand(2.0), _operand(1.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded martingale-difference noise: |Y| <= M a.s., E[Y|past] = 0.

    rademacher takes values +-M with equal probability (variance floor M^2,
    the extremal case); uniform_centered is uniform on [-M, M] (floor
    M^2/3).  The urn's state-dependent noise g_n is realized inside the urn
    simulation, not here.
    """

    family: str
    M: float = 1.0

    def __post_init__(self):
        if self.family not in (RADEMACHER, UNIFORM_CENTERED):
            raise ValueError(f"unknown noise family {self.family!r}")
        if not self.M > 0:
            raise ValueError("noise bound M must be positive")

    @property
    def variance_floor(self) -> float:
        if self.family == RADEMACHER:
            return self.M ** 2
        return self.M ** 2 / 3.0

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Write the next len(out) values of rng's noise stream into out, in
        place and bit for bit as (2 B - 1) M for fair bits B, or as
        rng.uniform(-M, M), which computes -M + 2M u.

        B is the bit rng.integers(0, 2) draws.  That call and a float32
        uniform each take one 32-bit half of PCG64's output per value, in
        the same order, and both take first the half an odd-length request
        left buffered.  integers keeps the half's top bit (Lemire's
        multiply-shift by 2), and the float32 uniform (half >> 8) 2^-24 is
        at least 1/2 exactly when that bit is set; the uniform is the
        cheaper call.  Its constants are 0-d operands (_HALF is float32, so
        the uniforms are compared in float32 as against 0.5).  Reading
        PCG64's raw words would be cheaper still, but a draw that bypasses
        the Generator's methods is one that a tracer wrapping them cannot
        count."""
        if self.family == RADEMACHER:
            out[...] = rng.random(len(out), dtype=np.float32) >= _HALF
            out *= _TWO
            out -= _ONE
            if self.M != 1.0:  # v * 1.0 == v
                out *= self.M
        else:
            rng.random(out=out)
            out *= 2.0 * self.M
            out += -self.M


def _as_em(drift: DriftSpec, gamma: float, x0: float, n0: int,
           n_end: int) -> tuple[ProcessSpec, TimeGrid]:
    """The recursion from X_{n0} = x0 to n_end as raw-clock EM: its spec,
    f with g(t) = t^-gamma from t0 = n0, and its unit grid."""
    if not 0.5 < gamma < 1.0:
        raise ValueError("discrete recursion requires gamma in (1/2, 1)")
    if not (n0 >= 1 and n_end > n0):
        raise ValueError("need n0 >= 1 and n_end > n0")
    return (ProcessSpec(drift, NoiseSchedule(POWER_GAMMA, gamma), t0=n0, x0=x0),
            TimeGrid(n0, n_end, 1.0))


def _em_noise(noise: NoiseSpec | None, seeds, n_steps: int) -> dict:
    """_em_drive's noise for these trials: Y drawn from each seed's stream
    by noise.fill, or zero increments (a broadcast view) for noise=None."""
    if noise is None:
        return {"increments": np.broadcast_to(0.0, (len(seeds), n_steps))}
    return {"seeds": seeds, "sample": noise.fill}


def simulate_sgd(drift: DriftSpec, gamma: float, noise: NoiseSpec | None,
                 x0: float, n0: int, n_end: int, seed: int) -> Trajectory:
    """Run X_{n+1} = X_n + f(X_n)/n^gamma + Y_{n+1}/n^gamma for n = n0..n_end-1;
    the trajectory's times are n = n0..n_end.  noise=None runs the
    noise-free recursion.
    """
    spec, grid = _as_em(drift, gamma, x0, n0, n_end)
    record = Record((1,), grid.n_steps)
    _em_drive(spec, grid, [record], **_em_noise(noise, [seed], grid.n_steps))
    return Trajectory(grid.times(), record.value[0])


def sgd_batch(drift: DriftSpec, gamma: float, noise: NoiseSpec | None, x0: float,
              n0: int, n_end: int, seeds,
              tail_start: float | None = None,
              barrier: float | None = None,
              record: Record | None = None) -> Extremes:
    """One recursion per seed, stepped together; returns each trial's
    running extremes over n = n0..n_end, with the tail from n = tail_start
    on (the whole path when None), and its final state.  Per-seed results
    match simulate_sgd exactly, and noise=None runs the noise-free
    recursion.  With a barrier the run classifies (see rng.drive): a trial
    whose max passed the barrier retires at the next chunk end, and its
    final and tail_abs_max are its values at retirement.  A `record`
    receives every state of its leading trials, which are stepped to
    n_end: row i is simulate_sgd's values at seeds[i]."""
    seeds = np.asarray(list(seeds), dtype=np.uint64)
    spec, grid = _as_em(drift, gamma, x0, n0, n_end)
    extremes = Extremes(len(seeds), grid.times(), tail_start)
    observers = [extremes] if record is None else [extremes, record]
    extremes.final = _em_drive(spec, grid, observers, barrier=barrier,
                               **_em_noise(noise, seeds, grid.n_steps))
    return extremes


@dataclass(frozen=True)
class UrnSpec:
    """Urn feedback f on [0,1] plus the starting ball counts.

    f_kind is one of "constant" (f = value), "identity" (f(x) = x),
    "power" (f(x) = x^value) or "table" (piecewise-linear through `table`
    on a uniform grid over [0,1]).
    """

    f_kind: str
    value: float = 0.5
    table: tuple = ()
    red0: int = 1
    total0: int = 2

    def __post_init__(self):
        if self.f_kind not in ("constant", "identity", "power", "table"):
            raise ValueError(f"unknown urn feedback {self.f_kind!r}")
        if self.f_kind == "constant" and not 0.0 <= self.value <= 1.0:
            raise ValueError("constant feedback must lie in [0, 1]")
        if self.f_kind == "power" and not self.value > 0:
            raise ValueError("power feedback needs a positive exponent")
        if self.f_kind == "table":
            tab = np.asarray(self.table, dtype=float)
            if len(tab) < 2 or not np.all((tab >= 0) & (tab <= 1)):
                raise ValueError("table feedback needs >= 2 values in [0, 1]")
        if not (0 < self.red0 < self.total0):
            raise ValueError("need 0 < red0 < total0 so X stays inside (0, 1)")

    def feedback(self):
        """f as one callable on float arrays, resolved once per run: it
        returns the constant itself, x itself, x ** value, or np.interp on
        a grid and table built here."""
        if self.f_kind == "constant":
            value = float(self.value)
            return lambda x: value
        if self.f_kind == "identity":
            return lambda x: x
        if self.f_kind == "power":
            exponent = self.value
            return lambda x: x ** exponent
        grid = np.linspace(0.0, 1.0, len(self.table))
        table = np.asarray(self.table, dtype=float)
        return lambda x: np.interp(x, grid, table)

    def f(self, x):
        """f(x): a float for a scalar or 0-d x, else a new array like x."""
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.feedback()(x))
        return out if out.ndim else float(out)


def _uniform(gen: np.random.Generator, out: np.ndarray) -> None:
    gen.random(out=out)


def _urn_red_counts(spec: UrnSpec, n_end: int, seeds, observers=()) -> np.ndarray:
    """Red-ball counts after n_end - total0 draws, one urn per seed; a
    uniform u adds a red ball when u < f(red/total)."""
    n0 = spec.total0
    if n_end < n0:
        raise ValueError("n_end is below the starting ball count")
    if spec.f_kind == "constant" and not observers:
        # u < value never reads the state: count each stream chunk by chunk
        red = np.full(len(seeds), float(spec.red0))
        buffer = np.empty(min(n_end - n0, NOISE_CHUNK))
        for trial, key in enumerate(stream_keys(seeds)):
            gen = make_rng(key)
            for a, b in chunk_ranges(n_end - n0):
                _uniform(gen, buffer[:b - a])
                red[trial] += np.count_nonzero(buffer[:b - a] < spec.value)
        return red

    f = spec.feedback()
    totals = np.arange(n0, n_end, dtype=float)  # exact: the counts are below 2**53

    def update(red, step, u):
        red += u < f(red / totals[step, ...])

    return drive(np.full(len(seeds), float(spec.red0)), n_end - n0, update,
                 observers, seeds=seeds, sample=_uniform)


def simulate_urn(spec: UrnSpec, n_end: int, seed: int) -> Trajectory:
    """Exact urn dynamics on integer ball counts, deterministic in seed: the
    red fraction X_n (a ratio of exact counts) at times n = total0..n_end."""
    n0 = spec.total0
    if not n_end > n0:
        raise ValueError("n_end must exceed the starting ball count")
    record = Record((1,), n_end - n0)
    _urn_red_counts(spec, n_end, [seed], [record])
    total = np.arange(n0, n_end + 1, dtype=float)
    return Trajectory(total, record.value[0] / total)


def urn_final_batch(spec: UrnSpec, n_end: int, seeds) -> np.ndarray:
    """Final urn fractions for many seeds; streams match simulate_urn."""
    seeds = np.asarray(list(seeds), dtype=np.uint64)
    return _urn_red_counts(spec, n_end, seeds) / float(n_end)


@dataclass(eq=False)
class UrnSgdReport:
    """Pathwise comparison of the urn against its drift+noise decomposition."""

    max_abs_gap: float
    first_divergence: int | None

    @property
    def pathwise_equal(self) -> bool:
        return self.first_divergence is None


def urn_as_sgd_check(spec: UrnSpec, n_end: int, seed: int,
                     tolerance: float = 1e-12) -> UrnSgdReport:
    """Step the urn and the recursion X' += (f(X') - X')/(n+1) + g_n/(n+1)
    together on the urn's own uniforms (seed's stream, the same however it
    is cut into draws) and compare X' with red/total pathwise."""
    n0 = spec.total0
    if n_end < n0:
        raise ValueError("n_end is below the starting ball count")
    f = spec.feedback()
    # f reads X' as a 1-element array, so power feedback gets the values of
    # numpy's array pow, as in a batch; the rest of a step runs on floats
    arg = np.empty(1)
    red, x_dec = float(spec.red0), spec.red0 / n0
    reds, x_decs = [], []
    for step, u in enumerate(make_rng(seed).random(n_end - n0).tolist()):
        total = n0 + step
        arg[0] = x_dec
        arg[...] = f(arg)
        fx = arg.item(0)
        add_red = u < fx
        g = 1.0 - fx if add_red else -fx
        x_dec = x_dec + (fx - x_dec) / (total + 1) + g / (total + 1)
        red += add_red
        reds.append(red)
        x_decs.append(x_dec)
    gap = np.abs(np.array(reds) / np.arange(n0 + 1, n_end + 1) - np.array(x_decs))
    over = np.flatnonzero(gap > tolerance)
    return UrnSgdReport(max_abs_gap=float(gap.max(initial=0.0)),
                        first_divergence=int(n0 + 1 + over[0]) if len(over) else None)


def step_correction(frame: MeanFlowFrame, n) -> np.ndarray:
    """a_n from the exact finite difference of 1/h; tends to 1.

    a_n = (1/h(n+1) - 1/h(n)) * (k-1)/(1-gamma) * h(n+1) * n^gamma / |h(n)|^{k-1}
    """
    if frame.variant != "discrete":
        raise ValueError("step correction lives in the discrete frame")
    n = np.asarray(n, dtype=float)
    h_n = mean_flow_h(frame, n)
    h_n1 = mean_flow_h(frame, n + 1.0)
    out = ((1.0 / h_n1 - 1.0 / h_n) * (frame.k - 1.0) / (1.0 - frame.gamma)
           * h_n1 * n ** frame.gamma / np.abs(h_n) ** (frame.k - 1.0))
    return float(out) if out.ndim == 0 else out


def z_diagnostics(traj: Trajectory, frame: MeanFlowFrame):
    """Z_n = -X_n/h(n) for n0..n_end and a_n for n0..n_end-1."""
    n = traj.times
    z = -traj.values / mean_flow_h(frame, n)
    a = step_correction(frame, n[:-1])
    return z, np.asarray(a)
