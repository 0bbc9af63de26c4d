"""Helpers shared by the test modules: plain-loop references for the EM
integrator, the discrete recursion and the urn's decomposition audit, the
urn feedback written out per kind, a one-block reference for the hitting
Monte Carlo, the step a run's NonFiniteStateError names, the peak of the
memory a call traces, and a pool stand-in that starts no process.

The references step every trial with f(x) written as one expression and
nothing done in place, so they are independent of the driver's in-place
update arithmetic; the tests compare recorded paths against them bit for
bit.
"""

import math
import tracemalloc

import numpy as np

from saddlelab.continuous import HIT_BLOCK, HIT_GRID, gaussian_clock
from saddlelab.rng import NonFiniteStateError, derive_seed, make_rng


def one_expression_drift(spec, x):
    """f(x) as a single expression, with no step done in place."""
    if spec.family == "linear":
        return spec.k * np.abs(x)
    return spec.c * np.minimum(np.abs(x), spec.cap) ** spec.k


def first_bad_step(run, *args):
    """The step a NonFiniteStateError names, or None if run finishes."""
    try:
        run(*args)
    except NonFiniteStateError as err:
        return err.step_index
    return None


def traced_peak(run):
    """run()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def draw(noise, rng, n):
    """The next n values of rng's noise stream."""
    out = np.empty(n)
    noise.fill(rng, out)
    return out


def em_reference(spec, grid, dw):
    """EM as a plain loop, x += f(x) w dt + g dW per step, one trial per row
    of dw; shape (trials, n_steps + 1)."""
    t = grid.times()[:-1]
    wdt = spec.noise.drift_weight(t) * grid.step_sizes()
    g = spec.noise.g(t)
    x = np.full(len(dw), float(spec.x0))
    values = [x.copy()]
    for i in range(grid.n_steps):
        x += one_expression_drift(spec.drift, x) * wdt[i] + g[i] * dw[:, i]
        values.append(x.copy())
    return np.array(values).T


def hit_reference(k, x_s, s, t_end, n_paths, seed):
    """linear_hit_zero_mc's hit count with each generator's HIT_BLOCK paths
    drawn at once: every path's normals in one request, then the uniforms of
    the paths that stayed below the barrier at every node in another."""
    b = -math.exp(k * s) * x_s
    dtau = float(gaussian_clock(k, s, t_end)) / HIT_GRID
    hits = 0
    for batch_index, done in enumerate(range(0, n_paths, HIT_BLOCK)):
        rng = make_rng(derive_seed(seed, batch_index))
        w = rng.standard_normal((min(HIT_BLOCK, n_paths - done), HIT_GRID))
        w = np.cumsum(w * math.sqrt(dtau), axis=1)
        crossed = (w >= b).any(axis=1)
        gap = b - w[~crossed]
        # the bridge's exponent at node j + 1 reads the gap at node j; at
        # node 0, w = 0 and the gap is b
        previous = np.concatenate([np.full((len(gap), 1), b), gap[:, :-1]], axis=1)
        p_bridge = np.exp(-2.0 * previous * gap / dtau)
        u = rng.random(p_bridge.shape)
        hits += int(crossed.sum()) + int((u < p_bridge).any(axis=1).sum())
    return hits


def sgd_reference(drift, gamma, noise, x0, n0, n_end, seeds):
    """The recursion as a plain loop, x += f(x) h + y h per step, on each
    seed's draws (zeros when noise is None); shape (trials, steps + 1)."""
    steps = n_end - n0
    h = np.arange(n0, n_end, dtype=float) ** -gamma
    y = (np.zeros((len(seeds), steps)) if noise is None else
         np.array([draw(noise, make_rng(s), steps) for s in seeds]))
    x = np.full(len(seeds), float(x0))
    values = [x.copy()]
    for i in range(steps):
        x += one_expression_drift(drift, x) * h[i] + y[:, i] * h[i]
        values.append(x.copy())
    return np.array(values).T


def urn_feedback_reference(spec, x):
    """The urn's f(x), one expression per kind, with the table's grid built
    on each call; a float for a scalar or 0-d x."""
    x = np.asarray(x, dtype=float)
    if spec.f_kind == "constant":
        out = np.full_like(x, spec.value)
    elif spec.f_kind == "identity":
        out = x
    elif spec.f_kind == "power":
        out = x ** spec.value
    else:
        grid = np.linspace(0.0, 1.0, len(spec.table))
        out = np.interp(x, grid, np.asarray(spec.table, dtype=float))
    return out if out.ndim else float(out)


def urn_audit_reference(spec, n_end, seed, tolerance):
    """urn_as_sgd_check's (max_abs_gap, first_divergence) as a plain loop on
    seed's uniforms, with the red count and X' as 1-element arrays and g
    taken by np.where."""
    n0 = spec.total0
    u = make_rng(seed).random(n_end - n0)
    red = np.array([float(spec.red0)])
    x_dec = np.array([spec.red0 / n0])
    reds, x_decs = [], []
    for step, ui in enumerate(u):
        total = n0 + step
        fx = urn_feedback_reference(spec, x_dec)
        add_red = ui < fx
        g = np.where(add_red, 1.0 - fx, -fx)
        x_dec = x_dec + (fx - x_dec) / (total + 1) + g / (total + 1)
        red = red + add_red
        reds.append(red[0])
        x_decs.append(x_dec[0])
    gap = np.abs(np.array(reds) / np.arange(n0 + 1, n_end + 1) - np.array(x_decs))
    over = np.flatnonzero(gap > tolerance)
    return float(gap.max(initial=0.0)), int(n0 + 1 + over[0]) if len(over) else None


class SerialPool:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers in
    `sizes` and, given a `runners` list, appends to it the runner of each
    task it is handed, in order; maps in this process, so no worker
    starts."""

    def __init__(self, sizes, max_workers, runners=None):
        sizes.append(max_workers)
        self.runners = runners

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        if self.runners is not None:
            self.runners.extend(runner for runner, _ in tasks)
        return map(fn, tasks)
