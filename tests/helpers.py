"""Helpers shared by the test modules: plain-loop references for the EM
integrator and the discrete recursion, and the step a run's
NonFiniteStateError names.

The references step every trial with f(x) written as one expression and
nothing done in place, so they are independent of the driver's in-place
update arithmetic; the tests compare recorded paths against them bit for
bit.
"""

import numpy as np

from saddlelab.rng import NonFiniteStateError, make_rng


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
