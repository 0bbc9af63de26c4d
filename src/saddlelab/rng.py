"""Deterministic seed derivation and the one stepping driver.

Every trajectory owns an independent generator keyed by
derive_seed(base_seed, *indices); the rule is a pure function of its
arguments.  Every simulator advances its state through `drive`, so a trial
runs the same update arithmetic whether it runs alone (a batch of one), in
a batch, or on a worker process, and it consumes the same stream because
the stream is its own.  numpy's draws do not depend on how a stream is cut
into requests (the test suite pins this), so NOISE_CHUNK only bounds the
size of the draw buffer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NOISE_CHUNK", "TRIAL_CAP", "derive_seed", "make_rng", "chunk_ranges",
           "NonFiniteStateError", "drive", "Extremes", "FirstViolation",
           "Record"]

NOISE_CHUNK = 8192
TRIAL_CAP = 1024  # drive steps wider trial sets in parts to bound buffer memory


def derive_seed(base_seed: int, *indices: int) -> int:
    """Fixed splitting rule: (base, i, j, ...) -> 64-bit stream key."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def chunk_ranges(n: int, chunk: int = NOISE_CHUNK):
    """Yield (start, stop) pairs covering range(n) in fixed-size chunks."""
    start = 0
    while start < n:
        stop = min(start + chunk, n)
        yield start, stop
        start = stop


class NonFiniteStateError(RuntimeError):
    """A state became NaN/inf; carries the first bad step index."""

    def __init__(self, step_index: int):
        super().__init__(f"non-finite state at step {step_index}; "
                         "check drift cap and step size")
        self.step_index = step_index

    def __reduce__(self):
        # rebuilt from the step, not the message, when a worker sends it back
        return type(self), (self.step_index,)


@np.errstate(over="ignore", invalid="ignore")  # the first bad step is raised instead
def drive(state: np.ndarray, n_steps: int, update, observers=(), *,
          seeds=None, sample=None, scale=None, increments=None) -> np.ndarray:
    """Advance `state` in place through n_steps steps and return it.

    The last axis of state holds the trials.  Step i calls
    update(x, i, noise) with x the state of the trials being stepped and
    noise their noise for step i; each observer's begin(x, part) sees the
    start state of the trials `part`, and its step(x, i + 1) the state
    after step i.  The noise comes either from a given `increments` array
    (trials x n_steps), or from one generator per seed: sample(gen, size)
    draws `size` values of a trial's stream, and the per-step `scale`, if
    given, multiplies the drawn block in place.

    Raises NonFiniteStateError with the first step, over all trials, after
    which some state is NaN or inf.
    """
    n_trials = state.shape[-1]
    if increments is None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        buffer = np.empty((min(n_trials, TRIAL_CAP), min(n_steps, NOISE_CHUNK)))
    bad_steps = []
    for lo in range(0, n_trials, TRIAL_CAP):
        part = slice(lo, lo + TRIAL_CAP)
        x = state[..., part]
        for obs in observers:
            obs.begin(x, part)
        observe = [obs.step for obs in observers]
        gens = None if increments is not None else [make_rng(s) for s in seeds[part]]
        for a, b in chunk_ranges(n_steps, NOISE_CHUNK):
            if gens is None:
                block = increments[part, a:b]
            else:
                block = buffer[:len(gens), :b - a]
                for row, gen in zip(block, gens):
                    row[:] = sample(gen, b - a)
                if scale is not None:
                    block *= scale[a:b]
            start = x.copy()
            for i, noise in enumerate(block.T, a):
                update(x, i, noise)
                for step in observe:
                    step(x, i + 1)
            if not np.isfinite(x).all():
                bad_steps.append(_first_bad_step(start, update, a, block))
                break
    if bad_steps:
        raise NonFiniteStateError(min(bad_steps))
    return state


def _first_bad_step(x, update, a, block) -> int:
    """Replay one chunk from its start state x; the first non-finite step."""
    if not np.isfinite(x).all():
        return a
    for i, noise in enumerate(block.T, a):
        update(x, i, noise)
        if not np.isfinite(x).all():
            return i + 1
    raise AssertionError("replaying the chunk gave a finite state")


class Extremes:
    """Per-trial maximum of the state over every node, and maximum of |state|
    over the tail: the nodes whose time is >= tail_start (every node when
    tail_start is None; 0 for a trial with no tail node).  times holds the
    node times on the run's own clock; the caller sets `final`."""

    def __init__(self, n_trials: int, times, tail_start: float | None = None):
        self.max_value = np.empty(n_trials)
        self.tail_abs_max = np.zeros(n_trials)
        self.final = None
        self.first_tail_node = (0 if tail_start is None else
                                int(np.count_nonzero(np.asarray(times) < tail_start)))

    def begin(self, x, part):
        self._max = self.max_value[part]
        self._tail = self.tail_abs_max[part]
        self._max[...] = x
        if self.first_tail_node <= 0:
            self._tail[...] = np.abs(x)

    def step(self, x, index):
        np.maximum(self._max, x, out=self._max)
        if index >= self.first_tail_node:
            np.maximum(self._tail, np.abs(x), out=self._tail)


class FirstViolation:
    """Per-trial first step at which row 0 of the state falls below row 1
    (-1: never)."""

    def __init__(self, n_trials: int):
        self.value = np.full(n_trials, -1, dtype=np.int64)

    def begin(self, x, part):
        self._view = self.value[part]
        self._view[x[0] < x[1]] = 0

    def step(self, x, index):
        bad = (x[0] < x[1]) & (self._view < 0)
        if np.any(bad):
            self._view[bad] = index


class Record:
    """Every step's state: value[..., trial, step] for steps 0..n_steps."""

    def __init__(self, shape, n_steps: int):
        self.value = np.empty(tuple(shape) + (n_steps + 1,))

    def begin(self, x, part):
        self._view = self.value[..., part, :]
        self._view[..., 0] = x

    def step(self, x, index):
        self._view[..., index] = x
