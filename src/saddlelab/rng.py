"""Deterministic seed derivation and the one stepping driver.

Every trajectory owns an independent generator keyed by
derive_seed(base_seed, *indices); the rule is a pure function of its
arguments, and an integer array as the last index derives one key per
entry in one call.  A trial's generator is numpy's PCG64 seeded as
np.random.default_rng(seed) seeds it: with the four words SeedSequence(seed)
generates.  stream_keys computes those words for a whole part of trials in
one numpy pass, so no trial runs SeedSequence itself; both this and
derive_seed go through one copy of SeedSequence's arithmetic.

Every simulator advances its state through `drive`, so a trial runs the
same update arithmetic whether it runs alone (a batch of one), in a batch,
or on a worker process, and it consumes the same stream because the stream
is its own.  numpy's draws do not depend on how a stream is cut into
requests (the test suite pins this), so the chunk length never changes a
value.  Every run steps its trials in chunks of RETIRE_CHUNK steps when
TRIAL_CAP trials are stepped together, and proportionally longer (up to
NOISE_CHUNK) when fewer are, so at any width the draw buffer holds at most
TRIAL_CAP x RETIRE_CHUNK draws (4 MiB, plus the row pad below).  A run
that retires escaped trials takes at most a third of its steps per chunk,
so even a short one checks for escape before its last chunk.  The chunk
sets how many draw calls a run makes and, in a run that retires escaped
trials, how soon after its escape a trial stops.

The draw buffer holds one row per trial, and each step reads its noise down
a column.  Its rows lie an odd number of 64-byte cache lines apart: the
chunk is rounded up to whole lines, plus one line when that count is even.
At a power-of-two row pitch every entry of a column would map to the same
cache set, and reading a column of 1024 trials cost 3-5 times as much.

Observers (Extremes, FirstViolation, Record) have one method,
see(states, first, rows), and keep no view of a part: each folds a window
of states into its own per-trial arrays at `rows`, the global indices of
the trials on the window's last axis.  drive hands each part's node 0
through see as a one-step window, then copies every step's state into a
step-major window of _WINDOW steps and hands the filled part over when the
window is full and at every chunk end.  The window holds _WINDOW states
per trial row of a part, at most 1 MiB per state row at TRIAL_CAP trials;
a run with no observer has none and copies nothing.  Each reduction an
observer takes over a window (a NaN-skipping max, a first True) gives what
the same reduction taken step by step gives, so the window length never
changes a value.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["NOISE_CHUNK", "RETIRE_CHUNK", "TRIAL_CAP", "derive_seed", "StreamKey",
           "stream_keys", "make_rng", "chunk_ranges", "NonFiniteStateError",
           "drive", "Extremes", "FirstViolation", "Record"]

NOISE_CHUNK = 8192  # the longest chunk, drawn by the narrowest parts
RETIRE_CHUNK = 512  # steps per chunk when TRIAL_CAP trials are stepped together
TRIAL_CAP = 1024  # drive steps wider trial sets in parts to bound buffer memory
_WINDOW = 128  # steps of states held for the observers between reads


# numpy's SeedSequence (numpy/random/bit_generator.pyx) in 32-bit words:
# Python ints for the words every key shares, a uint32 array for a vector of
# last indices.  Every product is masked to 32 bits, a no-op on uint32
# arrays, which wrap without a warning; a Python int below 2**32 leaves a
# uint32 array uint32 under numpy 1.x value-based and 2.x NEP 50 promotion.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, low first."""
    value = int(value)
    if value < 0:
        raise ValueError("seeds and indices must be non-negative")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


class _HashMix:
    """SeedSequence's hashmix: xor the running constant in, step the
    constant, multiply by it and fold the high half down."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> 16)


def _mix(x, y):
    value = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _mix_pool(head) -> tuple:
    """SeedSequence's pool once its first _POOL_SIZE entropy words are hashed
    in and mixed together, and the hash constant it goes on from."""
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in head]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    return pool, hashmix.const


@functools.lru_cache(maxsize=64)
def _mixed_pool(head: tuple) -> tuple:
    """_mix_pool of int words, kept: every key derived from one base seed
    shares it."""
    pool, const = _mix_pool(head)
    return tuple(pool), const


def _generate(pool, n_words: int) -> list:
    """The first n_words 32-bit words SeedSequence generates from its mixed
    pool, which it cycles through."""
    output = _HashMix(_INIT_B, _MULT_B)
    return [output(pool[i % _POOL_SIZE]) for i in range(n_words)]


def _join(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """uint64s from their low and high 32-bit words."""
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


def _first_state_words(entropy: list):
    """The first two 32-bit words SeedSequence generates from these entropy
    words (at least _POOL_SIZE of them): the low and the high half of its
    first uint64."""
    pool, const = _mixed_pool(tuple(entropy[:_POOL_SIZE]))
    pool, hashmix = list(pool), _HashMix(const, _MULT_A)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return _generate(pool, 2)


def derive_seed(base_seed: int, *indices):
    """Fixed splitting rule: (base, i, j, ...) -> 64-bit trial seed, the
    first uint64 of np.random.SeedSequence(base, spawn_key=(i, j, ...)).

    The last index may be an integer array with entries below 2**32; the
    keys then come back as a uint64 array, one per entry.  With scalar
    indices the key is an int."""
    vector = bool(indices) and np.ndim(indices[-1]) > 0
    # SeedSequence pads a short base with zero words before a spawn key, and
    # without one hashes zeros into the pool words the base leaves empty
    entropy = _words(base_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for index in (indices[:-1] if vector else indices):
        entropy += _words(index)
    if not vector:
        low, high = _first_state_words(entropy)
        return low | (high << 32)
    last = np.asarray(indices[-1])
    if not np.issubdtype(last.dtype, np.integer) or (
            last.size and (last.min() < 0 or last.max() > _MASK32)):
        raise ValueError("an array index must hold integers in [0, 2**32)")
    return _join(*_first_state_words(entropy + [last.astype(np.uint32)]))


_PCG64_WORDS = 4


class StreamKey:
    """A trial's seed as the seed sequence numpy's PCG64 reads: the four
    uint64 words SeedSequence(seed).generate_state(4, np.uint64) returns,
    which are the only words PCG64 is seeded with.  Built by stream_keys."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The key's words, read-only; any other request raises."""
        if n_words != _PCG64_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream key holds only PCG64's "
                             f"{_PCG64_WORDS} uint64 seed words")
        return self._state


@functools.cache
def _register_stream_key() -> None:
    # imported on the first key, not with the package: numpy.random costs
    # every command's start-up 13-25 ms
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(StreamKey)


def stream_keys(seeds) -> list[StreamKey]:
    """One StreamKey per uint64 seed, the words of all of them computed in
    one numpy pass; make_rng(key) is make_rng(seed), bit for bit."""
    _register_stream_key()
    seeds = np.asarray(seeds, dtype=np.uint64)
    # a seed is one or two 32-bit words, and SeedSequence hashes zeros into
    # the pool words it leaves empty
    pool, _ = _mix_pool([(seeds & np.uint64(_MASK32)).astype(np.uint32),
                         (seeds >> np.uint64(32)).astype(np.uint32), 0, 0])
    words = _generate(pool, 2 * _PCG64_WORDS)
    state = np.empty((len(seeds), _PCG64_WORDS), dtype=np.uint64)
    for i in range(_PCG64_WORDS):
        state[:, i] = _join(words[2 * i], words[2 * i + 1])
    state.flags.writeable = False  # each key hands out its row itself
    return [StreamKey(row) for row in state]


def make_rng(seed: int | StreamKey) -> np.random.Generator:
    """A trial's generator: PCG64 seeded from an int as
    np.random.default_rng(int(seed)) seeds it, or from a StreamKey's
    precomputed words, which skips running SeedSequence."""
    return np.random.default_rng(seed if isinstance(seed, StreamKey) else int(seed))


def chunk_ranges(n: int, chunk: int = NOISE_CHUNK):
    """Yield (start, stop) pairs covering range(n) in fixed-size chunks."""
    start = 0
    while start < n:
        stop = min(start + chunk, n)
        yield start, stop
        start = stop


def _draw_buffer(width: int, chunk: int) -> np.ndarray:
    """A (width, chunk) view of a draw buffer whose contiguous rows lie an
    odd number of 64-byte lines (8 doubles each) apart."""
    lines = -(-chunk // 8)
    lines += 1 - lines % 2
    return np.empty((width, 8 * lines))[:, :chunk]


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
          seeds=None, sample=None, scale=(), increments=None,
          barrier: float | None = None) -> np.ndarray:
    """Advance `state` in place through n_steps steps and return it.

    The last axis of state holds the trials.  Step i calls
    update(x, i, noise) with x the state of the trials being stepped and
    noise their noise for step i, and takes the state at node i + 1.  Each
    observer has one method, see(states, first, rows): states[j] is the
    state at node first + j, with states.shape[1:] == x.shape, and rows
    holds the global (ascending) indices of the trials on its last axis.
    A part's node 0 arrives as a one-step window with first == 0; the
    nodes after it arrive when _WINDOW steps fill the window and at the
    end of every chunk, before the chunk's non-finite and retirement
    checks, so each observer has seen every node up to the chunk's end
    when those run.  The window is only valid during the call.  It costs
    _WINDOW x state.shape[:-1] x min(trials, TRIAL_CAP) doubles however
    many observers read it, and nothing when no observer is given.  The
    noise comes either from a given `increments` array (trials x n_steps,
    only read, so a broadcast view will do), or from one generator per
    seed: sample(gen, out) fills `out` with the next len(out) values of a
    trial's stream, and each per-step array in `scale`, in order,
    multiplies the drawn block in place (EM's sqrt(dt) and then g, which
    make a block of standard normals the steps' g dW; a given increments
    array is not scaled).

    A run with a barrier classifies: its observers are an Extremes and,
    optionally, a Record of the leading trials of the state.  A trial whose
    running max has passed the barrier is escaped whatever follows, so at
    the end of each chunk before the last such trials retire: they are
    stepped no further and draw no more noise, and their state and
    extremes keep their values at retirement.  Recorded trials never
    retire, so their every state is recorded; they stay the leading trials
    of each part as the others retire.  A part of the trials ends at the
    horizon or when none of them is left, and then writes its state back.

    Every run, with a barrier or without, steps in chunks of
    min(NOISE_CHUNK, TRIAL_CAP * RETIRE_CHUNK // width) steps, width being
    the part's trial count: RETIRE_CHUNK steps when TRIAL_CAP trials are
    stepped together, proportionally more when fewer are.  The draw buffer
    thus holds at most TRIAL_CAP x RETIRE_CHUNK draws at any width.  A run
    with a barrier takes at most ceil(n_steps / 3) steps per chunk, so a
    short one retires its escaped trials before its last chunk as well.

    Raises NonFiniteStateError with the first step, over all trials, after
    which some state is NaN or inf; with a barrier, a trial whose max
    passed it before that step does not count unless it is recorded.
    """
    n_trials = state.shape[-1]
    width = min(n_trials, TRIAL_CAP)
    # the same buffer size at every width: a narrower part draws longer
    # chunks, which spreads each draw call's fixed cost over more values
    chunk = min(NOISE_CHUNK, TRIAL_CAP * RETIRE_CHUNK // max(width, 1))
    recorded = 0  # how many leading trials must not retire
    if barrier is not None:
        # a short run checks for escape before its last chunk too
        chunk = min(chunk, -(-n_steps // 3))
        extremes, *record = observers
        if record:
            recorded = record[0].value.shape[-2]
    if increments is None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        buffer = _draw_buffer(width, min(n_steps, chunk))
    if observers:
        # step-major, so each step's states are one row written by an int index
        window = np.empty((min(n_steps, _WINDOW),) + state.shape[:-1] + (width,))
    bad_steps = []
    for lo in range(0, n_trials, TRIAL_CAP):
        rows = np.arange(lo, min(lo + TRIAL_CAP, n_trials))  # the trials still stepped
        # take keeps C order; state[..., rows] would stride each state row
        x = state.take(rows, axis=-1)
        head = max(recorded - lo, 0)
        for obs in observers:
            obs.see(x[None], 0, rows)
        gens = (None if increments is not None else
                [make_rng(key) for key in stream_keys(seeds[rows])])
        for a, b in chunk_ranges(n_steps, chunk):
            if gens is None:
                block = increments[rows, a:b]
            else:
                block = buffer[:len(gens), :b - a]
                for row, gen in zip(block, gens):
                    sample(gen, row)
                for factor in scale:
                    block *= factor[a:b]
            start = x.copy()
            if not observers:
                for i, noise in enumerate(block.T, a):
                    update(x, i, noise)
            else:
                states = window[..., :x.shape[-1]]
                for w in range(a, b, _WINDOW):
                    seen = states[:min(_WINDOW, b - w)]
                    for j, noise in enumerate(block.T[w - a:w - a + len(seen)]):
                        update(x, w + j, noise)
                        seen[j] = x
                    for obs in observers:
                        obs.see(seen, w + 1, rows)
            if not np.isfinite(x).all():
                bad = _first_bad_step(start, update, a, block, barrier, head)
                if bad is not None:
                    bad_steps.append(bad)
                    break
            if barrier is not None and b < n_steps:
                keep = ~(extremes.max_value[rows] > barrier)
                keep[:head] = True  # recorded trials step on to the horizon
                if keep.all():
                    continue
                state[..., rows] = x
                rows, x = rows[keep], x[..., keep]
                if gens is not None:
                    gens = [gen for gen, kept in zip(gens, keep) if kept]
                if not len(rows):
                    break
        state[..., rows] = x
    if bad_steps:
        raise NonFiniteStateError(min(bad_steps))
    return state


def _first_bad_step(x, update, a, block, barrier=None, head=0) -> int | None:
    """Replay one chunk from its start state x: the first step after which
    the state of a trial that counts is non-finite (None if none is).
    Without a barrier every trial counts; with one, a trial whose max
    passed the barrier at an earlier node does not, unless it is one of
    the `head` leading (recorded) trials."""
    if not np.isfinite(x).all():
        return a
    passed = np.zeros(x.shape, dtype=bool)
    exempt = (..., slice(head, None))  # the trials a passed barrier exempts
    if barrier is not None:
        passed[exempt] = x[exempt] > barrier
    for i, noise in enumerate(block.T, a):
        update(x, i, noise)
        if not (np.isfinite(x) | passed).all():
            return i + 1
        if barrier is not None:
            passed[exempt] |= x[exempt] > barrier
    return None


class Extremes:
    """Per-trial maximum of the state over every node, and maximum of |state|
    over the tail: the nodes whose time is >= tail_start (every node when
    tail_start is None; 0 for a trial with no tail node).  times holds the
    node times on the run's own clock; the caller sets `final`.  A NaN
    state leaves both maxima as they were."""

    def __init__(self, n_trials: int, times, tail_start: float | None = None):
        # NaN until node 0, which fmax then takes bit for bit
        self.max_value = np.full(n_trials, np.nan)
        self.tail_abs_max = np.zeros(n_trials)
        self.final = None
        self.first_tail_node = (0 if tail_start is None else
                                int(np.count_nonzero(np.asarray(times) < tail_start)))

    def see(self, states, first, rows):
        # fmax is exact and skips a NaN whichever order it meets it in
        self.max_value[rows] = np.fmax(self.max_value[rows], np.fmax.reduce(states))
        tail = states[max(self.first_tail_node - first, 0):]
        if len(tail):
            self.tail_abs_max[rows] = np.fmax(self.tail_abs_max[rows],
                                              np.fmax.reduce(np.abs(tail)))


class FirstViolation:
    """Per-trial first step at which row 0 of the state falls below row 1
    (-1: never)."""

    def __init__(self, n_trials: int):
        self.value = np.full(n_trials, -1, dtype=np.int64)

    def see(self, states, first, rows):
        below = states[:, 0] < states[:, 1]
        new = below.any(axis=0) & (self.value[rows] < 0)
        if new.any():
            self.value[rows[new]] = first + below[:, new].argmax(axis=0)


class Record:
    """Every step's state: value[..., trial, step] for steps 0..n_steps.
    shape's last entry may be smaller than the state's trial count; the
    record then holds the leading trials."""

    def __init__(self, shape, n_steps: int):
        self.value = np.empty(tuple(shape) + (n_steps + 1,))
        # step-major, as the window is, so a window is one slice of it
        self._steps = np.moveaxis(self.value, -1, 0)

    def see(self, states, first, rows):
        # the recorded trials lead every part and never retire, so those
        # among rows are the n after rows[0]
        n = int(np.searchsorted(rows, self.value.shape[-2]))
        self._steps[first:first + len(states), ..., rows[0]:rows[0] + n] = states[..., :n]
