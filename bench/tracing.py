"""Per-layer tracing of saddlelab from outside the package.

The tracer replaces module attributes with timing wrappers at the place
each one is looked up (``drift_eval`` and ``make_rng`` are imported by name
into ``continuous`` and ``discrete``, ``estimate_probability`` is looked up
in ``experiments``, and so on) and restores them on ``uninstall``.  Nothing
in ``src/`` is edited.

Function-level calls become spans (name, start, end, parent, pid).  Calls
that happen once per step (``drift_eval``, Generator draws) only bump
counters, so that tracing stays affordable.  Pool workers are forked after
``install``, so they run the same wrappers; each block they run ships its
spans and counters back to the parent attached to the block's result.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import os
import statistics
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

import saddlelab.analysis as analysis
import saddlelab.cli as cli
import saddlelab.continuous as continuous
import saddlelab.discrete as discrete
import saddlelab.experiments as experiments
import saddlelab.model as model
import saddlelab.rng as rng

# The tracer that forked pool workers find; set by install(), cleared by
# uninstall().  Worker processes cannot be handed an object any other way,
# because the pool pickles the block function by name.
ACTIVE: "Tracer | None" = None

KERNELS = ("continuous.em_batch", "continuous.coupled_violations_batch",
           "continuous.linear_exact_batch", "continuous.linear_hit_zero_mc",
           "continuous.simulate_em", "continuous.brownian_increments",
           "discrete.sgd_batch", "discrete.simulate_sgd",
           "discrete.urn_final_batch", "discrete.urn_as_sgd_check")

DRAW_METHODS = ("standard_normal", "random", "integers", "uniform")


def _buffer_bytes(n_trials: int, n_steps: int) -> int:
    """Noise buffer a batched kernel allocates: width x chunk x 8 B."""
    return min(n_trials, rng.TRIAL_CAP) * min(n_steps, rng.NOISE_CHUNK) * 8


def _grid_work(b):
    return len(b["seeds"]), b["grid"].n_steps


def _sgd_work(b):
    return len(b["seeds"]), b["n_end"] - b["n0"]


def _urn_work(b):
    return len(b["seeds"]), b["n_end"] - b["spec"].total0


# span name -> (layer, function -> (trials, steps) per call or None)
SPAN_WORK = {
    "continuous.em_batch": ("continuous", _grid_work),
    "continuous.coupled_violations_batch": ("continuous", _grid_work),
    "discrete.sgd_batch": ("discrete", _sgd_work),
    "discrete.urn_final_batch": ("discrete", _urn_work),
    "discrete.simulate_sgd": (None, lambda b: (1, b["n_end"] - b["n0"])),
}

# (module, attribute, span name): where each public function is looked up
SPAN_SITES = [
    (continuous, "em_batch", "continuous.em_batch"),
    (continuous, "coupled_violations_batch", "continuous.coupled_violations_batch"),
    (continuous, "linear_exact_batch", "continuous.linear_exact_batch"),
    (continuous, "linear_hit_zero_mc", "continuous.linear_hit_zero_mc"),
    (continuous, "simulate_em", "continuous.simulate_em"),
    (continuous, "brownian_increments", "continuous.brownian_increments"),
    (discrete, "sgd_batch", "discrete.sgd_batch"),
    (discrete, "simulate_sgd", "discrete.simulate_sgd"),
    (discrete, "urn_final_batch", "discrete.urn_final_batch"),
    (discrete, "urn_as_sgd_check", "discrete.urn_as_sgd_check"),
    (experiments, "estimate_probability", "analysis.estimate_probability"),
    (experiments, "classify_stats", "analysis.classify_stats"),
    (experiments, "run_dichotomy", "experiments.run_dichotomy"),
    (cli, "run_dichotomy", "experiments.run_dichotomy"),
    (cli, "phase_sweep", "experiments.phase_sweep"),
    (cli, "run_urn_experiment", "experiments.run_urn_experiment"),
    (cli, "resolve_config", "cli.resolve_config"),
    (cli, "_dump_trajectories", "cli.dump_trajectories"),
]


class _TimedGenerator:
    """Forwards to a numpy Generator, timing the draw methods."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in DRAW_METHODS:
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            start = perf_counter()
            out = attr(*args, **kwargs)
            tracer.draw_s += perf_counter() - start
            tracer.draw_values += np.size(out)
            return out
        return draw


class _TimedFile:
    """An open output file; the time from open to close counts as cli.write."""

    def __init__(self, fh, tracer, start):
        self._fh = fh
        self._tracer = tracer
        self._start = start

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        self._tracer.time["cli.write"] += perf_counter() - self._start
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _BlockResult(list):
    """A block's outcomes plus the trace recorded in the worker that ran it."""

    payload: dict = {}


class _TracedPool(ProcessPoolExecutor):
    """Pool whose map merges the trace each worker block sends back."""

    def map(self, fn, *iterables, **kwargs):
        for result in super().map(fn, *iterables, **kwargs):
            if ACTIVE is not None and getattr(result, "payload", None):
                ACTIVE.merge(result.payload)
            yield result


def run_block(args):
    """Traced stand-in for analysis._run_block (module level, so it pickles)."""
    tracer = ACTIVE
    runner, _ = args
    in_worker = os.getpid() != tracer.owner_pid
    if in_worker:
        tracer.reset()
    tracer.follow(getattr(getattr(runner, "cfg", None), "barrier", None))
    index, parent = tracer.open_span()
    start = perf_counter()
    try:
        result = tracer.original_run_block(args)
    finally:
        end = perf_counter()
        tracer.close_span(index, parent, "analysis._run_block", start, end)
        tracer.follow(None)
    tracer.time["analysis._run_block"] += end - start
    tracer.block_runs.append((os.getpid(), end - start))
    if not in_worker:
        return result
    out = _BlockResult(result)
    out.payload = tracer.export()
    return out


class Tracer:
    """Counters and spans for one traced iteration at a time."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self.original_run_block = analysis._run_block
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.time = defaultdict(float)      # outermost-call seconds per span name
        self.trial_steps = defaultdict(int)
        self.buffer_bytes = defaultdict(int)
        self.spans: list = []
        self._stack: list = []
        self._open = defaultdict(int)
        self.draw_s = 0.0
        self.draw_values = 0
        self.drift_s = 0.0
        self.drift_calls = 0
        self.seed_s = 0.0
        self.seed_calls = 0
        self.useful_steps = 0
        self.classified_steps = 0
        self._barrier = None
        self._followed: dict = {}
        self.block_runs: list = []
        self.dispatch_s = 0.0
        self.blocks = 0
        self.cell_s: list = []

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        global ACTIVE
        for module, attr, name in SPAN_SITES:
            self._patch(module, attr, self._span(name, getattr(module, attr)))
        for module in (model, continuous, discrete):
            self._patch(module, "drift_eval", self._drift(module.drift_eval))
        for module in (rng, continuous, discrete):
            self._patch(module, "make_rng", self._make_rng(module.make_rng))
        for module in (rng, analysis, experiments, continuous):
            self._patch(module, "derive_seed", self._derive_seed(module.derive_seed))
        self._patch(analysis, "_run_block", run_block)
        self._patch(analysis, "ProcessPoolExecutor", _TracedPool)
        self._patch(cli, "open", self._open_file)
        ACTIVE = self

    def uninstall(self) -> None:
        global ACTIVE
        for module, attr, had, original in reversed(self._patches):
            if had:
                setattr(module, attr, original)
            else:
                delattr(module, attr)
        self._patches.clear()
        ACTIVE = None

    def _patch(self, module, attr, replacement) -> None:
        had = attr in vars(module)
        self._patches.append((module, attr, had, vars(module).get(attr)))
        setattr(module, attr, replacement)

    def _span(self, name, fn):
        signature = inspect.signature(fn)
        layer, work = SPAN_WORK.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._open[name] == 0
            index, parent = self.open_span()
            self._open[name] += 1
            if name == "analysis.estimate_probability":
                saved_runs, self.block_runs = self.block_runs, []
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open[name] -= 1
                self.close_span(index, parent, name, start, end)
                if outer:
                    self._account(name, signature.bind(*args, **kwargs).arguments,
                                  end - start, layer, work)
                if name == "analysis.estimate_probability":
                    self._dispatch(end - start)
                    self.block_runs = saved_runs
        return wrapper

    def open_span(self):
        """Reserve a span slot under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1, parent

    def close_span(self, index, parent, name, start, end) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, os.getpid())

    def _account(self, name, bound, seconds, layer, work) -> None:
        self.time[name] += seconds
        if name == "experiments.run_dichotomy":
            self.cell_s.append(seconds)
        if work is None:
            return
        trials, steps = work(bound)
        key = name
        if name == "discrete.urn_final_batch":
            # constant feedback does not depend on the state; keep it apart
            key += "[constant]" if bound["spec"].f_kind == "constant" else "[state]"
            self.time[key] += seconds
        self.trial_steps[key] += trials * steps
        if layer is not None:
            self.buffer_bytes[layer] = max(self.buffer_bytes[layer],
                                           _buffer_bytes(trials, steps))

    def _dispatch(self, seconds) -> None:
        """Pool dispatch: estimate_probability time minus the block runners
        on its critical path (the busiest process)."""
        per_pid = defaultdict(float)
        for pid, block_s in self.block_runs:
            per_pid[pid] += block_s
        self.dispatch_s += seconds - max(per_pid.values(), default=0.0)
        self.blocks += len(self.block_runs)

    def _drift(self, fn):
        @functools.wraps(fn)
        def drift_eval(spec, x):
            start = perf_counter()
            out = fn(spec, x)
            self.drift_s += perf_counter() - start
            self.drift_calls += 1
            if self._barrier is not None and isinstance(x, np.ndarray):
                self._count_useful(x)
            return out
        return drift_eval

    def _make_rng(self, fn):
        @functools.wraps(fn)
        def make_rng(seed):
            return _TimedGenerator(fn(seed), self)
        return make_rng

    def _derive_seed(self, fn):
        @functools.wraps(fn)
        def derive_seed(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            self.seed_s += perf_counter() - start
            self.seed_calls += 1
            return out
        return derive_seed

    def _open_file(self, file, mode="r", *args, **kwargs):
        start = perf_counter()
        fh = builtins.open(file, mode, *args, **kwargs)
        return _TimedFile(fh, self, start) if "w" in mode else fh

    # -- useful-step share --------------------------------------------------

    def follow(self, barrier) -> None:
        """Start (or, with None, stop) following state vectors against a
        cell's escape barrier."""
        self._barrier = barrier
        self._followed.clear()

    def _count_useful(self, x: np.ndarray) -> None:
        # Each batched stepper updates one state vector in place and hands it
        # to drift_eval once per step; a trial whose running max already
        # passed the barrier is escaped for good, so its step is not useful.
        entry = self._followed.get(id(x))
        if entry is None or entry[0] is not x:
            entry = (x, np.zeros(x.shape, dtype=bool))
            self._followed[id(x)] = entry
        escaped = entry[1]
        np.logical_or(escaped, x > self._barrier, out=escaped)
        self.classified_steps += x.size
        self.useful_steps += x.size - int(np.count_nonzero(escaped))

    # -- moving traces between processes -------------------------------------

    def export(self) -> dict:
        return {
            "time": dict(self.time),
            "trial_steps": dict(self.trial_steps),
            "buffer_bytes": dict(self.buffer_bytes), "spans": self.spans,
            "draw": (self.draw_s, self.draw_values),
            "drift": (self.drift_s, self.drift_calls),
            "seed": (self.seed_s, self.seed_calls),
            "useful": (self.useful_steps, self.classified_steps),
            "block_runs": self.block_runs,
        }

    def merge(self, payload: dict) -> None:
        for key in ("time", "trial_steps"):
            target = getattr(self, key)
            for name, value in payload[key].items():
                target[name] += value
        for layer, size in payload["buffer_bytes"].items():
            self.buffer_bytes[layer] = max(self.buffer_bytes[layer], size)
        # a worker's root spans hang under the parent's open span (the
        # estimate_probability call that dispatched the block)
        offset = len(self.spans)
        root = self._stack[-1] if self._stack else None
        self.spans.extend((name, start, end, root if parent is None else parent + offset, pid)
                          for name, start, end, parent, pid in payload["spans"])
        self.draw_s += payload["draw"][0]
        self.draw_values += payload["draw"][1]
        self.drift_s += payload["drift"][0]
        self.drift_calls += payload["drift"][1]
        self.seed_s += payload["seed"][0]
        self.seed_calls += payload["seed"][1]
        self.useful_steps += payload["useful"][0]
        self.classified_steps += payload["useful"][1]
        self.block_runs.extend(payload["block_runs"])

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers for the iteration traced since the last reset."""
        def ns_per(name):
            steps = self.trial_steps.get(name, 0)
            return self.time[name] / steps * 1e9 if steps else 0.0

        kernel_s = sum(self.time[name] for name in KERNELS)
        return {
            "continuous.em_batch_s": self.time["continuous.em_batch"],
            "continuous.em_ns_per_trial_step": ns_per("continuous.em_batch"),
            "continuous.coupled_ns_per_trial_step":
                ns_per("continuous.coupled_violations_batch"),
            "continuous.linear_exact_batch_s": self.time["continuous.linear_exact_batch"],
            "continuous.linear_hit_zero_mc_s": self.time["continuous.linear_hit_zero_mc"],
            "continuous.noise_buffer_bytes": self.buffer_bytes["continuous"],
            "discrete.sgd_batch_s": self.time["discrete.sgd_batch"],
            "discrete.sgd_ns_per_trial_step": ns_per("discrete.sgd_batch"),
            "discrete.simulate_sgd_ns_per_step": ns_per("discrete.simulate_sgd"),
            "discrete.urn_final_batch_s": self.time["discrete.urn_final_batch"],
            "discrete.urn_constant_ns_per_trial_step":
                ns_per("discrete.urn_final_batch[constant]"),
            "discrete.urn_state_ns_per_trial_step":
                ns_per("discrete.urn_final_batch[state]"),
            "discrete.urn_as_sgd_check_s": self.time["discrete.urn_as_sgd_check"],
            "discrete.noise_buffer_bytes": self.buffer_bytes["discrete"],
            "analysis.useful_step_share": (self.useful_steps / self.classified_steps
                                           if self.classified_steps else 1.0),
            "analysis.estimate_probability_s": self.time["analysis.estimate_probability"],
            "analysis.blocks": self.blocks,
            "analysis.pool_dispatch_s": self.dispatch_s,
            "analysis.classify_stats_s": self.time["analysis.classify_stats"],
            "experiments.run_dichotomy_s.median":
                statistics.median(self.cell_s) if self.cell_s else 0.0,
            "experiments.run_dichotomy_s.max": max(self.cell_s, default=0.0),
            "experiments.cells": len(self.cell_s),
            "rng.draw_ns_per_value": (self.draw_s / self.draw_values * 1e9
                                      if self.draw_values else 0.0),
            "rng.draw_share": self.draw_s / kernel_s if kernel_s else 0.0,
            "rng.derive_seed_s": self.seed_s,
            "rng.derive_seed_calls": self.seed_calls,
            "model.drift_eval_calls": self.drift_calls,
            "model.drift_eval_s": self.drift_s,
            "cli.resolve_config_s": self.time["cli.resolve_config"],
            "cli.write_s": self.time["cli.write"],
            "cli.dump_trajectories_s": self.time["cli.dump_trajectories"],
        }
