"""Kernel width probe: ns per trial-step of each batched stepper, and of raw
Generator draws, at fixed batch widths.

Runs untraced.  Every kernel steps the same number of steps at each width,
so a per-call cost (making one generator per trial, building the grid)
weighs the same at every width and the falling curve is the per-step
interpreter overhead being shared by more trials.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import saddlelab.continuous as continuous
import saddlelab.discrete as discrete
import saddlelab.rng as rng
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec

WIDTHS = (64, 256, 1024)
STEPS = 2048
REPEATS = 3


def _kernels(steps: int):
    """name -> (prepare, kernel): kernel(prepare(seeds)) steps len(seeds)
    trials for `steps` steps; only the kernel is timed."""
    drift = DriftSpec("monomial", 2.0)
    spec = ProcessSpec(drift, NoiseSchedule("power_transformed", 0.9), t0=1.0, x0=-0.2)
    dt = 0.01
    grid = continuous.TimeGrid(1.0, 1.0 + steps * dt, dt)
    noise = discrete.NoiseSpec("rademacher")
    polya = discrete.UrnSpec("identity")

    def draws(gens):
        for gen in gens:
            for a, b in rng.chunk_ranges(steps):
                gen.standard_normal(b - a)

    same = lambda seeds: seeds  # noqa: E731
    return {
        "continuous.em_batch": (same, lambda seeds: continuous.em_batch(spec, grid, seeds)),
        "discrete.sgd_batch": (same, lambda seeds: discrete.sgd_batch(
            drift, 0.9, noise, -0.2, 10, 10 + steps, seeds)),
        "discrete.urn_final_batch": (same, lambda seeds: discrete.urn_final_batch(
            polya, polya.total0 + steps, seeds)),
        # draws alone: the generators are made before the clock starts
        "rng.standard_normal": (lambda seeds: [rng.make_rng(s) for s in seeds], draws),
    }


def width_probe(seed: int, steps: int = STEPS, repeats: int = REPEATS) -> dict:
    """`<module>.<function>.ns_per_trial_step.w<width>` for every kernel and
    width: the median of `repeats` timed calls."""
    metrics = {}
    for name, (prepare, kernel) in _kernels(steps).items():
        for width in WIDTHS:
            inputs = prepare([rng.derive_seed(seed, 9, width, i) for i in range(width)])
            times = []
            for _ in range(repeats):
                start = perf_counter()
                kernel(inputs)
                times.append(perf_counter() - start)
            ns = statistics.median(times) / (width * steps) * 1e9
            metrics[f"{name}.ns_per_trial_step.w{width}"] = ns
    return metrics
