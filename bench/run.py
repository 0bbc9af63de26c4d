"""saddlelab benchmark: run one workload end to end, or traced per layer.

    python3 bench/run.py --workload sweep-continuous --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout; saddlelab is imported from ``src/``.
An iteration runs every invocation of the workload once, back to back, and
then checks each output (exit code, files written, pinned counts at the
pinned seeds, science gates, and equality with the run's first iteration).
A warm-up iteration is checked but not timed.  Then iterations repeat
until ``--seconds`` have passed, and the run reports medians.

``--trace 0`` reports the end-to-end metrics (wall_s, trial_steps_per_s,
setup_s, peak_rss_mb).  Times are rescaled to a fixed machine speed by a
reference computation timed around every iteration (see reference.py); the
raw perf_counter medians are printed beside them.  ``--trace 1`` reports
the per-layer metrics: the kernel width probe, then untraced and traced
iterations in turn, so that tracing overhead is the traced median wall
time minus the untraced one.  Per-layer times are raw.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
invocation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import SpeedTracker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep-continuous", "discrete-simulate", "urn", "linear-exact")
STARTUPS = 15         # fresh interpreters per run; setup_s is their median
MIN_ITERATIONS = 3    # timed iterations per run, even past --seconds


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if "ns_per" in name:
        return "ns"
    if name.endswith("_bytes"):
        return "B_computed"       # width x chunk x 8 B, not a measured size
    if name.endswith("share"):
        return "ratio"
    if name.endswith(("_calls", ".blocks", ".cells")):
        return "count"
    if name == "trial_steps_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    return "s"


class Runner:
    """Runs a workload's iterations and checks every invocation's output."""

    def __init__(self, workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list = []
        self._first: dict = {}

    def iteration(self) -> float:
        """Run every invocation once; return the wall time from the first
        call to the last output written.  Checks run after the clock stops."""
        invocations = self.workload.invocations
        dirs = [self.out_dir / inv.label for inv in invocations]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        outputs = []
        start = perf_counter()
        for inv, d in zip(invocations, dirs):
            try:
                outputs.append(inv.call(d))
            except Exception as exc:  # a crash is a failed invocation, not an abort
                traceback.print_exc(file=sys.stderr)
                outputs.append(exc)
        wall = perf_counter() - start
        for inv, out in zip(invocations, outputs):
            self.attempted += 1
            problem = self._check(inv, out)
            if problem:
                self.failures.append(f"{inv.label}: {problem}")
                print(f"FAILED {self.workload.name}/{inv.label}: {problem}", file=sys.stderr)
        return wall

    def _check(self, inv, out):
        from workloads import CheckFailed

        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        try:
            # through JSON, so the summary compares like pinned.json's
            summary = json.loads(json.dumps(inv.summarize(out)))
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            return f"output check: {type(exc).__name__}: {exc}"
        if summary != self._first.setdefault(inv.label, summary):
            return f"outcome {summary} differs from the run's first {self._first[inv.label]}"
        pinned = self.workload.pinned()
        if pinned is not None and summary != pinned.get(inv.label):
            return f"outcome {summary} differs from pinned {pinned.get(inv.label)}"
        if self.workload.sizes.calibrated:
            failed = inv.gates(summary)
            if failed:
                return "; ".join(failed)
        return None


def _timed_iterations(runner: Runner, seconds: float, speed=None, between=None) -> list:
    """Iterate for `seconds` and return the raw wall times.  A SpeedTracker
    `speed` is marked around each iteration; `between` runs after each
    iteration, outside both measurements."""
    walls = []
    if speed is not None:
        speed.mark()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < MIN_ITERATIONS:
        walls.append(runner.iteration())
        if speed is not None:
            speed.mark()
        if between is not None:
            between()
    return walls


def measure_setup(workload, out_dir: Path):
    """Raw wall times of fresh interpreters that import saddlelab, parse
    the workload's first command line and resolve its config, and the
    machine slowness around each."""
    argv = [sys.executable, str(BENCH / "startup.py"), *workload.startup_argv,
            "--out", str(out_dir / "startup")]
    times = []
    speed = SpeedTracker()
    speed.mark()
    for _ in range(STARTUPS):
        start = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(perf_counter() - start)
        speed.mark()
    return times, [speed.scale(i) for i in range(len(times))]


def _scaled_median(times: list, scales: list) -> float:
    return statistics.median(t / s for t, s in zip(times, scales))


def peak_rss_mb() -> float:
    """Larger of the benchmark process's peak RSS and its children's (pool
    workers and start-up probes); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform()}


def end_to_end(workload, seconds: float, out_dir: Path):
    startups, startup_scales = measure_setup(workload, out_dir)
    runner = Runner(workload, out_dir)
    runner.iteration()
    speed = SpeedTracker(workload.jobs)
    try:
        walls = _timed_iterations(runner, seconds, speed=speed)
    finally:
        speed.close()
    scales = [speed.scale(i) for i in range(len(walls))]
    wall = _scaled_median(walls, scales)
    metrics = {"wall_s": wall,
               "trial_steps_per_s": workload.trial_steps / wall,
               "setup_s": _scaled_median(startups, startup_scales),
               "peak_rss_mb": peak_rss_mb()}
    raw = {"raw wall_s": statistics.median(walls),
           "raw setup_s": statistics.median(startups),
           "machine slowness": statistics.median(scales)}
    return runner, metrics, {"walls": walls, "scales": scales, "startups": startups,
                             "startup_scales": startup_scales, "raw": raw}


def per_layer(workload, seconds: float, out_dir: Path):
    from probe import width_probe
    from tracing import Tracer

    probe = width_probe(workload.seed, steps=workload.sizes.probe_steps)
    runner = Runner(workload, out_dir)
    runner.iteration()
    tracer = Tracer()
    traced, layers = [], []

    def traced_iteration():
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.iteration())
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics())

    plain = _timed_iterations(runner, seconds, between=traced_iteration)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics.update(probe)
    with open(out_dir / "spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "pid"],
                   "spans": tracer.spans}, fh)
    return runner, metrics, {"walls": plain, "traced_walls": traced}


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              sizes=None, out_dir: Path = OUT) -> dict:
    """Run one workload, print every metric, and return the result object."""
    import workloads

    workload = workloads.build(name, seed, sizes or workloads.FULL)
    out_dir = Path(out_dir) / name
    out_dir.mkdir(parents=True, exist_ok=True)
    measure = per_layer if trace else end_to_end
    runner, metrics, detail = measure(workload, seconds, out_dir)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    env = provenance()
    with open(out_dir / f"result_trace{int(trace)}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trial_steps": workload.trial_steps, "provenance": env,
                   "failures": runner.failures, **detail, "result": result}, fh, indent=1)
    print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}: "
          f"{len(detail['walls'])} timed iterations of {workload.trial_steps} "
          f"nominal trial-steps")
    print(f"# provenance {json.dumps(env)}")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {unit_of(key)}")
    for key, value in detail.get("raw", {}).items():
        print(f"# {key} = {value!r}")
    print(f"failed_frac = {len(runner.failures) / runner.attempted!r} "
          f"({len(runner.failures)} of {runner.attempted} invocations)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the first pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every pool is stopped and joined
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import saddlelab
    except ImportError as exc:
        print(f"error: cannot import saddlelab from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(saddlelab.__file__).resolve().parents:
        print(f"error: saddlelab was imported from {saddlelab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    result = benchmark(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
