import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import saddlelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(saddlelab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"saddlelab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(saddlelab.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    assert [n for n in imported if not hasattr(saddlelab, n)] == []


def _bench_tracing():
    """bench/tracing.py, loaded by path: the benchmark's per-layer tracer
    patches the package at the sites it names."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("saddlelab_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _bench_tracing()


@pytest.mark.parametrize("module, attr, name", TRACING.SPAN_SITES,
                         ids=[f"{m.__name__}.{a}" for m, a, _ in TRACING.SPAN_SITES])
def test_every_span_site_resolves(module, attr, name):
    # the tracer wraps each site; a site a refactor drops breaks the benchmark
    assert callable(getattr(module, attr, None))


def test_tracer_counts_one_drift_eval_per_step():
    # the tracer counts drift_eval calls and, against a followed barrier,
    # the trial-steps of the state vector each call is handed; a kernel that
    # stopped calling drift_eval per step would read 0 on both.  It also
    # wraps make_rng to count every value drawn; a kernel that built its
    # generators some other way would read 0 draws
    from saddlelab import continuous, discrete
    from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec

    drift = DriftSpec("monomial", 2.0)
    spec = ProcessSpec(drift, NoiseSchedule("exp_half"), t0=0.0, x0=-0.2)
    grid = continuous.TimeGrid(0.0, 1.0, 0.01)
    seeds, barrier = range(5), 1e6   # a barrier no trial reaches
    runs = [  # (kernel call, steps, drift_eval calls per step, barrier)
        (lambda: discrete.sgd_batch(drift, 0.9, discrete.NoiseSpec("rademacher"),
                                    -0.2, 10, 110, seeds, barrier=barrier),
         100, 1, barrier),
        (lambda: continuous.em_batch(spec, grid, seeds, barrier=barrier),
         100, 1, barrier),
        (lambda: continuous.coupled_violations_batch(spec, spec, 0.1, -0.1, grid,
                                                     seeds),
         100, 2, None),
        (lambda: discrete.urn_final_batch(discrete.UrnSpec("identity"), 102, seeds),
         100, 0, None),
        (lambda: discrete.urn_final_batch(discrete.UrnSpec("constant"), 102, seeds),
         100, 0, None),
    ]
    tracer = TRACING.Tracer()
    for run, steps, per_step, followed in runs:
        tracer.reset()
        tracer.install()
        try:
            tracer.follow(followed)
            run()
        finally:
            tracer.follow(None)
            tracer.uninstall()
        assert tracer.drift_calls == per_step * steps
        assert tracer.draw_values == len(seeds) * steps
        if followed is not None:
            assert tracer.useful_steps == tracer.classified_steps == len(seeds) * steps


_POOL = ("concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("argv, absent", [
    (None, ("numpy.random", *_POOL, "statistics")),
    (["urn", "--steps", "100", "--trials", "8", "--jobs", "1"],
     (*_POOL, "statistics")),
    (["linear-dichotomy", "--trials", "8", "--horizon", "1", "--dt", "0.01",
      "--jobs", "1"], _POOL),
], ids=["import", "urn", "linear-dichotomy"])
def test_import_leaves_numpy_random_out(argv, absent, tmp_path):
    # numpy.random costs every command's start-up; rng imports it with the
    # first stream key.  The process pool is imported where a pool starts
    # and statistics where a Wilson interval is computed, so a serial run
    # never imports the pool and the urn neither
    code = "import sys, saddlelab.cli as cli\n"
    if argv is not None:
        code += f"assert cli.main({argv + ['--out', str(tmp_path)]!r}) == 0\n"
    code += f"print([m for m in {absent!r} if m in sys.modules])"
    src = str(Path(saddlelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_tracer_installs_and_uninstalls():
    tracer = TRACING.Tracer()
    before = {name: dict(vars(importlib.import_module(f"saddlelab.{name}")))
              for name in MODULES}
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    after = {name: dict(vars(importlib.import_module(f"saddlelab.{name}")))
             for name in MODULES}
    assert after == before
