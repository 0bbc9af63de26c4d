import ast
import importlib
import importlib.util
import pkgutil
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
