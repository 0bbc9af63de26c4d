import ast
import importlib
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
