"""Every pfg name the benchmark harness in ``perfbench/`` uses still resolves.

The harness is read as source, never imported or edited: the tracer's
``TARGETS``, the pfg names its modules import, the attributes they read off
imported pfg modules and the keywords they pass to pfg callables.  A change
that removes or renames one of them fails here, not in a benchmark run.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _attr(obj, path: str):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_targets_resolve():
    (targets,) = [
        node.value
        for node in _tree("tracer.py").body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    pairs = ast.literal_eval(targets)
    assert pairs
    for module, path in pairs:
        assert callable(_attr(importlib.import_module(f"pfg.{module}"), path)), (module, path)


def _pfg_names(tree: ast.Module) -> dict[str, object]:
    """Local name -> pfg object for each pfg import of a module."""
    names: dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pfg":
                    names[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pfg":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:  # a submodule not yet imported
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = value
    return names


@pytest.mark.parametrize("name", ["workloads.py", "test_perfbench.py"])
def test_harness_imports_attributes_and_keywords_resolve(name):
    tree = _tree(name)
    names = _pfg_names(tree)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if isinstance(owner, types.ModuleType):
                assert hasattr(owner, expr.attr), f"{name}: {owner.__name__}.{expr.attr}"
                return getattr(owner, expr.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        elif isinstance(node, ast.Call) and node.keywords and callable(target := resolve(node.func)):
            params = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, f"{name}: {target.__qualname__}({kw.arg}=)"
