"""The names of the package that the benchmark under ``perfbench/`` reaches.

The benchmark looks functions up by name: its tracer wraps each
``(module, function)`` of ``TARGETS`` through ``getattr``, and its
workloads and checks import and call the package from outside.  These
tests read ``perfbench/`` without running it, so that a removal or a
rename in the package fails here and not first in a benchmark run.
"""

import ast
import importlib
import importlib.util

import pytest

from ncregions.netmodel import builtin_network

from conftest import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = [pair for pairs in _tracer().TARGETS.values() for pair in pairs]
    assert targets
    for module, fn in targets:
        assert callable(getattr(importlib.import_module(f"ncregions.{module}"), fn)), (module, fn)


def _used_names(path):
    """``(module, name)`` of every name imported from ``ncregions`` and of
    every attribute read from an imported ``ncregions`` module, and the
    attributes read from a variable ``net``."""
    modules = {}  # local name -> ncregions module it is bound to
    used, on_net = set(), set()
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ncregions":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"ncregions.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncregions."):
            used.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                used.add((modules[node.value.id], node.attr))
            elif node.value.id == "net":
                on_net.add(node.attr)
    return used, on_net


@pytest.mark.parametrize("name", ["checks.py", "workloads.py"])
def test_every_name_the_workloads_and_checks_use_resolves(name):
    used, on_net = _used_names(PERFBENCH / name)
    assert used
    for module, attr in sorted(used):
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    net = builtin_network("fano")
    for attr in sorted(on_net):
        assert hasattr(net, attr), attr
