"""Every name by which the benchmark's tracer and workloads reach into the
package must resolve: a traced run looks each tracer target up with getattr,
and every run calls the workloads' names, so a name that stops resolving
fails the benchmark with AttributeError or ImportError. perfbench/ is read
by path and never changed here."""

import ast
import functools
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(home, attr) for _, home, attr in module.TARGETS}


@pytest.mark.parametrize("home, attr", sorted(_targets() | {
    ("codimflow.flow", "bicgstab"),                  # SphereSemiImplicit.prepare calls it
    ("codimflow.lagrangian", "Potential.hessian"),   # the tracer wraps it on the class
}))
def test_benchmark_target_resolves(home, attr):
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(home))
    assert callable(target)


def _workload_names():
    """(module, dotted name) for every codimflow name the workloads use: the
    names imported with `from codimflow... import`, their attributes, and
    the attributes of the imported modules (catalog.whitney_sphere, ...)."""
    with open(WORKLOADS, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    home = {}   # local name -> (module it comes from, attribute path there)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("codimflow"):
            for alias in node.names:
                # `from codimflow import flow` names a module, `from
                # codimflow.flow import run` an attribute of one
                home[alias.asname or alias.name] = (
                    (f"codimflow.{alias.name}", "") if node.module == "codimflow"
                    else (node.module, alias.name))
    names = {(module, attr) for module, attr in home.values() if attr}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in home):
            module, attr = home[node.value.id]
            names.add((module, f"{attr}.{node.attr}" if attr else node.attr))
    return names


@pytest.mark.parametrize("home, attr", sorted(_workload_names()))
def test_workload_name_resolves(home, attr):
    functools.reduce(getattr, attr.split("."), importlib.import_module(home))
