"""Every name by which the benchmark's tracer and workloads reach into the
package must resolve: a traced run looks each one up with getattr, so a name
that stops resolving fails every traced run with AttributeError."""

import functools
import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


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
