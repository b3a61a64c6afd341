"""Per-layer tracing for the benchmark's traced runs.

The program itself carries no instrumentation. A traced run swaps public
functions in codimflow's module namespaces for timing wrappers and restores
them afterwards. A wrapper records its calls and its self time: its own
duration minus the durations of wrapped calls nested inside it. Self times
of all wrappers plus the time no wrapper covers add up to the traced wall
time, so per-layer figures account for the whole episode.

The wrappers pass arguments and results through untouched (the solver
wrapper adds only an iteration-counting callback), so a traced episode ends
on bit-identical positions; the benchmark checks that on every traced run.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# (stat name, home module, attribute). The stencils are wrapped everywhere
# except inside grid itself, so diff_mixed's own diff1 calls count toward
# diff_mixed: "grid.diff" is stencil work as the geometry layer sees it.
TARGETS = [
    ("grid.diff", "codimflow.grid", "diff1"),
    ("grid.diff", "codimflow.grid", "diff2"),
    ("grid.diff", "codimflow.grid", "diff_mixed"),
    ("grid.integrate_values", "codimflow.grid", "integrate_values"),
    ("grid.neighbor_maps", "codimflow.grid", "neighbor_maps"),
    ("geometry.build_bundle", "codimflow.geometry", "build_bundle"),
    ("geometry.structure_residuals", "codimflow.geometry", "structure_residuals"),
    ("geometry.normal_part", "codimflow.geometry", "normal_part"),
    ("geometry.laplace_beltrami", "codimflow.geometry", "laplace_beltrami"),
    ("geometry.nabla_A", "codimflow.geometry", "nabla_A"),
    ("flow.run", "codimflow.flow", "run"),
    ("flow.step_explicit", "codimflow.flow", "step_explicit"),
    ("flow.step_semi_implicit", "codimflow.flow", "step_semi_implicit"),
    ("flow.adaptive_dt", "codimflow.flow", "adaptive_dt"),
    ("flow.assemble_step_matrix", "codimflow.flow", "assemble_step_matrix"),
    ("flow.solve", "codimflow.flow", "bicgstab"),
    ("flow.solve", "codimflow.flow", "gmres"),
    ("flow.solve", "codimflow.flow", "splu"),
    ("flow.evolution_residuals", "codimflow.flow", "evolution_residuals"),
    ("flow.estimate_singular_time", "codimflow.flow", "estimate_singular_time"),
    ("singularity.huisken_functional", "codimflow.singularity", "huisken_functional"),
    ("singularity.monotonicity_check", "codimflow.singularity", "monotonicity_check"),
    ("singularity.classify_blowup", "codimflow.singularity", "classify_blowup"),
    ("singularity.type1_rescale", "codimflow.singularity", "type1_rescale"),
    ("singularity.soliton_residual", "codimflow.singularity", "soliton_residual"),
    ("lagrangian.ma_run", "codimflow.lagrangian", "ma_run"),
    ("lagrangian.lagrangian_angle_of_hessian", "codimflow.lagrangian", "lagrangian_angle_of_hessian"),
    ("lagrangian.lag_immersion", "codimflow.lagrangian", "lag_immersion"),
    ("lagrangian.identity_suite", "codimflow.lagrangian", "lagrangian_residual"),
    ("lagrangian.identity_suite", "codimflow.lagrangian", "lagrangian_angle"),
    ("lagrangian.identity_suite", "codimflow.lagrangian", "mean_curvature_form"),
    ("lagrangian.identity_suite", "codimflow.lagrangian", "pinching_gap"),
    ("snapshots.write_snapshot", "codimflow.snapshots", "write_snapshot"),
    ("snapshots.read_snapshot", "codimflow.snapshots", "read_snapshot"),
    ("snapshots.write_checkpoint", "codimflow.snapshots", "write_checkpoint"),
    ("snapshots.read_checkpoint", "codimflow.snapshots", "read_checkpoint"),
    ("snapshots.write_diagnostics", "codimflow.snapshots", "write_diagnostics"),
    ("snapshots.resume_run", "codimflow.snapshots", "resume_run"),
]
LAYERS = ("grid", "geometry", "flow", "singularity", "lagrangian", "snapshots")
# positional index of the output path, for the bytes-written count
_PATH_ARG = {"write_snapshot": 1, "write_checkpoint": 0, "write_diagnostics": 1}

# The per-layer metrics a traced run reports, with their units. Each is a
# median over the traced episodes of the run.
PER_LAYER = [
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("geometry.build_bundle.calls", "count"),
    ("geometry.build_bundle.self_s", "s"),
    ("geometry.build_bundle.us_per_call", "us"),
    ("geometry.structure_residuals.calls", "count"),
    ("geometry.structure_residuals.self_s", "s"),
    ("geometry.normal_part.calls", "count"),
    ("geometry.normal_part.self_s", "s"),
    ("geometry.laplace_beltrami.self_s", "s"),
    ("geometry.nabla_A.self_s", "s"),
    ("grid.diff.calls", "count"),
    ("grid.diff.self_s", "s"),
    ("grid.integrate_values.calls", "count"),
    ("grid.neighbor_maps.hit_ratio", "ratio"),
    ("flow.solve.calls", "count"),
    ("flow.solve.self_s", "s"),
    ("flow.solve.iters", "count"),
    ("flow.solve.iters_p50", "count"),
    ("flow.solve.iters_p99", "count"),
    ("flow.solve.fallbacks", "count"),
    ("flow.assemble_step_matrix.calls", "count"),
    ("flow.assemble_step_matrix.self_s", "s"),
    ("flow.assemble_step_matrix.nnz", "count"),
    ("flow.step.ms_p50", "ms"),
    ("flow.step.ms_p99", "ms"),
    ("flow.adaptive_dt.self_s", "s"),
    ("flow.run.self_s", "s"),
    ("flow.evolution_residuals.calls", "count"),
    ("flow.evolution_residuals.self_s", "s"),
    ("flow.estimate_singular_time.self_s", "s"),
    ("singularity.huisken_functional.calls", "count"),
    ("singularity.huisken_functional.self_s", "s"),
    ("singularity.classify_blowup.self_s", "s"),
    ("singularity.monotonicity_check.self_s", "s"),
    ("singularity.type1_rescale.self_s", "s"),
    ("singularity.soliton_residual.self_s", "s"),
    ("lagrangian.Potential.hessian.calls", "count"),
    ("lagrangian.Potential.hessian.self_s", "s"),
    ("lagrangian.lagrangian_angle_of_hessian.calls", "count"),
    ("lagrangian.lagrangian_angle_of_hessian.self_s", "s"),
    ("lagrangian.identity_suite.self_s", "s"),
    ("snapshots.write_snapshot.self_s", "s"),
    ("snapshots.read_snapshot.self_s", "s"),
    ("snapshots.write_checkpoint.self_s", "s"),
    ("snapshots.read_checkpoint.self_s", "s"),
    ("snapshots.write_diagnostics.self_s", "s"),
    ("snapshots.bytes_written", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Timing wrappers for one traced episode; use install() as a context."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.step_ms: list[float] = []
        self.solve_iters: list[int] = []
        self.fallbacks = 0
        self.nnz = 0
        self.bytes_written = 0
        self.cache_lookups = (0, 0)   # neighbour-map cache (hits, misses)
        self._child = [0.0]   # per open wrapper: time spent in nested wrappers

    def _timed(self, name, fn, after=None):
        stat = self.stats.setdefault(name, _Stat())
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - child.pop()
                stat.calls += 1
                child[-1] += dt
            if after is not None:
                after(args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_solver(self, fn):
        iters = self.solve_iters

        def solve(*args, **kwargs):
            count = [0]

            def callback(_xk):
                count[0] += 1

            kwargs.setdefault("callback", callback)
            try:
                return fn(*args, **kwargs)
            finally:
                iters.append(count[0])

        return solve

    def _hooks(self, attr):
        if attr in ("step_explicit", "step_semi_implicit"):
            return lambda a, r, dt: self.step_ms.append(dt * 1e3)
        if attr == "assemble_step_matrix":
            def nnz(a, r, dt):
                self.nnz += r.nnz
            return nnz
        if attr in ("gmres", "splu"):
            def fallback(a, r, dt):
                self.fallbacks += 1
            return fallback
        if attr in _PATH_ARG:
            def written(a, r, dt):
                self.bytes_written += os.path.getsize(a[_PATH_ARG[attr]])
            return written
        return None

    @contextmanager
    def install(self):
        """Swap the wrappers in for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "codimflow" or name.startswith("codimflow.")]
        cache = getattr(sys.modules["codimflow.grid"], "_neighbor_maps_cached", None)
        before = cache.cache_info() if cache else None
        undo = []
        try:
            for stat, home, attr in TARGETS:
                orig = getattr(sys.modules[home], attr)
                fn = self._counted_solver(orig) if attr == "bicgstab" else orig
                wrapped = self._timed(stat, fn, self._hooks(attr))
                for mod in modules:
                    if stat == "grid.diff" and mod.__name__ == home:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            pot = sys.modules["codimflow.lagrangian"].Potential
            undo.append((pot, "hessian", pot.hessian))
            pot.hessian = self._timed("lagrangian.Potential.hessian", pot.hessian)
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)
            if cache:
                after = cache.cache_info()
                self.cache_lookups = (after.hits - before.hits, after.misses - before.misses)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced episode; wall_s is its traced wall
        time."""
        def self_s(name):
            return self.stats[name].self_s if name in self.stats else 0.0

        def calls(name):
            return self.stats[name].calls if name in self.stats else 0

        out = {f"{layer}.self_s": sum(s.self_s for n, s in self.stats.items()
                                      if n.split(".")[0] == layer)
               for layer in LAYERS}
        for name, _ in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls(base)
            elif kind == "self_s" and base not in LAYERS:
                out[name] = self_s(base)
        n_bundle = calls("geometry.build_bundle")
        out["geometry.build_bundle.us_per_call"] = (
            self_s("geometry.build_bundle") / n_bundle * 1e6 if n_bundle else 0.0)
        hits, misses = self.cache_lookups
        out["grid.neighbor_maps.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["flow.solve.iters"] = sum(self.solve_iters)
        out["flow.solve.iters_p50"] = _percentile(self.solve_iters, 50)
        out["flow.solve.iters_p99"] = _percentile(self.solve_iters, 99)
        out["flow.solve.fallbacks"] = self.fallbacks
        out["flow.assemble_step_matrix.nnz"] = self.nnz
        out["flow.step.ms_p50"] = _percentile(self.step_ms, 50)
        out["flow.step.ms_p99"] = _percentile(self.step_ms, 99)
        out["snapshots.bytes_written"] = self.bytes_written
        attributed = sum(s.self_s for s in self.stats.values())
        out["trace.unattributed_frac"] = (wall_s - attributed) / wall_s
        return out

    @property
    def samples(self) -> dict[str, int]:
        """Sample counts behind the percentiles."""
        return {"flow.step": len(self.step_ms), "flow.solve": len(self.solve_iters)}
