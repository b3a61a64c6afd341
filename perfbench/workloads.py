"""The benchmark's workloads: inputs generated from a seed, one timed
episode each, and the correctness checks taken from the acceptance suite.

Every workload is isometry- or translation-equivariant in its seed: the seed
only picks a rigid motion of the initial immersion (or a cyclic phase shift
of the potential), so the work done and the thresholds checked do not depend
on it while the arithmetic does, down to rounding.

Calls into codimflow go through module attributes (``flow.run``, not a
name imported from it), so a traced run sees them through the timing
wrappers swapped into those namespaces.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from codimflow import catalog, flow, geometry, lagrangian, singularity, snapshots
from codimflow.flow import FlowConfig, FlowState, Integrator, Termination
from codimflow.grid import ChartSpec, Domain, GridField, make_chart
from codimflow.lagrangian import Potential, PotentialFlowConfig
from codimflow.singularity import BlowupClass, DensityParams, SolitonKind

ROUNDING_FLOOR = 1e-6  # same floor as the acceptance suite's refinement checks

# Checks that fail at this revision for a known, tracked reason (ROADMAP
# item 1: the sphere's pole rings set the terminal curvature). They are
# counted as failed but do not make the run incorrect.
EXPECTED_RED = frozenset({"criterion 7: sphere Type I", "criterion 7: sphere c_hat"})


@dataclass
class Episode:
    """One timed pass over a workload; start and end are perf_counter
    stamps around the work, outside them only the checks run."""

    start: float
    end: float
    steps: int
    rel_err: float                      # the workload's headline accuracy figure
    checks: list = field(default_factory=list)   # (label, ok, detail)
    final: np.ndarray | None = None     # final positions, for the trace comparison
    figures: dict = field(default_factory=dict)  # named accuracy figures
    ref_s: float | None = None          # wall_s at the reference speed (speed.py)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def rigid_motion(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A proper rotation of R^n and a translation in [-1, 1]^n from the seed."""
    rng = np.random.default_rng([seed, n])
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-1.0, 1.0, size=n)


def phase_shift(seed: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Whole-node cyclic shifts of a periodic chart from the seed."""
    rng = np.random.default_rng([seed, len(shape)])
    return tuple(int(rng.integers(0, n)) for n in shape)


def _shifted(values: np.ndarray, shift: tuple[int, ...]) -> np.ndarray:
    return np.roll(values, shift, axis=tuple(range(len(shift))))


def _check(checks, label, ok, detail):
    checks.append((label, bool(ok), detail))


def _radius_error(trace, t_max, area_to_radius, rate):
    t = trace.times
    r = np.array([area_to_radius(rec.volume) for rec in trace.records])
    sel = t <= t_max
    return float(np.abs(r[sel] - np.sqrt(1.0 - rate * t[sel])).max())


def _finish_like_cli(trace, final, workdir, name):
    """Write the CSV, the final snapshot and a checkpoint as `codimflow run`
    does, then read the checkpoint back."""
    base = os.path.join(workdir, name)
    snapshots.write_diagnostics(trace, base + ".csv")
    snapshots.write_snapshot(final, base + "-final.snap")
    snapshots.write_checkpoint(base + ".ckpt", final, trace, name)
    back, _ = snapshots.read_checkpoint(base + ".ckpt", scenario_text=name)
    return back


def _shrinker_residual(trace, q, t_hat):
    """Shrinker residual of the last snapshot before t_hat, rescaled about
    (q, t_hat): the Type I blow-up limit should solve H + F^perp = 0."""
    rec = [r for r in trace.records if r.snapshot is not None and r.t < t_hat][-1]
    state = FlowState(t=rec.t, imm=rec.snapshot, bundle=geometry.build_bundle(rec.snapshot))
    resc, _ = singularity.type1_rescale(state, q, t_hat)
    return singularity.soliton_residual(resc, SolitonKind.SHRINKER).linf


# ---------------------------------------------------------------------------
# circle-explicit
# ---------------------------------------------------------------------------

class CircleExplicit:
    """Unit circle, N = 256, explicit Euler to the curvature cap with the
    Gaussian density recorded at (q, t0) = (centre, 1/2): criteria 1, 5 and
    the circle part of 7."""

    name = "circle-explicit"
    episode_s = 9.0     # typical episode on a 2-core machine; sizes a run

    def prepare(self, seed: int, small: bool = False):
        Q, b = rigid_motion(seed, 2)
        imm = catalog.circle(radius=1.0, n=32 if small else 256).transformed(Q, b)
        return {
            "state": FlowState.initial(imm),
            "cfg": FlowConfig(cfl_sigma=0.5, record_every=25, snapshot_every=8),
            "centre": DensityParams(q=b, t0=0.5),
            "off_centre": DensityParams(q=Q @ np.array([0.3, 0.0]) + b, t0=0.5),
        }

    def episode(self, inp, workdir) -> Episode:
        state0 = inp["state"]
        t0 = time.perf_counter()
        trace, final = flow.run(state0.imm, inp["cfg"], huisken_params=inp["centre"],
                                initial_state=state0)
        est = flow.estimate_singular_time(trace)
        rep = singularity.classify_blowup(trace)
        mono = singularity.monotonicity_check(trace, inp["off_centre"])
        shrink = _shrinker_residual(trace, inp["centre"].q, est.t_hat)
        back = _finish_like_cli(trace, final, workdir, self.name)
        t1 = time.perf_counter()

        checks = []
        r_err = _radius_error(trace, 0.45, lambda v: v / (2 * math.pi), 2.0)
        t_err = abs(est.t_hat - 0.5)
        _check(checks, "criterion 1: radius error for t <= 0.45", r_err < 1e-3, f"{r_err:.2e} < 1e-3")
        _check(checks, "criterion 1: T_hat", est.reliable and t_err < 0.01,
               f"{est.t_hat:.5f} = 0.5 +- 0.01")
        _check(checks, "criterion 1: terminated at curvature cap",
               trace.termination is Termination.CURVATURE_CAP, trace.termination)
        _check(checks, "criterion 1: runtime", t1 - t0 < 30.0, f"{t1 - t0:.1f}s < 30s")
        vals = np.array([r.huisken for r in trace.records if r.huisken is not None and r.t <= 0.45])
        drift = float(np.abs(vals - math.sqrt(2 * math.pi) * math.exp(-0.5)).max())
        _check(checks, "criterion 5: centred density constant", drift < 1e-3, f"{drift:.2e} < 1e-3")
        _check(checks, "criterion 5: off-centre density strictly decreasing",
               bool(np.all(np.diff(mono.values) < 0)), f"{len(mono.values)} snapshots")
        _check(checks, "criterion 7: circle Type I", rep.classification is BlowupClass.TYPE_I,
               rep.classification)
        _check(checks, "criterion 7: circle c_hat", abs(rep.c_hat - 0.5) < 0.05,
               f"{rep.c_hat:.4f} = 0.5 +- 0.05")
        _check(checks, "criterion 7: circle lower rate", rep.lower_rate >= 0.1,
               f"{rep.lower_rate:.3f} >= 0.1")
        _check(checks, "checkpoint round trip bit-exact",
               np.array_equal(back.imm.values, final.imm.values), "final positions")
        return Episode(
            start=t0, end=t1, steps=final.step_index, rel_err=t_err / 0.5, checks=checks,
            final=final.imm.values,
            figures={"t_hat_abs_err": t_err, "radius_max_err": r_err,
                     "shrinker_residual_linf": shrink},
        )


# ---------------------------------------------------------------------------
# sphere-semi-implicit and sphere-to-cap
# ---------------------------------------------------------------------------

_PHASE_A = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, curvature_cap_rho=0.004,
                      stop_t_max=0.2, record_every=2, snapshot_every=8)
_PHASE_B = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, curvature_cap_rho=0.008,
                      stop_max_A2=1e6, record_every=2, snapshot_every=8)


def _sphere_radius(area):
    return math.sqrt(area / (4 * math.pi))


class SphereSemiImplicit:
    """Phase A of the criterion 2/7/8 fixture: the unit sphere on the 48x96
    staggered chart, semi-implicit with rho = 0.004 to t = 0.2 (about 200
    solve-dominated steps). The full run to the curvature cap does not fit
    one benchmark run; SphereToCap below adds phase B."""

    name = "sphere-semi-implicit"
    episode_s = 15.0

    def prepare(self, seed: int, small: bool = False):
        Q, b = rigid_motion(seed, 3)
        J = 12 if small else 48
        state = FlowState.initial(catalog.sphere(radius=1.0, J=J, K=2 * J).transformed(Q, b))
        # pay scipy's first-solve cost and fill the neighbour-map cache here,
        # not in the first timed step
        A = flow.assemble_step_matrix(state.bundle, 1e-3)
        flow.bicgstab(A, np.ones(A.shape[0]), rtol=1e-10, atol=0.0)
        return {"state": state, "centre": b}

    def episode(self, inp, workdir) -> Episode:
        state0 = inp["state"]
        t0 = time.perf_counter()
        trA, stA = flow.run(state0.imm, _PHASE_A, initial_state=state0)
        est = flow.estimate_singular_time(trA)
        shrink = _shrinker_residual(trA, inp["centre"], est.t_hat)
        back = _finish_like_cli(trA, stA, workdir, self.name)
        t1 = time.perf_counter()

        checks = []
        r_err = _radius_error(trA, 0.2, _sphere_radius, 4.0)
        t_err = abs(est.t_hat - 0.25)
        _check(checks, "criterion 2: radius error for t <= 0.2", r_err < 1e-2, f"{r_err:.2e} < 1e-2")
        _check(checks, "criterion 2: T_hat extrapolated from phase A",
               est.reliable and t_err < 0.01, f"{est.t_hat:.5f} = 0.25 +- 0.01")
        _check(checks, "phase A reached t = 0.2", trA.termination is Termination.TIME_REACHED,
               trA.termination)
        _check(checks, "checkpoint round trip bit-exact",
               np.array_equal(back.imm.values, stA.imm.values), "final positions")
        return Episode(
            start=t0, end=t1, steps=stA.step_index, rel_err=r_err, checks=checks,
            final=stA.imm.values,
            figures={"t_hat_abs_err": t_err, "radius_max_err": r_err,
                     "shrinker_residual_linf": shrink},
        )


class SphereToCap(SphereSemiImplicit):
    """The whole two-phase fixture: phase A, then rho = 0.008 to max|A|^2 =
    1e6, classification and Type I rescaling (criteria 2, 7 and 8). It takes
    130-250 s on a 2-core machine, so it is run by name and is not a timed
    workload. Its terminal phase amplifies rounding: the step count depends
    on the seed's rigid motion (1,569 steps unrotated, 1,799 for seed 1),
    one more symptom of the pole-ring defect that keeps criterion 7 red."""

    name = "sphere-to-cap"
    episode_s = 200.0

    def episode(self, inp, workdir) -> Episode:
        state0 = inp["state"]
        t0 = time.perf_counter()
        trA, stA = flow.run(state0.imm, _PHASE_A, initial_state=state0)
        trB, stB = snapshots.resume_run(stA, trA, _PHASE_B)
        est = flow.estimate_singular_time(trB)
        rep = singularity.classify_blowup(trB)
        q = inp["centre"]
        s_vals, radii = [], []
        for rec in trB.records:
            if rec.snapshot is None or est.t_hat - rec.t <= 1e-8:
                continue
            st = FlowState(t=rec.t, imm=rec.snapshot, bundle=geometry.build_bundle(rec.snapshot))
            resc, s = singularity.type1_rescale(st, q, est.t_hat)
            s_vals.append(s)
            radii.append(float(np.sqrt(((resc.values) ** 2).sum(-1)).mean()))
        shrink = _shrinker_residual(trB, q, est.t_hat)
        back = _finish_like_cli(trB, stB, workdir, self.name)
        t1 = time.perf_counter()

        checks = []
        r_err = _radius_error(trA, 0.2, _sphere_radius, 4.0)
        t_err = abs(est.t_hat - 0.25)
        _check(checks, "criterion 2: radius error for t <= 0.2", r_err < 1e-2, f"{r_err:.2e} < 1e-2")
        _check(checks, "criterion 2: T_hat", est.reliable and t_err < 0.01,
               f"{est.t_hat:.5f} = 0.25 +- 0.01")
        _check(checks, "criterion 2: terminated at curvature cap",
               trB.termination is Termination.CURVATURE_CAP, trB.termination)
        _check(checks, "criterion 7: sphere Type I", rep.classification is BlowupClass.TYPE_I,
               f"{rep.classification} growth {rep.growth:.1f}")
        _check(checks, "criterion 7: sphere c_hat", abs(rep.c_hat - 0.5) < 0.05,
               f"{rep.c_hat:.4f} = 0.5 +- 0.05")
        _check(checks, "criterion 7: sphere lower rate", rep.lower_rate >= 0.1,
               f"{rep.lower_rate:.3f} >= 0.1")
        s_vals, radii = np.array(s_vals), np.array(radii)
        window = (s_vals >= s_vals.min()) & (s_vals <= s_vals.min() + 2.0)
        dev = float(np.abs(radii[window] - math.sqrt(2.0)).max())
        _check(checks, "criterion 8: rescaled radius sqrt(2) over s in [s0, s0+2]", dev < 1e-2,
               f"{dev:.2e} < 1e-2 across {int(window.sum())} snapshots")
        _check(checks, "criterion 8: window coverage", window.sum() >= 5, f"{int(window.sum())}")
        _check(checks, "checkpoint round trip bit-exact",
               np.array_equal(back.imm.values, stB.imm.values), "final positions")
        return Episode(
            start=t0, end=t1, steps=stB.step_index, rel_err=t_err / 0.25, checks=checks,
            final=stB.imm.values,
            figures={"t_hat_abs_err": t_err, "radius_max_err": r_err,
                     "c_hat": rep.c_hat, "shrinker_residual_linf": shrink},
        )


# ---------------------------------------------------------------------------
# verify-codim2
# ---------------------------------------------------------------------------

_STRUCTURE = ("gauss", "codazzi", "ricci", "simons", "simons2")


class VerifyCodim2:
    """Criterion 4's structure suite at two resolutions, criterion 10, and
    `codimflow verify`-style check instants along the explicit flows of the
    Clifford torus (64^2, fd4) and the Whitney sphere (48x96) in R^4: at each
    instant the evolution residuals of a consecutive triple, the structure
    residuals of its middle state, and a snapshot written and read back."""

    name = "verify-codim2"
    episode_s = 8.5
    instants = 4        # check instants per surface
    record_every = 10   # explicit steps from one check instant to the next

    def prepare(self, seed: int, small: bool = False):
        Q3, b3 = rigid_motion(seed, 3)
        Q4, b4 = rigid_motion(seed, 4)
        res = {"round sphere": 48, "clifford torus": 64, "whitney sphere": 48}
        if small:
            res = {k: 16 for k in res}

        def make(label, J):
            if label == "round sphere":
                return catalog.sphere(radius=1.0, J=J, K=2 * J).transformed(Q3, b3)
            if label == "clifford torus":
                return catalog.clifford_torus(n1=J, n2=J, fd_order=4).transformed(Q4, b4)
            return catalog.whitney_sphere(radius=1.0, m=2, J=J, K=2 * J).transformed(Q4, b4)

        suite = {label: (make(label, J), make(label, J // 2)) for label, J in res.items()}
        flows = [FlowState.initial(suite[label][0]) for label in ("clifford torus", "whitney sphere")]
        n_g = 16 if small else 64
        ch = make_chart(ChartSpec(Domain.TORUS, (n_g, n_g)))
        mesh = ch.mesh()
        phi = _shifted(0.1 * np.sin(mesh[0]) * np.sin(mesh[1]), phase_shift(seed, ch.shape))
        graph = Potential(np.zeros((2, 2)), GridField(ch, phi[..., None]))
        return {"suite": suite, "flows": flows, "graph": graph,
                "cfg": FlowConfig(cfl_sigma=0.5, record_every=self.record_every),
                "instants": 1 if small else self.instants}

    def episode(self, inp, workdir) -> Episode:
        cfg = inp["cfg"]
        t0 = time.perf_counter()
        suite = {label: (geometry.structure_residuals(fine), geometry.structure_residuals(coarse))
                 for label, (fine, coarse) in inp["suite"].items()}
        whitney = inp["suite"]["whitney sphere"][0]
        wb = geometry.build_bundle(whitney)
        ratio_err = float(np.abs(wb.normA2 / wb.normH2 - 0.75).max())
        imm_g = lagrangian.lag_immersion(inp["graph"])
        bg = geometry.build_bundle(imm_g)
        gap, identity = lagrangian.pinching_gap(imm_g, bg)
        gap_min = float(gap[bg.normH2 > 1e-8].min())
        round_trips, finals, steps = [], [], 0
        for k, state in enumerate(inp["flows"]):
            for i in range(inp["instants"]):
                for _ in range(cfg.record_every - 1):
                    state = flow.step_explicit(state, flow.adaptive_dt(state, cfg))
                s1 = flow.step_explicit(state, flow.adaptive_dt(state, cfg))
                s2 = flow.step_explicit(s1, flow.adaptive_dt(s1, cfg))
                flow.evolution_residuals(state, s2, mid=s1)
                geometry.structure_residuals(s1.imm, s1.bundle)
                path = os.path.join(workdir, f"{self.name}-{k}-{i}.snap")
                snapshots.write_snapshot(s1, path)
                imm_back, t_back = snapshots.read_snapshot(path)
                round_trips.append(np.array_equal(imm_back.values, s1.imm.values) and t_back == s1.t)
                steps += cfg.record_every + 1
                state = s2
            finals.append(state.imm.values.ravel())
        t1 = time.perf_counter()

        checks = []
        for label, (rep_f, rep_c) in suite.items():
            for nm in _STRUCTURE:
                f, c = getattr(rep_f, nm), getattr(rep_c, nm)
                _check(checks, f"criterion 4: {label} {nm}", f.l2_rel < 1e-2,
                       f"relative L2 {f.l2_rel:.2e} < 1e-2")
                if c.l2 < ROUNDING_FLOOR and f.l2 < ROUNDING_FLOOR:
                    _check(checks, f"criterion 4: {label} {nm} order", True, "at rounding level")
                else:
                    order = math.log2(c.l2_rel / f.l2_rel)
                    _check(checks, f"criterion 4: {label} {nm} order", order >= 1.8,
                           f"{order:.2f} >= 1.8")
        _check(checks, "criterion 10: Whitney |A|^2/|H|^2 = 0.75 +- 0.01", ratio_err < 0.01,
               f"{ratio_err:.2e}")
        _check(checks, "criterion 10: generic graph gap strictly positive", gap_min > 0,
               f"{gap_min:.3e}")
        _check(checks, "criterion 10: pinching identity", identity < 1e-8, f"{identity:.2e} < 1e-8")
        _check(checks, "snapshot round trips bit-exact", all(round_trips),
               f"{sum(round_trips)}/{len(round_trips)}")
        worst = max(getattr(rep_f, nm).l2_rel for rep_f, _ in suite.values() for nm in _STRUCTURE)
        return Episode(
            start=t0, end=t1, steps=steps, rel_err=worst, checks=checks,
            final=np.concatenate(finals),
            figures={"structure_l2_rel_max": worst, "whitney_ratio_err": ratio_err},
        )


# ---------------------------------------------------------------------------
# potential-flow
# ---------------------------------------------------------------------------

class PotentialFlow:
    """Criterion 11's potential, S = diag(0.5, 0.8) and phi0 = 0.1 (sin x1 +
    cos x2), at 128^2 under the potential flow to t = 1, then criterion 9's
    identity suite on the initial and final states."""

    name = "potential-flow"
    episode_s = 6.5
    t_end = 1.0

    def prepare(self, seed: int, small: bool = False):
        n = 32 if small else 128
        ch = make_chart(ChartSpec(Domain.TORUS, (n, n)))
        mesh = ch.mesh()
        phi = _shifted(0.1 * (np.sin(mesh[0]) + np.cos(mesh[1])), phase_shift(seed, ch.shape))
        p0 = Potential(np.diag([0.5, 0.8]), GridField(ch, phi[..., None]))
        return {"p0": p0, "t_end": 0.1 if small else self.t_end}

    @staticmethod
    def _identities(p: Potential):
        imm = lagrangian.lag_immersion(p)
        bundle = geometry.build_bundle(imm)
        lag_res = lagrangian.lagrangian_residual(imm, bundle)
        alpha, angle_defect = lagrangian.lagrangian_angle(p)
        rep = lagrangian.mean_curvature_form(imm, bundle, alpha=alpha)
        return lag_res, angle_defect, rep

    def episode(self, inp, workdir) -> Episode:
        p0 = inp["p0"]
        t0 = time.perf_counter()
        tr = lagrangian.ma_run(p0, PotentialFlowConfig(stop_t_max=inp["t_end"], record_every=50))
        suites = [("initial", self._identities(p0)), ("final", self._identities(tr.final))]
        snapshots.write_diagnostics(tr, os.path.join(workdir, self.name + ".csv"))
        t1 = time.perf_counter()

        checks = []
        for when, (lag_res, angle_defect, rep) in suites:
            _check(checks, f"criterion 9 ({when}): Lagrangian residual", lag_res < 1e-10,
                   f"{lag_res:.2e} < 1e-10")
            _check(checks, f"criterion 9 ({when}): angle identity", angle_defect < 1e-8,
                   f"{angle_defect:.2e} < 1e-8")
            _check(checks, f"criterion 9 ({when}): |d alpha - H|",
                   rep.dalpha_minus_H_residual.linf < 1e-3,
                   f"{rep.dalpha_minus_H_residual.linf:.2e} < 1e-3")
            _check(checks, f"criterion 9 ({when}): |dH|", rep.dH_residual.linf < 1e-3,
                   f"{rep.dH_residual.linf:.2e} < 1e-3")
        amax = np.array([r.alpha_max for r in tr.records])
        amin = np.array([r.alpha_min for r in tr.records])
        _check(checks, "criterion 9: max alpha non-increasing", np.all(np.diff(amax) <= 1e-13),
               f"over {len(amax)} records")
        _check(checks, "criterion 9: min alpha non-decreasing", np.all(np.diff(amin) >= -1e-13),
               f"over {len(amin)} records")
        h = np.array([r.hess_phi_inf for r in tr.records])
        law = h[0] * math.exp(-tr.records[-1].t / 1.64)
        decay_err = abs(h[-1] / law - 1.0)
        # the linearised slowest mode, with test_lagrangian's 8% tolerance
        _check(checks, "|Hess phi| follows the slowest-mode decay", decay_err < 0.08,
               f"{decay_err:.2e} < 0.08")
        _check(checks, "|Hess phi| strictly decreasing", np.all(np.diff(h) < 0),
               f"over {len(h)} records")
        steps = math.ceil(inp["t_end"] / tr.records[1].dt - 1e-9)  # full steps of dt, last one cut
        return Episode(
            start=t0, end=t1, steps=steps, rel_err=decay_err, checks=checks,
            final=tr.final.phi.values,
            figures={"hess_decay_rel_err": decay_err},
        )


WORKLOADS = {w.name: w for w in (CircleExplicit(), SphereSemiImplicit(), VerifyCodim2(),
                                 PotentialFlow(), SphereToCap())}
