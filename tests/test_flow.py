"""Integrator accuracy against closed-form shrinking solutions, run
termination, evolution-equation residuals, and flow symmetries."""

import itertools
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from codimflow import catalog, flow
from codimflow.errors import NonFiniteError, SolverError, UsageError
from codimflow.flow import (
    FlowConfig, FlowState, FlowTrace, Integrator, Termination, TraceRecord, adaptive_dt,
    assemble_step_matrix, estimate_singular_time, evolution_residuals, run,
    step_explicit, step_semi_implicit,
)
from codimflow.geometry import Immersion, build_bundle, laplace_beltrami
from codimflow.grid import STENCILS, AxisKind, neighbor_maps


def mean_radius(imm):
    return float(np.sqrt((imm.values**2).sum(-1)).mean())


def scale_preconditioner(monkeypatch, scale):
    """Scale the semi-implicit step's preconditioner M by 1 + scale. Where M
    is the step matrix's inverse, the first rung's answer, x = M b, then
    has a relative residual of about scale; bicgstab's iterates do not
    change with a scaled preconditioner, but for rounding."""
    precond = flow._preconditioner
    monkeypatch.setattr(flow, "_preconditioner",
                        lambda A, spec: (1.0 + scale) * precond(A, spec))


class TestSteps:
    def test_explicit_circle_oracle(self):
        # ODE r' = -1/r: after one step of size dt, r = sqrt(1 - 2 dt) up to
        # O(dt^2) + O(h^2) corrections
        st = FlowState.initial(catalog.circle(radius=1.0, n=256))
        st = step_explicit(st, 1e-4)
        assert mean_radius(st.imm) == pytest.approx(np.sqrt(1 - 2e-4), abs=2e-8)

    def test_explicit_step_call_count(self):
        # the explicit step's fixed cost, counted as calls into the package's
        # Python code: chart-static facts (stencil plans, ghost indices, the
        # Christoffel table, Chart.m, shape and fd_order) are read, not
        # rebuilt, so a later step on a 64-node circle makes 39 calls. The
        # count repeats exactly; a change that adds per-step calls says so here.
        root = os.path.dirname(flow.__file__) + os.sep
        cfg = FlowConfig()
        st = FlowState.initial(catalog.circle(n=64))
        st = step_explicit(st, adaptive_dt(st, cfg))   # warm-up: builds the plans
        st.stops(cfg)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code.co_filename.startswith(root)

        sys.setprofile(count)
        try:
            step_explicit(st, adaptive_dt(st, cfg)).stops(cfg)
        finally:
            sys.setprofile(None)
        assert calls == 39

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

    def test_non_finite_step_ends_degenerate(self):
        # the immersion's own check rejects non-finite stepped positions
        st = FlowState.initial(catalog.circle(n=64))
        H = st.bundle.H.copy()
        H[5, 0] = np.nan
        st = replace(st, bundle=replace(st.bundle, H=H))
        with pytest.raises(NonFiniteError):
            step_explicit(st, 1e-4)
        steps = flow.trajectory(st, FlowConfig())
        assert list(steps) == []
        assert steps.termination is Termination.DEGENERATE
        assert isinstance(steps.error, NonFiniteError)

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

    def test_semi_implicit_affine_part(self):
        # a curved graph with an affine summand: the solve acts on the periodic
        # part, with dt L-hat(affine) = -dt w-hat^k M_k added to its right
        # side, L-hat being the step's operator with the reference drift
        # w-hat (zero on this flat chart); with the bundle's own drift the
        # same term is Lap_g(affine) = H - Lap_g P
        imm = torus_graph()
        st = FlowState.initial(imm)
        b, dt = st.bundle, 1e-2
        P = imm.periodic_values()
        lap_aff = -np.einsum("...k,ak->...a", b.drift, imm.affine[0])
        lap_P = np.stack([laplace_beltrami(P[..., a], b) for a in range(imm.n)], -1)
        assert np.abs(lap_aff - (b.H - lap_P)).max() <= 1e-10 * np.abs(b.H).max()
        w_hat = flow.reference_drift(b)
        A = assemble_step_matrix(b, dt, drift=w_hat)
        rhs = P - dt * np.einsum("...k,ak->...a", w_hat, imm.affine[0])
        got = step_semi_implicit(st, dt).imm.periodic_values()
        lu = splu(A.tocsc())
        for a in range(imm.n):
            want = lu.solve(rhs[..., a].ravel()).reshape(P.shape[:-1])
            assert np.abs(got[..., a] - want).max() <= 1e-9 * np.abs(want).max()

    def test_predictor_iteration_budget(self, monkeypatch):
        """The second-order start bounds the iterations of a first ellipse step."""
        # the first rung, x = M b, misses on an ellipse (M inverts the step
        # matrix's mean along the circle, not the matrix); started at
        # F + dt q + dt^2 L-hat q (q = L-hat F), each component converges
        # within 1 bicgstab iteration, from the Euler predictor F + dt H or
        # from F within 2
        st = FlowState.initial(catalog.ellipse(n=128))
        solve = flow.bicgstab
        iters = []

        def counted(*args, **kwargs):
            iters.append(0)

            def tick(xk):
                iters[-1] += 1

            return solve(*args, **kwargs, callback=tick)

        monkeypatch.setattr(flow, "bicgstab", counted)
        step_semi_implicit(st, 2e-3)
        assert len(iters) == st.imm.n
        assert max(iters) <= 1, iters

    def test_second_order_start_residual(self, monkeypatch):
        # on a first 48x96 sphere step the second-order start leaves at most
        # a fifth of the Euler predictor's relative residual; the first rung
        # answers on the sphere, so it is made to miss
        st = FlowState.initial(catalog.sphere(radius=1.0, J=48, K=96))
        dt = 2e-3
        scale_preconditioner(monkeypatch, 1e-6)
        solve = flow.bicgstab
        ratios = []

        def measured(A, b, x0=None, **kwargs):
            euler = (st.imm.values + dt * st.bundle.H)[..., len(ratios)].ravel()
            res = [np.linalg.norm(A @ x - b) / np.linalg.norm(b) for x in (x0, euler)]
            ratios.append(res[0] / res[1])
            return solve(A, b, x0=x0, **kwargs)

        monkeypatch.setattr(flow, "bicgstab", measured)
        step_semi_implicit(st, dt)
        assert len(ratios) == st.imm.n
        assert max(ratios) <= 0.2, ratios


def torus_graph():
    """Graph immersion over a 16x24 fd4 torus with an affine summand."""
    from codimflow.grid import ChartSpec, Domain, GridField, make_chart
    from codimflow.lagrangian import Potential, lag_immersion

    ch = make_chart(ChartSpec(Domain.TORUS, (16, 24), fd_order=4))
    X, Y = ch.mesh()
    phi = 0.1 * np.sin(X) * np.cos(Y) + 0.05 * np.cos(2 * Y)
    return lag_immersion(Potential(np.array([[0.5, 0.1], [0.1, 0.8]]),
                                   GridField(ch, phi[..., None])))


def term_major_bincount(b, dt):
    """Reference step matrix: its CSR keys (row * N + column) and entries,
    with every coupling laid out term-major (term t, node n at t * N + n)
    and each position's couplings summed by one bincount in that order."""
    chart = b.chart
    m, N = chart.m, chart.node_count
    nbs = [neighbor_maps(chart, a) for a in range(m)]
    d1, d2 = ([(o, w / den) for o, w in sorted(weights)]
              for weights, den in (STENCILS[chart.fd_order, 1], STENCILS[chart.fd_order, 2]))
    ginv = b.ginv.reshape(N, m, m)
    w = b.drift.reshape(N, m)
    cols, couplings = [], []
    for a in range(m):
        h = chart.spacings[a]
        for o, c in d2:
            cols.append(nbs[a][o])
            couplings.append(ginv[:, a, a] * (c / (h * h)))
        for o, c in d1:
            cols.append(nbs[a][o])
            couplings.append(-w[:, a] * (c / h))
        for e in range(a + 1, m):
            he = chart.spacings[e]
            for o1, c1 in d1:
                for o2, c2 in d1:
                    cols.append(nbs[e][o2][nbs[a][o1]])
                    couplings.append(2.0 * ginv[:, a, e] * (c1 * c2 / (h * he)))
    key, slot = np.unique((np.arange(N) * N + np.stack(cols)).ravel(), return_inverse=True)
    data = -dt * np.bincount(slot.ravel(), weights=np.concatenate(couplings))
    data[key // N == key % N] += 1.0
    return key, data


def twisted_sphere(J=12, K=24):
    """The unit sphere with its longitude turned by 0.3 sin^2(theta): its
    couplings do not vary along the rings, but g^(theta phi) != 0 makes the
    step's symbol complex."""
    chart = catalog.sphere(radius=1.0, J=J, K=K).chart
    theta, phi = chart.mesh()
    psi = phi + 0.3 * np.sin(theta) ** 2
    return Immersion(chart, np.stack([np.sin(theta) * np.cos(psi),
                                      np.sin(theta) * np.sin(psi), np.cos(theta)], axis=-1))


STEP_CHARTS = {
    "sphere": lambda: catalog.sphere(radius=1.0, J=24, K=48, fd_order=4),
    "twisted-sphere": twisted_sphere,
    # three couplings meet in one CSR position on this small chart
    "sphere-8x8": lambda: catalog.sphere(radius=1.0, J=8, K=8),
    "clifford": lambda: catalog.clifford_torus(n1=16, n2=24, fd_order=4),
    "circle": lambda: catalog.circle(radius=1.0, n=64),
    "torus-graph": torus_graph,
    "three-axis": lambda: catalog.flat_torus_graph(m=3, n_per_axis=8),
}
# the preconditioner inverts the periodic-axis mean on every chart; on an
# interval (one periodic mode) the mean is the step matrix itself
MEAN_CHARTS = {**STEP_CHARTS, "interval": lambda: catalog.grim_reaper(n=32)}
# charts whose couplings do not vary along the periodic axes
UNIFORM_CHARTS = {
    **{name: STEP_CHARTS[name]
       for name in ("sphere", "sphere-8x8", "twisted-sphere", "clifford", "three-axis")},
    "whitney": lambda: catalog.whitney_sphere(radius=1.0, m=2, J=16, K=32),
}


def rigidly_moved(imm, seed=3):
    """imm turned by a random rotation of R^n and shifted."""
    rng = np.random.default_rng(seed)
    R, _ = np.linalg.qr(rng.standard_normal((imm.n, imm.n)))
    return Immersion(imm.chart, imm.values @ R.T + rng.standard_normal(imm.n))


def periodic_mean(A, chart):
    """Dense mean of A over the cyclic shifts s of the chart's periodic
    axes, entry (i, j) the mean of A[s(i), s(j)], built without the cached
    pattern."""
    dense = A.toarray()
    idx = np.arange(chart.node_count).reshape(chart.shape)
    axes = [a for a, kind in enumerate(chart.axis_kinds) if kind is AxisKind.PERIODIC]
    shifts = list(itertools.product(*(range(chart.shape[a]) for a in axes)))
    mean = np.zeros_like(dense)
    for s in shifts:
        p = np.roll(idx, s, axis=axes).ravel()
        mean += dense[np.ix_(p, p)]
    return mean / len(shifts)


def step_operator(imm, dt=2e-3, drift=flow.reference_drift):
    """The step matrix at imm with drift(bundle), by default the
    semi-implicit step's w-hat, its preconditioner and the chart."""
    b = build_bundle(imm)
    A = assemble_step_matrix(b, dt, drift=drift(b))
    return A, flow._preconditioner(A, b.chart.spec), b.chart


class TestStepMatrix:
    @pytest.mark.parametrize("name", list(STEP_CHARTS))
    def test_bit_identical_to_term_major_bincount(self, name):
        b = build_bundle(STEP_CHARTS[name]())
        A = assemble_step_matrix(b, 2e-3)
        key, data = term_major_bincount(b, 2e-3)
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        assert np.array_equal(rows * A.shape[0] + A.indices, key)
        assert A.data.tobytes() == data.tobytes()

    def test_cached_pattern_is_read_only(self):
        b = build_bundle(catalog.sphere(radius=1.0, J=8, K=8))
        A = assemble_step_matrix(b, 1e-2)
        pat = flow._step_pattern(b.chart.spec)
        arrays = [f for f in vars(pat).values() if isinstance(f, np.ndarray)]
        arrays += [pat.coupling.data, pat.coupling.indices, pat.coupling.indptr,
                   pat.ring_mean.data, pat.ring_mean.indices, pat.ring_mean.indptr,
                   A.indices, A.indptr]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    @pytest.mark.parametrize("name", list(STEP_CHARTS))
    def test_matches_matrix_free_operator(self, name):
        make = STEP_CHARTS[name]
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
        lambda: catalog.circle(radius=1.0, n=64),
        lambda: catalog.grim_reaper(n=64),
    ], ids=["circle", "interval"])
    def test_line_preconditioner_exact_on_one_axis(self, make, monkeypatch):
        # the periodic mean is the step matrix itself on a round circle (one
        # ring, a division by the symbol) and on an interval (one band), so
        # the first rung, x = M b, answers and no later rung is called
        st = FlowState.initial(make())
        _, M, _ = step_operator(st.imm, dt=1e-2)
        calls = []
        for name in ("bicgstab", "gmres", "splu"):
            monkeypatch.setattr(flow, name, lambda *args, **kwargs: calls.append(1))
        got = step_semi_implicit(st, 1e-2).imm.periodic_values()
        P = st.imm.periodic_values()
        assert calls == []
        for a in range(st.imm.n):
            assert np.array_equal(got[..., a].ravel(), M.matvec(P[..., a].ravel()))

    @pytest.mark.parametrize("name", list(MEAN_CHARTS))
    def test_periodic_mean_inverted_exactly(self, name):
        # the preconditioner inverts the step matrix's mean along the
        # periodic axes, the pole and reflection ghosts' couplings included
        A, M, chart = step_operator(MEAN_CHARTS[name]())
        x = np.random.default_rng(0).standard_normal(A.shape[0])
        y = M @ (periodic_mean(A, chart) @ x)
        assert np.abs(y - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("name", list(MEAN_CHARTS))
    def test_periodic_mean_follows_the_drift(self, name):
        # the mean is read off the step matrix, so a matrix assembled with
        # the bundle's own drift w (assemble_step_matrix's default) in place
        # of the step's w-hat is inverted as exactly
        A, M, chart = step_operator(MEAN_CHARTS[name](), drift=lambda b: b.drift)
        x = np.random.default_rng(0).standard_normal(A.shape[0])
        y = M @ (periodic_mean(A, chart) @ x)
        assert np.abs(y - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("moved", [False, True], ids=["in-place", "moved"])
    @pytest.mark.parametrize("name", list(UNIFORM_CHARTS))
    def test_exact_inverse_on_uniform_charts(self, name, moved):
        # on a round sphere (K = 48 and K = 8, also with twisted rings),
        # the Whitney sphere, a product of circles and a flat torus, in any
        # position, the couplings do not vary along the periodic axes, so
        # the mean is the step matrix and the preconditioner its inverse
        imm = UNIFORM_CHARTS[name]()
        A, M, _ = step_operator(rigidly_moved(imm) if moved else imm)
        x = np.random.default_rng(1).standard_normal(A.shape[0])
        y = M @ (A @ x)
        assert np.abs(y - x).max() <= 1e-10 * np.abs(x).max()

    @pytest.mark.parametrize("make, steps, called, most", [
        (lambda: catalog.whitney_sphere(radius=1.0, m=2, J=32, K=64), 40, 0, 0),
        (lambda: catalog.clifford_torus(n1=64, n2=64), 40, 0, 0),
        (catalog.flat_torus_graph, 40, 0, 0),
        (lambda: rigidly_moved(catalog.sphere(radius=1.0, J=24, K=48)), 40, 0, 0),
        (torus_graph, 4, 8, 40),
        (lambda: catalog.ellipse(n=128), 20, 40, 40),
    ], ids=["whitney", "clifford", "flat-torus-graph", "moved-sphere", "torus-graph",
            "ellipse"])
    def test_iterations_within_banded_lu_counts(self, make, steps, called, most, monkeypatch):
        # bicgstab calls and full iterations over the first steps at rho
        # 0.01 under the FFT-plus-banded-LU preconditioner: none where it is
        # the exact inverse, since the first rung, x = M b, answers there.
        # The couplings of torus_graph (along both periodic axes) and of the
        # ellipse vary along the periodic axes, so the first rung misses on
        # every component with a non-zero right-hand side (two per step on
        # each: torus_graph's affine components have none) and bicgstab
        # iterates
        solve = flow.bicgstab
        calls, iters = [0], [0]

        def counted(*args, **kwargs):
            calls[0] += 1

            def tick(xk):
                iters[0] += 1

            return solve(*args, **kwargs, callback=tick)

        monkeypatch.setattr(flow, "bicgstab", counted)
        cfg = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, curvature_cap_rho=0.01)
        trajectory = flow.trajectory(FlowState.initial(make()), cfg, max_steps=steps)
        assert sum(1 for _ in trajectory) == steps
        assert calls[0] == called, calls[0]
        assert iters[0] <= most, iters[0]


class TestReferenceConnection:
    def test_zero_on_flat_charts(self):
        spec = torus_graph().chart.spec
        gamma = flow.reference_connection(spec)
        assert gamma.shape == spec.resolution + (2, 2, 2)
        assert not gamma.any()

    def test_round_sphere_on_sphere_charts(self):
        # the Whitney sphere's chart gets the unit round sphere's connection
        spec = catalog.whitney_sphere(radius=1.0, m=2, J=12, K=24).chart.spec
        want = build_bundle(catalog.sphere(radius=1.0, J=12, K=24)).gamma
        assert np.array_equal(flow.reference_connection(spec), want)

    def test_round_sphere_moves_normally(self):
        # Gamma is scale-invariant, so a round sphere of any radius has no
        # tangential velocity beyond rounding
        b = build_bundle(catalog.sphere(radius=0.3, J=12, K=24))
        assert np.abs(flow.tangential_velocity(b)).max() <= 1e-12 * np.abs(b.drift).max()

    @pytest.mark.parametrize("make", [
        lambda: catalog.sphere(radius=1.0, J=8, K=8), torus_graph,
    ], ids=["sphere", "torus"])
    def test_cached_connection_is_read_only(self, make):
        gamma = flow.reference_connection(make().chart.spec)
        with pytest.raises(ValueError, match="read-only"):
            gamma[0, 0, 0, 0, 0] = 1.0


class TestSolverFallbacks:
    """The four rungs of a component's solve: x = M b, kept at a true
    relative residual of at most 1e-10, then bicgstab from the second-order
    predictor, restarted GMRES and a sparse LU, each kept at 1e-8; each path
    must land on the same positions. The fallbacks are exercised on an
    ellipse, where the first rung misses."""

    @staticmethod
    def state():
        return FlowState.initial(catalog.ellipse(n=128))

    @staticmethod
    def fail(A, b, x0=None, **kwargs):
        return x0.copy(), 1   # positive info: not converged

    @staticmethod
    def counted(monkeypatch, name):
        """Record each call of flow's solver rung name in the returned list."""
        calls, rung = [], getattr(flow, name)
        monkeypatch.setattr(flow, name,
                            lambda *args, **kwargs: calls.append(1) or rung(*args, **kwargs))
        return calls

    def test_gmres_path(self, monkeypatch):
        st = self.state()
        want = step_semi_implicit(st, 2e-3).imm.values
        monkeypatch.setattr(flow, "bicgstab", self.fail)
        calls = self.counted(monkeypatch, "gmres")
        got = step_semi_implicit(st, 2e-3).imm.values
        assert len(calls) == st.imm.n
        assert np.abs(got - want).max() < 1e-8

    def test_splu_path(self, monkeypatch):
        st = self.state()
        want = step_semi_implicit(st, 2e-3).imm.values
        monkeypatch.setattr(flow, "bicgstab", self.fail)
        monkeypatch.setattr(flow, "gmres", self.fail)
        calls = self.counted(monkeypatch, "splu")
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

    def test_every_rung_inaccurate_raises(self, monkeypatch):
        # each rung returns an answer, and none meets its bar
        scale_preconditioner(monkeypatch, 0.5)
        monkeypatch.setattr(flow, "bicgstab", self.fail)
        monkeypatch.setattr(flow, "gmres", self.fail)
        monkeypatch.setattr(flow, "splu", lambda A: SimpleNamespace(solve=np.zeros_like))
        with pytest.raises(SolverError, match=r"semi-implicit solve inaccurate "
                                              r"\(component 0, rel=1.00e\+00\)"):
            step_semi_implicit(self.state(), 2e-3)

    def test_false_convergence_takes_the_next_rung(self, monkeypatch):
        # bicgstab reports convergence at its start; the start's residual
        # (about 3e-7 here) misses 1e-8, so the step goes on to GMRES and
        # lands on the direct answer
        st = self.state()
        b = st.bundle
        A = assemble_step_matrix(b, 2e-3, drift=flow.reference_drift(b))
        lu = splu(A.tocsc())
        want = np.stack([lu.solve(st.imm.values[..., a].ravel()) for a in range(st.imm.n)], -1)
        monkeypatch.setattr(flow, "bicgstab", lambda A, b, x0=None, **kwargs: (x0.copy(), 0))
        calls = self.counted(monkeypatch, "gmres")
        got = step_semi_implicit(st, 2e-3).imm.values.reshape(want.shape)
        assert len(calls) == st.imm.n
        assert np.abs(got - want).max() < 1e-8

    @pytest.mark.parametrize("scale, called", [(1e-11, 0), (1e-9, 3)])
    def test_first_rung_kept_at_1e_10(self, scale, called, monkeypatch):
        # on a round sphere M b is kept at a relative residual below 1e-10
        # and passed on to bicgstab above it
        scale_preconditioner(monkeypatch, scale)
        calls = self.counted(monkeypatch, "bicgstab")
        step_semi_implicit(FlowState.initial(catalog.sphere(radius=1.0, J=12, K=24)), 2e-3)
        assert len(calls) == called

    def test_first_rung_stays_on_the_bicgstab_path(self, monkeypatch):
        # on a rigidly moved 48x96 sphere M is the step matrix's inverse,
        # so x = M b answers every solve; after 40 steps at dt 2e-3 the
        # positions lie within rounding of the path on which the first rung
        # misses and bicgstab answers (8.7e-13 apart, about 2e-13 of the
        # largest coordinate)
        imm = rigidly_moved(catalog.sphere(radius=1.0, J=48, K=96))
        cfg = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, fixed_dt=2e-3)

        def path():
            for st, _ in flow.trajectory(FlowState.initial(imm), cfg, max_steps=40):
                pass
            assert st.step_index == 40
            return st.imm.values

        calls = self.counted(monkeypatch, "bicgstab")
        got = path()
        assert calls == []
        scale_preconditioner(monkeypatch, 1e-6)
        want = path()
        assert len(calls) == 40 * imm.n
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_right_hand_side_answered_by_first_rung(self, monkeypatch):
        # torus_graph's first two components are affine: their periodic
        # parts and, on a flat chart (w-hat = 0), their right-hand sides
        # are 0, and the first rung keeps M 0 = 0 exactly; bicgstab solves
        # the other two
        st = FlowState.initial(torus_graph())
        assert not st.imm.periodic_values()[..., :2].any()
        calls = self.counted(monkeypatch, "bicgstab")
        new = step_semi_implicit(st, 2e-3).imm.periodic_values()
        assert not new[..., :2].any()
        assert len(calls) == st.imm.n - 2

    def test_singular_symbol_raises(self):
        # on a flat torus the step's symbol is 1 - dt sigma_k, sigma_k the
        # symbol of the Laplacian at wavenumber k; the negative dt =
        # 1 / sigma_(2, 3) zeroes it there (and at (3, 2), (6, 3), ...), and
        # the first in C order is named
        st = FlowState.initial(catalog.flat_torus_graph(m=2, n_per_axis=8))
        ginv, (h0, h1), K = st.bundle.ginv, st.imm.chart.spacings, 8
        sigma = -2.0 * (ginv[..., 0, 0].mean() / h0**2
                        + ginv[..., 1, 1].mean() / h1**2 * (1.0 - np.cos(2 * np.pi * 3 / K)))
        with pytest.raises(SolverError,
                           match=r"preconditioner is singular at wavenumber \(2, 3\), ring 0$"):
            step_semi_implicit(st, 1.0 / sigma)

    def test_singular_band_raises(self):
        # on a sphere chart each longitude wavenumber p has a band B_p =
        # I - dt L_p coupling the rings; dt = 1 / mu for a real eigenvalue
        # mu of L_p makes B_p singular, and the wavenumber is named
        st = FlowState.initial(catalog.sphere(radius=1.0, J=12, K=24))
        chart, p = st.imm.chart, 3
        J, K = chart.shape
        A, _, _ = step_operator(st.imm, dt=1.0)
        L = np.eye(A.shape[0]) - periodic_mean(A, chart)
        phase = np.exp(2j * np.pi * p * np.arange(K) / K)
        mu = np.linalg.eigvals(L.reshape(J, K, J, K)[:, 0] @ phase)
        mu = mu[np.argmin(np.abs(mu.imag))]
        assert abs(mu.imag) <= 1e-9 * abs(mu)
        with pytest.raises(SolverError,
                           match=rf"preconditioner is singular at wavenumber {p}, ring \d+$"):
            step_semi_implicit(st, 1.0 / mu.real)

    def test_curve_steps_factor_nothing(self, monkeypatch):
        # the circulant mean preconditions curves too: splu is the last rung
        # only, and bicgstab converges on an ellipse
        calls = self.counted(monkeypatch, "splu")
        cfg = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, curvature_cap_rho=0.01)
        steps = flow.trajectory(self.state(), cfg, max_steps=5)
        assert sum(1 for _ in steps) == 5
        assert calls == []


class TestRun:
    def test_circle_terminates_near_half(self):
        cfg = FlowConfig(cfl_sigma=0.5, record_every=50)
        trace, final = run(catalog.circle(radius=1.0, n=256), cfg)
        assert trace.termination is Termination.CURVATURE_CAP
        assert 0.49 < final.t < 0.501
        est = estimate_singular_time(trace)
        assert est.reliable
        assert est.t_hat == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("dt, t_max", [(0.01, 7.0), (0.01, 10.0), (0.007, 7.0)])
    def test_rounding_sliver_before_the_horizon_is_stepped(self, dt, t_max):
        # the fixed steps sum to about 1e-13 short of the horizon: the sliver
        # clipped onto it is below stop_dt_min, but the dt law is not, so
        # the run reaches its horizon and does not read the sliver as a
        # singularity signal
        cfg = FlowConfig(fixed_dt=dt, stop_t_max=t_max, record_every=10**6)
        trace, final = run(catalog.circle(radius=10.0, n=16), cfg)
        assert trace.termination is Termination.TIME_REACHED
        assert trace.records[-1].dt < cfg.stop_dt_min
        assert final.t == pytest.approx(t_max, rel=1e-14)

    def test_stop_before_the_first_step(self):
        # the unit circle's |A|^2 = 1 is over the cap at the initial state:
        # the stream is that one state, recorded once, with its snapshot
        trace, final = run(catalog.circle(n=64), FlowConfig(stop_max_A2=0.5))
        assert trace.termination is Termination.CURVATURE_CAP
        assert final.step_index == 0 and final.t == 0.0
        [rec] = trace.records
        assert (rec.step_index, rec.t, rec.dt) == (0, 0.0, 0.0)
        assert rec.snapshot is final.imm

    def test_solver_error_ends_degenerate(self, monkeypatch):
        # on an ellipse (two components, where the first rung misses) every
        # later solver rung fails from the third step on (bicgstab and GMRES
        # do not converge, splu finds A singular), so that step raises
        # SolverError; run keeps the trace up to step 2 and ends there, with
        # the exception's message
        solve, calls = flow.bicgstab, []

        def fails_late(A, b, x0=None, **kwargs):
            calls.append(1)
            return solve(A, b, x0=x0, **kwargs) if len(calls) <= 4 else (x0.copy(), 1)

        def singular(A):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(flow, "bicgstab", fails_late)
        monkeypatch.setattr(flow, "gmres", TestSolverFallbacks.fail)
        monkeypatch.setattr(flow, "splu", singular)
        cfg = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, curvature_cap_rho=0.01)
        trace, final = run(catalog.ellipse(n=128), cfg, max_steps=5)
        assert trace.termination is Termination.DEGENERATE
        assert trace.termination_detail == "semi-implicit solve failed: Factor is exactly singular"
        assert trace.records[-1].step_index == final.step_index == 2

    def test_flattening_graph_dt_bounded(self):
        # max|A|^2 of torus_graph falls to 1e-21, so the brake rho / max|A|^2
        # no longer bounds dt; rho Vol^(2/m) does, and 40 steps run
        cfg = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, curvature_cap_rho=0.01)
        trace, final = run(torus_graph(), cfg, max_steps=40)
        assert trace.termination is Termination.TIME_REACHED
        assert trace.records[-1].step_index == final.step_index == 40
        dt = max(r.dt for r in trace.records)
        assert dt <= 0.01 * max(r.volume for r in trace.records)

    def test_stationary_graph_time_reached(self):
        from codimflow.grid import ChartSpec, Domain, GridField, make_chart
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        imm = lag_immersion(Potential(np.zeros((2, 2)),
                                      GridField(ch, np.zeros((16, 16, 1)))))
        cfg = FlowConfig(stop_t_max=1.0, fixed_dt=0.05)
        trace, final = run(imm, cfg)
        assert trace.termination is Termination.TIME_REACHED
        vols = np.array([r.volume for r in trace.records])
        assert np.abs(vols - vols[0]).max() < 1e-10

    def test_volume_monotone_and_rate(self):
        # per-step decrease matches dt * int |H|^2 dmu within 5 percent
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.1, record_every=1)
        trace, _ = run(catalog.ellipse(a=1.0, b=0.8, n=128), cfg)
        vols = np.array([r.volume for r in trace.records])
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

    def test_min_physical_spacing_is_the_per_node_minimum(self):
        # per-axis minima of g_aa give the per-node minimum of
        # sqrt(g_aa) * dx_a bit for bit: sqrt and the product are monotone
        sphere = catalog.sphere(radius=1.0, J=24, K=48)
        R, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        for imm in (catalog.circle(radius=1.0, n=256),
                    catalog.circle(radius=0.7, n=64, ambient_dim=3),
                    Immersion(sphere.chart, sphere.values @ R.T),
                    catalog.clifford_torus(fd_order=4),
                    catalog.whitney_sphere(radius=1.0, m=2)):
            b = build_bundle(imm)
            per_node = np.sqrt(np.einsum("...aa->...a", b.g)) * np.array(imm.chart.spacings)
            assert flow.min_physical_spacing(b) == float(per_node.min())


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

    def test_triple_out_of_order(self, circle_triple):
        s0, s1, s2 = circle_triple
        with pytest.raises(UsageError, match="state triple out of order"):
            evolution_residuals(s2, s0, mid=s1)

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

    def test_lie_terms_on_a_reparametrized_shrinking_sphere(self):
        # the shrinking sphere sqrt(1 - 4t) pulled back by the flow of
        # V = a sin(theta) d_theta, which moves colatitudes as
        # tan(theta_t / 2) = tan(theta / 2) e^(a t): its metric and volume
        # form change at O(a), all of it the Lie terms of V
        imm = catalog.sphere(radius=1.0, J=24, K=48)
        theta, phi = imm.chart.mesh()
        a = 0.5

        def state(t):
            th = 2.0 * np.arctan(np.tan(theta / 2) * np.exp(a * t))
            x = np.stack([np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi),
                          np.cos(th)], axis=-1)
            moved = Immersion(imm.chart, np.sqrt(1.0 - 4.0 * t) * x)
            return FlowState(t=t, imm=moved, bundle=build_bundle(moved))

        s0, s1, s2 = (state(0.05 + k * 1e-4) for k in range(3))
        V = np.stack([a * np.sin(theta), np.zeros_like(theta)], axis=-1)
        plain = evolution_residuals(s0, s2, mid=s1)
        lie = evolution_residuals(s0, s2, mid=s1, V=V)
        assert lie.christoffel is None and lie.second_fundamental is None
        assert set(lie.as_dict()) == set(plain.as_dict()) - {"christoffel", "second_fundamental"}
        for name in ("metric", "volume_form"):
            assert getattr(plain, name).l2_rel > 1e-2, name
            assert getattr(lie, name).l2_rel < 1e-4, name
        for name, rn in lie.as_dict().items():
            assert rn.linf < 1e-3 * rn.scale, (name, rn.linf)

    @pytest.mark.parametrize("dt, names", [
        (1e-4, ("metric", "volume_form")),
        # once the step's own O(dt) error is small, the scalar terms show too
        (6.25e-6, ("metric", "volume_form", "mean_sq", "heat")),
    ])
    def test_tangential_velocity_lowers_semi_implicit_residuals(self, dt, names):
        # a semi-implicit triple on the Whitney sphere moves tangentially; its
        # residuals fall once V's terms are added
        st = FlowState.initial(catalog.whitney_sphere(radius=1.0, m=2, J=32, K=64))
        s1 = step_semi_implicit(st, dt)
        s2 = step_semi_implicit(s1, dt)
        plain = evolution_residuals(st, s2, mid=s1)
        lie = evolution_residuals(st, s2, mid=s1, V=flow.tangential_velocity(s1.bundle))
        for name in names:
            assert getattr(lie, name).l2_rel < getattr(plain, name).l2_rel, name

    def test_whitney_a_sq_converges_under_refinement(self):
        # the Whitney sphere's normal bundle is curved, so the |A|^2 check
        # reads the weight of its 2|R^perp|^2 term
        def a_sq(J):
            st = FlowState.initial(catalog.whitney_sphere(radius=1.0, m=2, J=J, K=2 * J))
            s1 = step_semi_implicit(st, 6.25e-6)
            s2 = step_semi_implicit(s1, 6.25e-6)
            V = flow.tangential_velocity(s1.bundle)
            return evolution_residuals(st, s2, mid=s1, V=V).a_sq.l2_rel

        errs = [a_sq(J) for J in (16, 32, 48)]
        assert errs[0] >= 3.0 * errs[1] and errs[1] >= 3.0 * errs[2], errs

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

    @staticmethod
    def trace(t, a2):
        tr = FlowTrace(termination=Termination.CURVATURE_CAP)
        tr.records = [TraceRecord(t=ti, dt=0.0, max_A2=a, max_A2_trusted=a, max_H2=a,
                                  volume=1.0, min_detg=1.0, argmax_node=0)
                      for ti, a in zip(t, a2)]
        return tr

    def test_fit_slope_not_negative(self):
        # one early jump, then a slow fall within the 0.1% backstep
        # tolerance: max|A|^2 ends above its start, but 1/max|A|^2 rises
        # over the window
        a2 = np.concatenate([[1.0], 1.005 * (1.00001 / 1.005) ** (np.arange(9) / 8)])
        est = estimate_singular_time(self.trace(np.arange(10.0), a2))
        assert (est.reliable, est.detail) == (False, "fit slope not negative")
        assert math.isnan(est.t_hat)

    def test_fitted_root_not_in_the_future(self):
        # 1/max|A|^2 falls faster than affinely, so the fit's root lies inside
        # the data, and a last backstep leaves no secant continuation
        a2 = np.append(2.0 ** np.arange(9), 255.9)
        est = estimate_singular_time(self.trace(np.arange(10.0), a2))
        assert (est.reliable, est.detail) == (False, "fitted root not in the future")
        assert est.t_hat <= 9.0


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


def circle_records(record_every, snapshot_every=0, stop_t_max=0.05):
    cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=stop_t_max, record_every=record_every,
                     snapshot_every=snapshot_every)
    return run(catalog.circle(radius=1.0, n=64), cfg)[0].records, "snapshot"


def potential_records(record_every, snapshot_every=0, stop_t_max=0.05):
    from codimflow.grid import ChartSpec, Domain, GridField, make_chart
    from codimflow.lagrangian import Potential, PotentialFlowConfig, ma_run

    ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
    x1, x2 = ch.mesh()
    phi = 0.1 * np.sin(x1) + 0.1 * np.cos(x2)
    p0 = Potential(np.diag([0.5, 0.8]), GridField(ch, phi[..., None]))
    cfg = PotentialFlowConfig(stop_t_max=stop_t_max, record_every=record_every,
                              snapshot_every=snapshot_every)
    return ma_run(p0, cfg).records, "potential"


@pytest.mark.parametrize("records", [circle_records, potential_records])
class TestRecordCadence:
    """Both flows record and snapshot on one cadence."""

    def test_final_record_reports_its_own_step(self, records):
        every_step, _ = records(1)
        sparse, _ = records(7)
        # the final state is off the cadence and came from a clipped step
        assert (len(every_step) - 1) % 7 != 0
        assert every_step[-1].dt < every_step[-2].dt
        assert (sparse[-1].t, sparse[-1].dt) == (every_step[-1].t, every_step[-1].dt)

    def test_on_cadence_records_keep_their_step(self, records):
        every_step, _ = records(1)
        sparse, _ = records(3)
        assert [(r.t, r.dt) for r in sparse[:-1]] == \
               [(r.t, r.dt) for r in every_step[:-1:3]]

    @pytest.mark.parametrize("snapshot_every", [0, 1, 8])
    def test_snapshot_positions(self, records, snapshot_every):
        recs, attr = records(1, snapshot_every, stop_t_max=0.2)
        last = len(recs) - 1
        assert last > 8
        expected = [i for i in range(last + 1) if i in (0, last)
                    or (snapshot_every > 0 and i % snapshot_every == 0)]
        assert [i for i, r in enumerate(recs) if getattr(r, attr) is not None] == expected
