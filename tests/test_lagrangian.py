"""Lagrangian graphs, the angle identities, the mean curvature form, the
potential flow, and the pinching diagnostic."""

import numpy as np
import pytest

from codimflow import catalog
from codimflow.errors import NonFiniteError, UsageError
from codimflow.flow import FlowConfig, FlowState, run, step_explicit
from codimflow.geometry import Immersion, build_bundle, d1_tensor, d2_tensor
from codimflow.grid import ChartSpec, Domain, GridField, make_chart
from codimflow.lagrangian import (
    Potential, PotentialFlowConfig, angle_evolution_residual, lag_immersion,
    lagrangian_angle, lagrangian_angle_of_hessian, lagrangian_residual,
    ma_run, mean_curvature_form, pinching_gap,
)


def torus(n, m=2, order=2):
    return make_chart(ChartSpec(Domain.TORUS, (n,) * m, fd_order=order))


def potential(S, phi_fn=None, n=64, m=2, order=2):
    ch = torus(n, m, order)
    mesh = ch.mesh()
    phi = np.zeros(ch.shape) if phi_fn is None else phi_fn(*mesh)
    return Potential(np.asarray(S, dtype=float), GridField(ch, phi[..., None]))


class TestPotentialAndGraph:
    def test_zero_potential_flat(self):
        p = potential(np.zeros((2, 2)), n=16)
        b = build_bundle(lag_immersion(p))
        assert np.abs(b.g - np.eye(2)).max() == 0.0
        assert np.abs(b.A).max() == 0.0

    def test_identity_quadratic(self):
        p = potential(np.eye(2), n=16)
        b = build_bundle(lag_immersion(p))
        assert np.abs(b.g - 2 * np.eye(2)).max() < 1e-14

    def test_curve_metric_oracle(self):
        # m = 1, phi = eps sin x: F = (x, eps cos x), g = 1 + eps^2 sin^2 x
        eps = 0.1
        ch = torus(128, m=1, order=4)
        phi = eps * np.sin(ch.coords[0])
        p = Potential(np.zeros((1, 1)), GridField(ch, phi[:, None]))
        imm = lag_immersion(p)
        b = build_bundle(imm)
        x = ch.coords[0]
        assert np.abs(imm.values[:, 1] - eps * np.cos(x)).max() < 1e-6
        assert np.abs(b.g[:, 0, 0] - (1 + eps**2 * np.sin(x) ** 2)).max() < 1e-3

    def test_mean_zero_gauge(self):
        p = potential(np.zeros((2, 2)), lambda x, y: 1.7 + 0.1 * np.sin(x), n=16)
        assert abs(p.phi.values.mean()) < 1e-14

    def test_nonsymmetric_S_rejected(self):
        with pytest.raises(UsageError):
            potential(np.array([[0.0, 1.0], [0.0, 0.0]]), n=16)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_S_rejected(self, bad):
        # named as S's own fault before the symmetry test can misreport it
        with pytest.raises(NonFiniteError, match="quadratic part S"):
            potential(np.array([[bad, 0.0], [0.0, 1.0]]), n=16)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hessian_is_S_plus_hess_phi_bitwise(self, m):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((m, m))
        p = potential(X + X.T, lambda *x: 0.2 * np.sin(x[0]) * np.cos(x[-1] + 0.3),
                      n=12, m=m)
        H = p.hessian()
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
        assert np.array_equal(H, p.S + d2_tensor(p.phi.values[..., 0], p.chart))


class TestLagrangianResidual:
    def test_graph_residual_rounding_level(self):
        p = potential(np.diag([0.5, 0.8]),
                      lambda x, y: 0.1 * (np.sin(x) + np.cos(y)), n=128)
        assert lagrangian_residual(lag_immersion(p)) < 1e-10

    def test_whitney_discretization_level(self):
        imm = catalog.whitney_sphere(radius=1.0, m=2)
        assert lagrangian_residual(imm) < 1e-2

    def test_non_lagrangian_detected(self):
        imm = catalog.sphere(radius=1.0, J=24, K=48)
        padded = Immersion(imm.chart,
                           np.concatenate([imm.values,
                                           np.zeros(imm.chart.shape + (1,))], axis=-1))
        assert lagrangian_residual(padded) > 0.5

    def test_odd_ambient_rejected(self):
        with pytest.raises(UsageError):
            lagrangian_residual(catalog.sphere(J=24, K=48))


class TestLagrangianAngle:
    def test_flat_zero(self):
        alpha, defect = lagrangian_angle(potential(np.zeros((2, 2)), n=16))
        assert np.all(alpha == 0.0) and defect < 1e-14

    def test_identity_hessian(self):
        alpha, defect = lagrangian_angle(potential(np.eye(2), n=16))
        assert np.abs(alpha - np.pi / 2).max() < 1e-14
        assert defect < 1e-12

    def test_special_lagrangian_saddle(self):
        alpha, defect = lagrangian_angle(potential(np.diag([1.0, -1.0]), n=16))
        assert np.abs(alpha).max() < 1e-14

    def test_algebraic_identity_generic(self):
        p = potential(np.diag([0.3, -0.2]),
                      lambda x, y: 0.2 * np.sin(x) * np.cos(2 * y), n=64)
        _, defect = lagrangian_angle(p)
        assert defect < 1e-8

    def test_angle_range(self):
        p = potential(np.diag([5.0, 5.0]), n=16)
        alpha, _ = lagrangian_angle(p)
        assert np.all(np.abs(alpha) < np.pi)  # m pi / 2 with m = 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_angle_matches_eigvalsh(self, m, scale):
        rng = np.random.default_rng(10 * m + int(scale))
        X = scale * rng.standard_normal((40, 40, m, m))
        H = X + np.swapaxes(X, -1, -2)
        H[0, :, :, :] = scale * np.eye(m)   # repeated eigenvalue: a = c, b = 0
        ref = np.arctan(np.linalg.eigvalsh(H)).sum(axis=-1)
        # each route resolves an eigenvalue to rounding of |H|, and arctan
        # is 1-Lipschitz: the tolerance is 1e-14 on unit entries
        assert np.abs(lagrangian_angle_of_hessian(H) - ref).max() <= 1e-14 * scale


def rotated_hessians(rng, lam1, lam2):
    """Symmetric 2x2 Hessians with eigenvalues lam1, lam2 in random frames."""
    t = rng.uniform(0.0, np.pi, lam1.shape)
    c, s = np.cos(t), np.sin(t)
    H = np.empty(lam1.shape + (2, 2))
    H[..., 0, 0] = c * c * lam1 + s * s * lam2
    H[..., 1, 1] = s * s * lam1 + c * c * lam2
    H[..., 0, 1] = H[..., 1, 0] = c * s * (lam1 - lam2)
    return H


def crafted_hessians(kind, rng, n=2000):
    if kind == "random":
        X = rng.standard_normal((n, 2, 2))
        return X + np.swapaxes(X, -1, -2)
    if kind == "trace_zero":
        H = crafted_hessians("random", rng, n)
        H[..., 1, 1] = -H[..., 0, 0]
        return H
    if kind == "det_near_one":   # 1 - det H ~ 0: alpha near +-pi/2
        lam = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        return rotated_hessians(rng, lam, 1.0 / lam)
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "both_ge_one":    # 1 - det H < 0: alpha past +-pi/2
        return rotated_hessians(rng, sign * rng.uniform(1.0, 4.0, n),
                                sign * rng.uniform(1.0, 4.0, n))
    # |lambda| up to 1e8: diagonal at every scale, rotated only where both are
    # large, since eigvalsh resolves a small eigenvalue beside a large one only
    # to eps |H|, which would test the reference rather than the angle
    lam = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, n))
    diag = np.zeros((n, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = lam
    big = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(4.0, 8.0, (2, n))
    return np.concatenate([diag, rotated_hessians(rng, *big)])


class TestAngleOfHessianM2:
    """The m = 2 angle is arg det(I + i H) = arctan2(tr H, 1 - det H)."""

    @pytest.mark.parametrize("kind", ["random", "trace_zero", "det_near_one",
                                      "both_ge_one", "large"])
    def test_matches_eigenvalue_sum(self, kind):
        H = crafted_hessians(kind, np.random.default_rng(len(kind)))
        alpha = lagrangian_angle_of_hessian(H)
        ref = np.arctan(np.linalg.eigvalsh(H)).sum(axis=-1)
        assert np.abs(alpha - ref).max() <= 1e-15
        assert np.all(np.abs(alpha) < np.pi)


class TestMeanCurvatureForm:
    @pytest.fixture(scope="class")
    def generic(self):
        p = potential(np.zeros((2, 2)),
                      lambda x, y: 0.1 * (np.sin(x) + np.cos(y)), n=128)
        imm = lag_immersion(p)
        bundle = build_bundle(imm)
        alpha, _ = lagrangian_angle(p)
        return p, imm, bundle, alpha

    def test_flat_everything_zero(self):
        p = potential(np.zeros((2, 2)), n=16)
        rep = mean_curvature_form(lag_immersion(p))
        assert rep.h_symmetry_defect == 0.0
        assert rep.dH_residual.linf == 0.0
        assert rep.pinching_gap_min == 0.0

    def test_dalpha_equals_H(self, generic):
        p, imm, bundle, alpha = generic
        rep = mean_curvature_form(imm, bundle, alpha=alpha)
        assert rep.dalpha_minus_H_residual.linf < 1e-3

    def test_dH_closed(self, generic):
        p, imm, bundle, alpha = generic
        rep = mean_curvature_form(imm, bundle)
        assert rep.dH_residual.linf < 1e-3

    def test_h_fully_symmetric(self, generic):
        p, imm, bundle, _ = generic
        rep = mean_curvature_form(imm, bundle)
        assert rep.h_symmetry_defect < 1e-3

    def test_form_matches_omega_contraction(self, generic):
        p, imm, bundle, _ = generic
        rep = mean_curvature_form(imm, bundle)
        assert rep.form_vs_vector_defect < 1e-12

    def test_residual_convergence(self):
        # d alpha = H and dH = 0 residuals drop at order >= 1.8
        outs = []
        for n in (64, 128):
            p = potential(np.zeros((2, 2)),
                          lambda x, y: 0.1 * (np.sin(x) + np.cos(y)), n=n)
            alpha, _ = lagrangian_angle(p)
            rep = mean_curvature_form(lag_immersion(p), alpha=alpha)
            outs.append(rep)
        assert np.log2(outs[0].dalpha_minus_H_residual.linf
                       / outs[1].dalpha_minus_H_residual.linf) >= 1.8
        c, f = outs[0].dH_residual.linf, outs[1].dH_residual.linf
        if c > 1e-11:
            assert np.log2(c / f) >= 1.8


class TestPinching:
    def test_flat_gap_zero(self):
        gap, defect = pinching_gap(lag_immersion(potential(np.zeros((2, 2)), n=16)))
        assert np.abs(gap).max() == 0.0 and defect < 1e-14

    def test_whitney_equality_case(self):
        imm = catalog.whitney_sphere(radius=1.0, m=2)
        b = build_bundle(imm)
        gap, defect = pinching_gap(imm, b)
        assert np.abs(gap).max() < 1e-2  # zero up to discretization
        assert defect < 1e-8             # algebraic identity at rounding

    def test_generic_graph_strictly_positive(self):
        p = potential(np.zeros((2, 2)),
                      lambda x, y: 0.1 * np.sin(x) * np.sin(y), n=64)
        imm = lag_immersion(p)
        gap, defect = pinching_gap(imm)
        b = build_bundle(imm)
        active = b.normH2 > 1e-8
        assert gap[active].min() > 0.0
        assert defect < 1e-8

    def test_gap_floor(self):
        for imm in (catalog.whitney_sphere(J=24, K=48),
                    lag_immersion(potential(np.diag([0.5, 0.8]),
                                            lambda x, y: 0.1 * np.cos(x), n=32))):
            gap, _ = pinching_gap(imm)
            assert gap.min() > -1e-2


class TestPotentialFlow:
    def test_quadratic_stationary(self):
        p0 = potential(np.diag([0.4, 0.9]), n=32)
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=0.2, record_every=10))
        assert np.array_equal(tr.final.S, p0.S)
        assert tr.records[-1].hess_phi_inf < 1e-12
        assert tr.records[-1].H_inf < 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"cfl_sigma": np.nan}, {"stop_t_max": np.nan}, {"stop_t_max": np.inf},
        {"stop_t_max": 0.0}, {"record_every": 0}, {"snapshot_every": -2},
    ])
    def test_malformed_config_rejected(self, kwargs):
        # stop_t_max = nan or inf would never end ma_run
        with pytest.raises(UsageError):
            PotentialFlowConfig(**kwargs)

    def test_linear_mode_heat_decay(self):
        # S = 0, phi = eps sin x1: the linearized flow is the heat equation,
        # so the amplitude decays by e^{-t} over t in [0, 1] within 5 percent
        eps = 0.01
        p0 = potential(np.zeros((2, 2)), lambda x, y: eps * np.sin(x), n=128)
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=1.0, record_every=200))
        ratio = tr.records[-1].hess_phi_inf / tr.records[0].hess_phi_inf
        assert ratio == pytest.approx(np.exp(-1.0), rel=0.05)

    def test_cohomology_class_constant(self):
        p0 = potential(np.diag([0.5, 0.8]),
                       lambda x, y: 0.1 * (np.sin(x) + np.cos(y)), n=32)
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=0.5, record_every=50,
                                            snapshot_every=1))
        for rec in tr.records:
            if rec.potential is not None:
                assert np.array_equal(rec.potential.S, p0.S)
                assert abs(rec.potential.phi.values.mean()) < 1e-13

    def test_records_read_their_own_state(self):
        # a record's figures come from the Hessian and angle of the state it
        # snapshots, which ma_run carries from the state to its step
        p0 = potential(np.diag([0.5, 0.8]),
                       lambda x, y: 0.1 * (np.sin(x) + np.cos(2 * y)), n=16)
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=0.1, record_every=1,
                                            snapshot_every=1))
        assert len(tr.records) > 3
        for rec in tr.records:
            p = rec.potential
            H = p.hessian()
            alpha = lagrangian_angle_of_hessian(H)
            assert rec.alpha_min == float(alpha.min())
            assert rec.alpha_max == float(alpha.max())
            assert rec.hess_phi_inf == float(np.abs(H - p.S).max())
            assert rec.H_inf == float(np.abs(d1_tensor(alpha, p.chart)).max())

    def test_maximum_principle(self):
        p0 = potential(np.diag([0.5, 0.8]),
                       lambda x, y: 0.1 * (np.sin(x) + np.cos(y)), n=64)
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=1.0, record_every=20))
        amax = np.array([r.alpha_max for r in tr.records])
        amin = np.array([r.alpha_min for r in tr.records])
        assert np.all(np.diff(amax) <= 1e-13)
        assert np.all(np.diff(amin) >= -1e-13)

    def test_calibration_preserved(self):
        # min cos alpha > 0 initially stays positive along the run
        p0 = potential(np.diag([0.5, 0.8]),
                       lambda x, y: 0.1 * (np.sin(x) + np.cos(y)), n=64)
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=1.0, record_every=20))
        for rec in tr.records:
            assert np.cos(rec.alpha_max) > 0 and np.cos(rec.alpha_min) > 0

    def test_angle_evolution_residual(self):
        # epsilon sin x1 mode with a manual fixed-dt triple
        eps = 0.01
        ch = torus(128)
        mesh = ch.mesh()
        p = Potential(np.zeros((2, 2)),
                      GridField(ch, (eps * np.sin(mesh[0]))[..., None]))
        dt = 1e-5
        ps = [p]
        for _ in range(2):
            alpha = lagrangian_angle_of_hessian(ps[-1].hessian())
            newphi = ps[-1].phi.values[..., 0] + dt * (alpha - alpha.mean())
            ps.append(Potential(ps[-1].S, GridField(ch, newphi[..., None])))
        rn = angle_evolution_residual(ps[0], ps[1], ps[2], 0.0, dt, 2 * dt)
        assert rn.linf < 1e-3

    def test_flat_angle_residual_zero(self):
        p = potential(np.diag([0.5, 0.8]), n=16)
        rn = angle_evolution_residual(p, p, p, 0.0, 1e-4, 2e-4)
        assert rn.linf < 1e-10

    def test_image_flow_agreement(self):
        # the potential route and the direct immersion flow produce the same
        # image: compare the diffeomorphism-invariant scalar max|H| at equal
        # times within O(h^2) + O(dt)
        p0 = potential(np.zeros((2, 2)),
                       lambda x, y: 0.05 * (np.sin(x) + np.cos(y)), n=48)
        t_target = 0.05
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=t_target, record_every=1000))
        imm_pot = lag_immersion(tr.final)
        b_pot = build_bundle(imm_pot)

        st = FlowState.initial(lag_immersion(p0))
        dt = 2e-4
        while st.t < t_target - 1e-12:
            st = step_explicit(st, min(dt, t_target - st.t))
        b_mcf = st.bundle
        a = float(np.sqrt(b_pot.normH2.max()))
        c = float(np.sqrt(b_mcf.normH2.max()))
        assert a == pytest.approx(c, rel=2e-2)


class TestConvexPotentialConvergence:
    def test_monotone_decay_to_flat(self):
        # desk-scale convex-potential convergence: the Hessian contracts
        # monotonically toward the flat torus at the linearized rate
        # 1/(1 + max(S)^2) per unit time
        p0 = potential(np.diag([0.5, 0.8]),
                       lambda x, y: 0.1 * (np.sin(x) + np.cos(y)), n=32)
        tr = ma_run(p0, PotentialFlowConfig(stop_t_max=5.0, record_every=100))
        h = np.array([r.hess_phi_inf for r in tr.records])
        assert np.all(np.diff(h) < 0)
        rate = 1.0 / 1.64
        expect = h[0] * np.exp(-rate * 5.0)
        assert h[-1] == pytest.approx(expect, rel=0.08)
