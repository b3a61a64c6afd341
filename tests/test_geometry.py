"""Fundamental forms, curvature invariants, structure-equation residuals,
and the exact symmetries of the discrete geometry."""

import numpy as np
import pytest

from codimflow import catalog
from codimflow.errors import DegenerateImmersion
from codimflow.geometry import (
    Immersion, build_bundle, graph_immersion, graph_singular_values,
    normal_part, structure_residuals, tangency_defect,
)
from codimflow.grid import ChartSpec, Domain, GridField, make_chart, roll_field


def torus_graph(f_values, n=32, order=2):
    ch = make_chart(ChartSpec(Domain.TORUS, (n, n), fd_order=order))
    return graph_immersion(GridField(ch, f_values(ch)))


class TestInducedMetric:
    def test_unit_circle_arclength(self):
        # discrete g_11 = (sin h / h)^2, off unity by h^2/3
        b = build_bundle(catalog.circle(radius=1.0, n=128))
        assert np.abs(b.g[..., 0, 0] - 1.0).max() < 1e-3

    def test_round_sphere_radius_2(self):
        imm = catalog.sphere(radius=2.0, J=48, K=96)
        b = build_bundle(imm)
        TH = imm.chart.mesh()[0]
        assert np.abs(b.g[..., 0, 0] - 4.0).max() < 1e-4
        assert np.abs(b.g[..., 1, 1] - 4.0 * np.sin(TH) ** 2).max() < 1e-4
        assert np.abs(b.g[..., 0, 1]).max() < 1e-10

    def test_flat_lagrangian_graph_identity_metric(self):
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        p = Potential(np.zeros((2, 2)), GridField(ch, np.zeros((16, 16, 1))))
        b = build_bundle(lag_immersion(p))
        assert np.abs(b.g - np.eye(2)).max() == 0.0

    def test_metric_inverse_consistency(self):
        b = build_bundle(catalog.whitney_sphere(J=24, K=48))
        eye = np.einsum("...ij,...jk->...ik", b.ginv, b.g)
        assert np.abs(eye - np.eye(2)).max() < 1e-10

    def test_degenerate_immersion_names_node(self):
        # a curve that collapses three adjacent nodes to one point has zero
        # discrete speed there and must be rejected, naming the node
        ch = make_chart(ChartSpec(Domain.CIRCLE, (32,)))
        th = ch.coords[0]
        vals = np.stack([np.cos(th), np.sin(th)], axis=-1)
        vals[3] = vals[4]
        vals[5] = vals[4]
        with pytest.raises(DegenerateImmersion) as err:
            build_bundle(Immersion(ch, vals))
        assert err.value.node == (4,)
        assert "node" in str(err.value)

    def test_singular_surface_metric_is_degenerate(self):
        # F(u, v) = (cos u, sin u, 0) does not depend on v: g is exactly
        # singular everywhere, which the floor must catch before inversion
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        U, _ = ch.mesh()
        vals = np.stack([np.cos(U), np.sin(U), np.zeros_like(U)], axis=-1)
        with pytest.raises(DegenerateImmersion, match="det g = 0.000e\\+00"):
            build_bundle(Immersion(ch, vals))


class TestChristoffel:
    def test_constant_metric_zero(self):
        b = build_bundle(catalog.clifford_torus(n1=16, n2=16))
        assert np.abs(b.gamma).max() < 1e-12

    def test_circle_zero(self):
        b = build_bundle(catalog.circle(n=64))
        assert np.abs(b.gamma).max() < 1e-11

    def test_round_sphere_closed_form(self):
        imm = catalog.sphere(radius=1.0, J=48, K=96)
        b = build_bundle(imm)
        TH = imm.chart.mesh()[0]
        assert np.abs(b.gamma[..., 0, 1, 1] + np.sin(TH) * np.cos(TH)).max() < 1e-3
        assert np.abs(b.gamma[..., 1, 0, 1] - np.cos(TH) / np.sin(TH)).max() < 1e-3

    def test_lower_index_symmetry_bit_exact(self):
        b = build_bundle(catalog.whitney_sphere(J=24, K=48))
        assert np.array_equal(b.gamma, np.einsum("...kij->...kji", b.gamma))


class TestSecondFundamental:
    def test_unit_circle(self):
        imm = catalog.circle(radius=1.0, n=256)
        b = build_bundle(imm)
        assert np.abs(b.A[..., 0, 0, :] + imm.values).max() < 1e-3
        assert np.abs(b.normA2 - 1.0).max() < 1e-3

    def test_affine_plane_flat(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        f = GridField(ch, np.zeros((16, 16, 1)))
        b = build_bundle(graph_immersion(f))
        # the circle-pair embedding of the torus is flat in the f-directions
        assert np.abs(b.A[..., -1]).max() == 0.0

    def test_clifford_product_structure(self):
        imm = catalog.clifford_torus(n1=64, n2=64)
        b = build_bundle(imm)
        T1 = imm.chart.mesh()[0]
        p = np.stack([np.cos(T1), np.sin(T1)], axis=-1)
        assert np.abs(b.A[..., 0, 0, :2] + p).max() < 1e-3
        assert np.abs(b.A[..., 0, 0, 2:]).max() < 1e-10
        assert np.abs(b.A[..., 0, 1, :]).max() < 1e-10
        assert np.array_equal(b.A[..., 0, 1, :], b.A[..., 1, 0, :])

    def test_tangency_defect_second_order(self):
        d = []
        for n in (32, 64):
            imm = catalog.ellipse(a=1.0, b=0.7, n=n)
            d.append(tangency_defect(build_bundle(imm)).max())
        assert d[0] / d[1] >= 3.5


class TestMeanCurvature:
    def test_round_sphere(self):
        for r in (1.0, 2.0):
            imm = catalog.sphere(radius=r, J=24, K=48)
            b = build_bundle(imm)
            assert np.abs(b.H + (2.0 / r**2) * imm.values).max() < 5e-3
            assert np.abs(np.sqrt(b.normH2) - 2.0 / r).max() < 5e-3

    def test_clifford(self):
        imm = catalog.clifford_torus(n1=64, n2=64)
        b = build_bundle(imm)
        assert np.abs(b.normH2 - 2.0).max() < 1e-2
        assert np.abs(b.H + imm.values).max() < 3e-3

    def test_trace_identity_bit_exact(self):
        b = build_bundle(catalog.whitney_sphere(J=24, K=48))
        H = np.einsum("...ij,...ija->...a", b.ginv, b.A)
        assert np.array_equal(H, b.H)

    def test_circle_pinching_ratio_one(self):
        b = build_bundle(catalog.circle(n=64))
        assert np.nanmax(np.abs(b.pinching_ratio() - 1.0)) < 1e-12

    def test_pinching_floor(self):
        # |A|^2 >= |H|^2/m - C h^2 at every node of a generic immersion
        for imm in (catalog.whitney_sphere(J=24, K=48),
                    catalog.ellipse(n=64),
                    catalog.clifford_torus(n1=16, n2=16)):
            b = build_bundle(imm)
            assert np.all(b.normA2 >= b.normH2 / imm.m - 1e-8)

    def test_pinching_absent_where_H_vanishes(self):
        # flat Lagrangian plane: A == 0, H == 0, so the ratio is undefined
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        p = Potential(np.eye(2), GridField(ch, np.zeros((16, 16, 1))))
        b = build_bundle(lag_immersion(p))
        assert np.all(np.isnan(b.pinching_ratio()))


class TestNormalPart:
    def test_tangent_killed(self):
        b = build_bundle(catalog.circle(n=64))
        V = b.dF[..., 0, :]
        assert np.abs(normal_part(b, V)).max() < 1e-12

    def test_position_normal_on_circle(self):
        imm = catalog.circle(n=64)
        b = build_bundle(imm)
        assert np.abs(normal_part(b, imm.values) - imm.values).max() < 1e-10

    def test_projection_orthogonal(self):
        imm = catalog.whitney_sphere(J=24, K=48)
        b = build_bundle(imm)
        rng = np.random.default_rng(0)
        V = rng.normal(size=imm.chart.shape + (imm.n,))
        W = normal_part(b, V)
        ip = np.einsum("...a,...ia->...i", W, b.dF)
        scale = np.abs(V).max() * np.sqrt(np.abs(b.g).max())
        assert np.abs(ip).max() < 1e-10 * scale


class TestStructureResiduals:
    def test_round_sphere(self):
        imm = catalog.sphere(radius=1.0, J=48, K=96)
        rep = structure_residuals(imm)
        assert rep.gauss.linf < 1e-2
        assert rep.codazzi.linf < 1e-2
        assert rep.ricci.linf < 1e-2
        assert rep.simons.l2_rel < 1e-2
        assert rep.simons2.l2_rel < 1e-2

    def test_clifford_flatness(self):
        imm = catalog.clifford_torus(n1=64, n2=64, fd_order=4)
        b = build_bundle(imm)
        rep = structure_residuals(imm, b)
        # intrinsic flatness: <A_11,A_22> - |A_12|^2 = 0 within tolerance
        AA = np.einsum("...ija,...kla->...ijkl", b.A, b.A)
        assert np.abs(AA[..., 0, 0, 1, 1] - AA[..., 0, 1, 0, 1]).max() < 1e-3
        assert rep.gauss.linf < 1e-3
        # flat normal bundle
        assert rep.ricci.linf < 1e-3

    def test_convergence_order(self):
        # structure residuals shrink at order >= 1.8 on an analytic immersion
        reps = [structure_residuals(catalog.whitney_sphere(J=J, K=2 * J))
                for J in (24, 48)]
        for name in ("gauss", "codazzi", "ricci", "simons", "simons2"):
            c, f = getattr(reps[0], name), getattr(reps[1], name)
            if c.l2 < 1e-9:
                continue  # already at rounding level
            order = np.log2(c.l2_rel / f.l2_rel)
            assert order >= 1.8, (name, order)


class TestGraphs:
    def test_zero_graph_A2(self):
        for m in (1, 2):
            imm = catalog.flat_torus_graph(m=m, n_per_axis=64, fd_order=4)
            b = build_bundle(imm)
            assert np.abs(b.normA2 - m).max() < 1e-3

    def test_metric_of_small_graph(self):
        ch = make_chart(ChartSpec(Domain.CIRCLE, (64,), fd_order=4))
        eps = 0.1
        f = GridField(ch, (eps * np.sin(ch.coords[0]))[:, None])
        b = build_bundle(graph_immersion(f))
        th = ch.coords[0]
        assert np.abs(b.g[..., 0, 0] - (1 + eps**2 * np.cos(th) ** 2)).max() < 1e-3

    def test_constant_graph_isometric_to_zero(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        b0 = build_bundle(graph_immersion(GridField(ch, np.zeros((16, 16, 1)))))
        b1 = build_bundle(graph_immersion(GridField(ch, np.full((16, 16, 1), 0.37))))
        assert np.array_equal(b0.g, b1.g)
        assert np.array_equal(b0.normA2, b1.normA2)

    def test_singular_values(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        sv, flag = graph_singular_values(GridField(ch, np.zeros((16, 16, 2))))
        assert np.all(sv == 0.0) and flag is True
        # Jacobian diag(2, 0.4) at the origin node: lambda1 lambda2 = 0.8 < 1
        mesh = ch.mesh()
        h = ch.spacings[0]
        scale = h / np.sin(h)  # makes the discrete derivative exact at x = 0
        f = np.stack([2.0 * scale * np.sin(mesh[0]),
                      0.4 * scale * np.sin(mesh[1])], axis=-1)
        sv, flag = graph_singular_values(GridField(ch, f))
        assert flag is True
        assert sv[0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        # Jacobian exactly diag(1,1) at one node: the strict inequality fails
        f = np.stack([scale * np.sin(mesh[0]), scale * np.sin(mesh[1])], axis=-1)
        sv, flag = graph_singular_values(GridField(ch, f))
        assert sv[0, 0, 0] * sv[0, 0, 1] == pytest.approx(1.0, abs=1e-14)
        assert flag is False

    def test_m1_flag_not_applicable(self):
        ch = make_chart(ChartSpec(Domain.CIRCLE, (16,)))
        _, flag = graph_singular_values(GridField(ch, np.zeros((16, 1))))
        assert flag is None


class TestExactSymmetries:
    def test_isometry_equivariance(self):
        imm = catalog.whitney_sphere(J=24, K=48)
        b = build_bundle(imm)
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        shift = rng.normal(size=4)
        b2 = build_bundle(imm.transformed(Q, shift))
        assert np.abs(b2.g - b.g).max() < 1e-12 * max(1, np.abs(b.g).max())
        assert np.abs(b2.normA2 - b.normA2).max() < 1e-10 * max(1, b.normA2.max())
        assert np.abs(b2.normH2 - b.normH2).max() < 1e-10 * max(1, b.normH2.max())
        # A and H rotate with Q
        assert np.abs(b2.H - b.H @ Q.T).max() < 1e-10 * max(1, np.abs(b.H).max())

    def test_index_shift_equivariance_bit_exact(self):
        imm = catalog.clifford_torus(n1=16, n2=16)
        b = build_bundle(imm)
        for axis, k in ((0, 3), (1, 7)):
            shifted = Immersion(imm.chart, roll_field(imm.values, axis, k))
            bs = build_bundle(shifted)
            assert np.array_equal(bs.g, roll_field(b.g, axis, k))
            assert np.array_equal(bs.A, roll_field(b.A, axis, k))
            assert np.array_equal(bs.H, roll_field(b.H, axis, k))
            assert np.array_equal(bs.normA2, roll_field(b.normA2, axis, k))
