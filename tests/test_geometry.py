"""Fundamental forms, curvature invariants, structure-equation residuals,
and the exact symmetries of the discrete geometry."""

import numpy as np
import pytest

from codimflow import catalog, geometry
from codimflow.errors import DegenerateImmersion, NonFiniteError, UsageError
from codimflow.geometry import (
    Immersion, _metric, build_bundle, d1_tensor, graph_immersion, graph_singular_values,
    immersion_partials, normal_part, structure_residuals,
)
from codimflow.grid import (
    ChartSpec, Domain, GridField, diff1, diff2, diff_mixed, make_chart, roll_axes,
)
from codimflow.lagrangian import Potential, lag_immersion
from conftest import roll_field
from test_contractions import CHARTS


def torus_graph(f_values, n=32, order=2):
    ch = make_chart(ChartSpec(Domain.TORUS, (n, n), fd_order=order))
    return graph_immersion(GridField(ch, f_values(ch)))


def separate_stencil_partials(values, chart, parity=1.0):
    """grid.partials written as one diff1, diff2 or diff_mixed call per partial,
    returned as grid.partials returns them: node-major views of index-major
    storage, so the bundle's contractions see the same memory layout."""
    m, k = chart.m, values.ndim - chart.m + 1
    d1 = np.stack([diff1(values, a, chart, parity) for a in range(m)], axis=m)
    d2 = np.stack([np.stack([diff2(values, a, chart, parity) if a == b
                             else diff_mixed(values, a, b, chart, parity) for b in range(m)],
                            axis=m) for a in range(m)], axis=m)
    return (roll_axes(np.ascontiguousarray(roll_axes(d1, -k)), k),
            roll_axes(np.ascontiguousarray(roll_axes(d2, -k - 1)), k + 1))


class TestSharedPass:
    @pytest.mark.parametrize("name", list(CHARTS))
    def test_bundle_equals_separate_stencils_bit_for_bit(self, name, monkeypatch):
        # the torus graph's affine summand is added to the first partials
        imm = CHARTS[name]()
        assert (imm.affine is not None) == (name == "torus-graph")
        got = build_bundle(imm)
        calls = []   # a spy: the bundle takes its partials through geometry.partials
        monkeypatch.setattr(geometry, "partials",
                            lambda *args: calls.append(args) or separate_stencil_partials(*args))
        want = build_bundle(imm)
        assert len(calls) == 1
        for field in ("dF", "g", "ginv", "det_g", "sqrt_det_g", "gamma1", "gamma", "A", "H",
                      "normA2", "normH2", "drift"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert got.max_A2 == want.max_A2

    @pytest.mark.parametrize("name", list(CHARTS))
    def test_lazy_invariants(self, name):
        b = build_bundle(CHARTS[name]())
        assert type(b.max_A2) is float and b.max_A2 == float(b.normA2.max())
        assert np.array_equal(b.normH2, np.einsum("...a,...a->...", b.H, b.H))


class TestIndexMajorStorage:
    @pytest.mark.parametrize("name", list(CHARTS))
    def test_every_index_slice_is_one_contiguous_chart_array(self, name):
        # the fields are node-major views of index-major storage
        b = build_bundle(CHARTS[name]())
        nodes = b.chart.shape
        for field in ("dF", "g", "ginv", "gamma1", "gamma", "A", "H"):
            values = getattr(b, field)
            for idx in np.ndindex(values.shape[len(nodes):]):
                part = values[(...,) + idx]
                assert part.shape == nodes and part.flags.c_contiguous, (field, idx)

    @pytest.mark.parametrize("name", list(CHARTS))
    def test_A_up_is_raised_once(self, name, monkeypatch):
        # build_bundle raises A^i_j = g^ik A_kj for |A|^2 and keeps it: the
        # bundle's A_up is that storage, and no second raise runs
        dot, calls = geometry._dot, []
        monkeypatch.setattr(geometry, "_dot", lambda X, Y: calls.append((X, Y)) or dot(X, Y))
        b = build_bundle(CHARTS[name]())
        A_up = b.A_up
        ginv, A = roll_axes(b.ginv, -2), roll_axes(b.A, -3)
        X, Y = ginv[:, :, None, None], A[:, None]
        raises = [(x, y) for x, y in calls if (x.shape, y.shape) == (X.shape, Y.shape)
                  and np.shares_memory(x, ginv) and np.shares_memory(y, A)]
        assert len(raises) == 1
        assert np.array_equal(A_up, roll_axes(dot(X, Y), 3))
        assert roll_axes(A_up, -3).flags.c_contiguous


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

    @pytest.mark.parametrize("make", [
        lambda: catalog.sphere(radius=1.0, J=24, K=48),
        lambda: catalog.whitney_sphere(J=24, K=48),
        lambda: catalog.flat_torus_graph(m=3, n_per_axis=8),
    ], ids=["sphere", "whitney", "three-axis"])
    def test_metric_exactly_symmetric(self, make):
        g = build_bundle(make()).g
        assert np.array_equal(g, np.swapaxes(g, -1, -2))

    @pytest.mark.parametrize("make", [
        lambda: catalog.circle(radius=1.0, n=256),
        lambda: catalog.cardioid(),
        lambda: catalog.planar_graph(amplitude=0.1),   # a curve with an affine part
    ], ids=["circle", "cardioid", "planar-graph"])
    def test_curve_metric_is_the_einsum(self, make):
        # curves keep the einsum: their metric, and every explicit curve flow
        # built on it, stays bit-identical
        b = build_bundle(make())
        want = np.einsum("...ia,...ja->...ij", b.dF, b.dF)
        assert b.g.tobytes() == want.tobytes()

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
        # plain integers: numpy 2 prints its scalars as np.int64(4)
        assert str(err.value).endswith("at node (4,)")
        assert type(err.value.node[0]) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_det_names_its_node(self, monkeypatch, bad):
        # m = 3 takes det g from np.linalg.det: one non-finite node fails the
        # floor test whatever the others hold, and the error names that node
        imm = CHARTS["graph-3d"]()
        F = roll_axes(immersion_partials(imm)[0], -2)
        det = np.linalg.det

        def planted(a):
            d = det(a)
            d[2, 3, 4] = bad
            return d

        monkeypatch.setattr(np.linalg, "det", planted)
        with pytest.raises(NonFiniteError, match=rf"det g = {bad} at node \(2, 3, 4\)$"):
            _metric(F, imm.chart)

    def test_singular_surface_metric_is_degenerate(self):
        # F(u, v) = (cos u, sin u, 0) does not depend on v: g is exactly
        # singular everywhere, which the floor must catch before inversion
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        U, _ = ch.mesh()
        vals = np.stack([np.cos(U), np.sin(U), np.zeros_like(U)], axis=-1)
        with pytest.raises(DegenerateImmersion, match="det g = 0.000e\\+00"):
            build_bundle(Immersion(ch, vals))

    @pytest.mark.parametrize("mask, message", [
        (np.ones(31, dtype=bool), r"norm_mask must be a boolean array of shape \(32,\)"),
        (np.ones(32), r"norm_mask must be a boolean array of shape \(32,\)"),
        ([True] * 32, r"norm_mask must be a boolean array of shape \(32,\)"),
        (np.zeros(32, dtype=bool), "norm_mask trusts no node"),
    ], ids=["short", "float", "list", "none-trusted"])
    def test_norm_mask_is_a_chart_array_that_trusts_a_node(self, mask, message):
        # residual norms average over the trusted nodes: a mask of another
        # shape, or one that trusts none, has nothing to average over
        imm = catalog.circle(n=32)
        with pytest.raises(UsageError, match=message):
            Immersion(imm.chart, imm.values, norm_mask=mask)

    @pytest.mark.parametrize("values, affine, message", [
        (np.zeros((31, 2)), None, r"immersion values shape \(31, 2\) does not match chart \(32,\)"),
        (np.zeros((32, 1)), None, "ambient dimension must exceed intrinsic dimension"),
        (None, (np.zeros((2, 2)), np.zeros(2)), "affine part has inconsistent shape"),
        (None, (np.zeros((2, 1)), np.zeros(3)), "affine part has inconsistent shape"),
    ], ids=["values-shape", "n-not-above-m", "affine-matrix-shape", "affine-offset-shape"])
    def test_malformed_immersion_rejected(self, values, affine, message):
        imm = catalog.circle(n=32)
        with pytest.raises(UsageError, match=message):
            Immersion(imm.chart, imm.values if values is None else values, affine=affine)


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
        # max |<A_ij, F_k>| vanishes in the continuum
        d = []
        for n in (32, 64):
            b = build_bundle(catalog.ellipse(a=1.0, b=0.7, n=n))
            d.append(np.abs(np.einsum("...ija,...ka->...ijk", b.A, b.dF)).max())
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

    def test_graph_over_a_sphere_chart_rejected(self):
        ch = make_chart(ChartSpec(Domain.SPHERE, (8, 16)))
        with pytest.raises(UsageError, match="graph_immersion requires a periodic torus chart"):
            graph_immersion(GridField(ch, np.zeros((8, 16, 1))))

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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_singular_values_of_k_by_2_jacobians(self, k):
        # k = 1: svd returns one value per node and the second is padded as 0
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        x, y = ch.mesh()
        f = np.stack([0.3 * np.sin(x + j) * np.cos(2 * y - j) + 0.2 * np.cos((j + 1) * y)
                      for j in range(k)], axis=-1)
        sv, flag = graph_singular_values(GridField(ch, f))
        assert sv.shape == (16, 16, 2)
        assert np.all(sv[..., 0] >= sv[..., 1]) and np.all(sv[..., 1] >= 0.0)
        if k == 1:
            assert np.all(sv[..., 1] == 0.0)
        jac = d1_tensor(f, ch)  # (*, i, A)
        lam = np.linalg.eigvalsh(np.einsum("...ia,...ja->...ij", jac, jac))[..., ::-1]
        assert np.abs(sv**2 - lam).max() < 1e-12
        assert flag is bool(np.all(sv[..., 0] * sv[..., 1] < 1.0))

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

    def test_isometry_moves_the_affine_summand(self):
        # a Lagrangian graph stores (x, S x) exactly; rotated and translated,
        # its periodic part is the old one rotated, so stencils see no seam
        ch = make_chart(ChartSpec(Domain.TORUS, (32, 32)))
        x, y = ch.mesh()
        phi = GridField(ch, (0.5 * np.sin(x) * np.cos(y))[..., None])
        imm = lag_immersion(Potential(np.array([[0.5, 0.1], [0.1, 0.8]]), phi))
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        moved = imm.transformed(Q, rng.normal(size=4))
        periodic = imm.periodic_values()
        drift = np.abs(moved.periodic_values() - periodic @ Q.T).max()
        assert drift < 1e-12 * np.abs(periodic).max()
        b, b2 = build_bundle(imm), build_bundle(moved)
        for name in ("normA2", "normH2", "det_g"):
            want = getattr(b, name)
            assert np.abs(getattr(b2, name) - want).max() < 1e-12 * np.abs(want).max(), name

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
