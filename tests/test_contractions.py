"""The geometry layer's contractions against literal einsum references.

The library raises indices once and contracts in two-operand steps; the
references below write every formula as one multi-operand einsum, exactly as
the identities read, with batched np.linalg.det/inv for the metric and a
per-component normal projection. Both sides share the stencils, the
quadrature, the Laplace-Beltrami operator and the norm reductions, so they
differ only in how products are summed: every compared quantity agrees to
1e-12 of its magnitude (for residual norms, of the identity's scale, which is
how ResidualNorms reads relative defects).

The evolution references read the same states' bundles as the library: the
time differences divide a bundle's rounding by dt, so bundles built by the
reference formulas would move those norms by up to 7e-12 of their scale at
24x48 for reasons outside the contractions. The bundles themselves are
compared field by field.
"""

import numpy as np
import pytest

from codimflow import catalog, geometry
from codimflow.flow import (
    FlowConfig, FlowState, _time_weights, adaptive_dt, evolution_residuals,
    step_explicit,
)
from codimflow.geometry import (
    CurvatureReport, GeometryBundle, ResidualNorms, _dot, _masked_l2, _norms, _project,
    build_bundle, d1_tensor, immersion_partials, laplace_beltrami, normal_part,
    structure_residuals, trusted_mask,
)
from codimflow.grid import (
    ChartSpec, Domain, GridField, integrate_values, make_chart, partials, roll_axes,
)
from codimflow.lagrangian import Potential, lag_immersion

REL = 1e-12


def torus_graph():
    """Lagrangian graph over a 16x24 fd4 torus with an affine summand."""
    ch = make_chart(ChartSpec(Domain.TORUS, (16, 24), fd_order=4))
    X, Y = ch.mesh()
    phi = 0.1 * np.sin(X) * np.cos(Y) + 0.05 * np.cos(2 * Y)
    return lag_immersion(Potential(np.array([[0.5, 0.1], [0.1, 0.8]]),
                                   GridField(ch, phi[..., None])))


def graph_3d():
    """Graph over a 10^3 fd4 torus in R^7, the torus factor on unit circles."""
    ch = make_chart(ChartSpec(Domain.TORUS, (10, 10, 10), fd_order=4))
    X, Y, Z = ch.mesh()
    f = 0.3 * np.sin(X) * np.cos(Y) + 0.2 * np.cos(Z) * np.sin(X + Y)
    return geometry.graph_immersion(GridField(ch, f[..., None]))


CHARTS = {
    "circle": lambda: catalog.circle(radius=1.0, n=64),
    "sphere": lambda: catalog.sphere(radius=1.0, J=24, K=48),
    "whitney": lambda: catalog.whitney_sphere(radius=1.0, m=2, J=24, K=48),
    "clifford": lambda: catalog.clifford_torus(n1=32, n2=32, fd_order=4),
    "torus-graph": torus_graph,
    "graph-3d": graph_3d,
}


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def ref_bundle(imm):
    dF, d2F = immersion_partials(imm)
    g = np.einsum("...ia,...ja->...ij", dF, dF)
    det = g[..., 0, 0] if imm.m == 1 else np.linalg.det(g)
    ginv = (1.0 / det)[..., None, None] if imm.m == 1 else np.linalg.inv(g)
    dg = d1_tensor(g, imm.chart, tensor_axes=(0, 1))
    gamma1 = 0.5 * (np.einsum("...iaj->...aij", dg) + np.einsum("...jai->...aij", dg) - dg)
    gamma = np.einsum("...al,...lij->...aij", ginv, gamma1)
    A = d2F - np.einsum("...kij,...ka->...ija", gamma, dF)
    H = np.einsum("...ij,...ija->...a", ginv, A)
    return GeometryBundle(
        imm=imm, dF=dF, g=g, ginv=ginv, det_g=det, sqrt_det_g=np.sqrt(det),
        gamma1=gamma1, gamma=gamma, A=A, H=H,
        normA2=np.einsum("...ik,...jl,...ija,...kla->...", ginv, ginv, A, A),
        A_up=np.einsum("...ik,...kja->...ija", ginv, A),
    )


def ref_normal_part(b, V):
    """V - g^ij <V, F_i> F_j for one field (*, n) or constant vector (n,)."""
    V = np.broadcast_to(V, b.chart.shape + (b.imm.n,))
    comp = np.einsum("...a,...ia->...i", V, b.dF)
    return V - np.einsum("...ij,...i,...ja->...a", b.ginv, comp, b.dF)


def ref_project(b, field):
    """Per-component normal projection of a stacked field (*, ..., n)."""
    flat = field.reshape(b.chart.shape + (-1, b.imm.n))
    return np.stack([ref_normal_part(b, flat[..., c, :]) for c in range(flat.shape[-2])],
                    axis=-2).reshape(field.shape)


def ref_nabla_A(b):
    dA = d1_tensor(b.A, b.chart, tensor_axes=(0, 1))
    return (dA - np.einsum("...pij,...pka->...ijka", b.gamma, b.A)
            - np.einsum("...pik,...jpa->...ijka", b.gamma, b.A))


def ref_ddH(b):
    dH = d1_tensor(b.H, b.chart)
    ddH = d1_tensor(dH, b.chart, tensor_axes=(0,))
    return ddH - np.einsum("...pkl,...pa->...kla", b.gamma, dH)


def ref_gauss_from_A(b):
    AA = np.einsum("...ika,...jla->...ijkl", b.A, b.A)
    return AA - np.einsum("...ijlk->...ijkl", AA)


def ref_intrinsic_curvature(b):
    # g_ij with both indices on the chart: g_theta-phi and g_phi-theta are pole-odd
    m, nodes = b.chart.m, b.chart.shape
    parity = np.array([1.0, -1.0, -1.0, 1.0]) if b.chart.spec.domain is Domain.SPHERE else 1.0
    ddg = partials(b.g.reshape(nodes + (-1,)), b.chart, parity)[1].reshape(nodes + (m,) * 4)
    part = 0.5 * (np.einsum("...kjil->...ijkl", ddg) + np.einsum("...likj->...ijkl", ddg)
                  - np.einsum("...kilj->...ijkl", ddg) - np.einsum("...ljik->...ijkl", ddg))
    quad = (np.einsum("...pq,...qkj,...pli->...ijkl", b.ginv, b.gamma1, b.gamma1)
            - np.einsum("...pq,...qlj,...pki->...ijkl", b.ginv, b.gamma1, b.gamma1))
    return part + quad


def ref_ricci_field(b):
    chart, n = b.chart, b.imm.n
    out = np.empty(chart.shape + (chart.m, chart.m, n, n))
    for e in range(n):
        nu = ref_normal_part(b, np.eye(n)[e])
        Y = ref_project(b, d1_tensor(nu, chart))
        dY = d1_tensor(Y, chart, tensor_axes=(0,))
        lhs = ref_project(b, dY - np.einsum("...ija->...jia", dY))
        nuA = np.einsum("...a,...ika->...ik", nu, b.A)
        half = np.einsum("...kl,...ik,...jla->...ija", b.ginv, nuA, b.A)
        out[..., e] = lhs + (half - np.einsum("...jia->...ija", half))
    return out


def full_codazzi_field(b):
    """The Codazzi defect over every (i, j), index-major (i, j, k, a) + nodes,
    from the library's own primitives, so its entries round as the library's."""
    nA, P = roll_axes(b.nA, -4), roll_axes(b.normal_projector, -2)
    return _project(P, nA - nA.swapaxes(0, 1))


def full_ricci_field(b):
    """The Ricci defect over every (i, j), index-major (i, j, a, b) + nodes,
    from the library's own primitives, so its entries round as the library's."""
    P = roll_axes(b.normal_projector, -2)
    Y = _project(P, roll_axes(d1_tensor(b.normal_projector, b.chart), -3))  # (j, b, a)
    dY = roll_axes(d1_tensor(roll_axes(Y, 3), b.chart, tensor_axes=(0,)), -4)  # (i, j, b, a)
    res = _project(P, dY - dY.swapaxes(0, 1))
    A, A_up = roll_axes(b.A, -3), roll_axes(b.A_up, -3)
    nuA = _dot(P.swapaxes(0, 1)[:, :, None, None], np.moveaxis(A, 2, 0)[:, None])  # (b, i, k)
    half = _dot(np.einsum("bik...->kib...", nuA)[:, :, None, :, None],
                A_up[:, None, :, None, :])  # (i, j, b, a)
    res += half - half.swapaxes(0, 1)
    return res.swapaxes(2, 3)


def ref_simons_field(b):
    ginv, gamma = b.ginv, b.gamma
    R = ref_gauss_from_A(b)
    ric = np.einsum("...kl,...ikjl->...ij", ginv, R)
    nabla_ric = (d1_tensor(ric, b.chart, tensor_axes=(0, 1))
                 - np.einsum("...pki,...pj->...kij", gamma, ric)
                 - np.einsum("...pkj,...ip->...kij", gamma, ric))
    nA = ref_nabla_A(b)
    ddA = (d1_tensor(nA, b.chart, tensor_axes=(0, 1, 2))
           - np.einsum("...qpi,...qjka->...pijka", gamma, nA)
           - np.einsum("...qpj,...iqka->...pijka", gamma, nA)
           - np.einsum("...qpk,...ijqa->...pijka", gamma, nA))
    lapA = np.einsum("...pi,...pikla->...kla", ginv, ddA)
    grad_ric = (np.einsum("...pq,...kql->...klp", ginv, nabla_ric)
                + np.einsum("...pq,...lqk->...klp", ginv, nabla_ric)
                - np.einsum("...pq,...qkl->...klp", ginv, nabla_ric))
    F_term = np.einsum("...klp,...pa->...kla", grad_ric, b.dF)
    R_up = np.einsum("...ip,...jq,...kplq->...kilj", ginv, ginv, R)
    RA = 2.0 * np.einsum("...kilj,...ija->...kla", R_up, b.A)
    ric_up = np.einsum("...pq,...qk->...pk", ginv, ric)
    ricA = (np.einsum("...pk,...pla->...kla", ric_up, b.A)
            + np.einsum("...pl,...pka->...kla", ric_up, b.A))
    return ref_ddH(b) - (lapA - F_term + RA - ricA)


def ref_quadratic_terms(b):
    """|nabla^perp A|^2, |<A_ij, A_kl>|^2 and the squared commutator."""
    g, A = b.ginv, b.A
    proj = ref_project(b, ref_nabla_A(b))
    nperp = np.einsum("...ip,...jq,...kr,...ijka,...pqra->...", g, g, g, proj, proj)
    AA = np.einsum("...ija,...kla->...ijkl", A, A)
    AA2 = np.einsum("...ip,...jq,...kr,...ls,...ijkl,...pqrs->...", g, g, g, g, AA, AA)
    mixed = np.einsum("...kl,...ika,...jlb->...ijab", g, A, A)
    comm = mixed - np.einsum("...ijba->...ijab", mixed)
    comm_sq = np.einsum("...ip,...jq,...ijab,...pqab->...", g, g, comm, comm)
    return nperp, AA, AA2, comm_sq


def ref_simons2_lhs(b):
    return 2.0 * np.einsum("...ki,...lj,...kla,...ija->...", b.ginv, b.ginv, ref_ddH(b), b.A)


def ref_simons2_field(b):
    g, A = b.ginv, b.A
    nperp, AA, _, comm_sq = ref_quadratic_terms(b)
    T1 = AA - np.einsum("...iljk->...ijkl", AA)
    T1sq = np.einsum("...ip,...jq,...kr,...ls,...ijkl,...pqrs->...", g, g, g, g, T1, T1)
    HA = np.einsum("...a,...ija->...ij", b.H, A)
    T3 = HA - np.einsum("...kl,...ika,...jla->...ij", g, A, A)
    T3sq = np.einsum("...ip,...jq,...ij,...pq->...", g, g, T3, T3)
    T4sq = np.einsum("...ip,...jq,...ij,...pq->...", g, g, HA, HA)
    rhs = (laplace_beltrami(b.normA2, b) - 2.0 * nperp + T1sq + comm_sq
           + 2.0 * T3sq - 2.0 * T4sq)
    return ref_simons2_lhs(b) - rhs


def ref_structure_residuals(imm):
    b = ref_bundle(imm)
    mask = trusted_mask(imm)
    nA = ref_nabla_A(b)
    codazzi = ref_project(b, nA - np.einsum("...jika->...ijka", nA))
    return CurvatureReport(
        gauss=_norms(ref_intrinsic_curvature(b) - ref_gauss_from_A(b), b, mask,
                     scale_field=ref_gauss_from_A(b)),
        codazzi=_norms(codazzi, b, mask, scale_field=nA),
        ricci=_norms(ref_ricci_field(b), b, mask, scale_field=b.normA2),
        simons=_norms(ref_simons_field(b), b, mask, scale_field=ref_ddH(b)),
        simons2=_norms(ref_simons2_field(b), b, mask, scale_field=ref_simons2_lhs(b)),
    )


def ref_evolution_residuals(states):
    """Central-difference evolution residuals of a state triple."""
    b = states[1].bundle
    chart, mask = b.chart, trusted_mask(states[1].imm)
    w = _time_weights(*(s.t for s in states))

    def ddt(f):
        return sum(wi * f(s.bundle) for wi, s in zip(w, states))

    g = b.ginv
    S = np.einsum("...a,...ija->...ij", b.H, b.A)
    nabS = (d1_tensor(S, chart, tensor_axes=(0, 1))
            - np.einsum("...pki,...pj->...kij", b.gamma, S)
            - np.einsum("...pkj,...ip->...kij", b.gamma, S))
    inner = nabS + np.einsum("...jil->...ijl", nabS) - np.einsum("...lij->...ijl", nabS)
    C = -np.einsum("...kl,...ijl->...kij", g, inner)
    rate = integrate_values(b.normH2, b.sqrt_det_g, chart)
    vres = abs(ddt(lambda bb: bb.total_volume()) + rate)
    rhs_A = ref_ddH(b) - np.einsum("...kij,...ka->...ija", C, b.dF)
    dH_perp = ref_project(b, d1_tensor(b.H, chart))
    rhs_H2 = (laplace_beltrami(b.normH2, b)
              - 2.0 * np.einsum("...ij,...ia,...ja->...", g, dH_perp, dH_perp)
              + 2.0 * np.einsum("...ik,...jl,...ij,...kl->...", g, g, S, S))
    nperp, _, AA2, comm_sq = ref_quadratic_terms(b)
    rhs_A2 = laplace_beltrami(b.normA2, b) - 2.0 * nperp + 2.0 * AA2 + 2.0 * comm_sq
    F = states[1].imm.values
    if states[1].imm.affine is None:
        lapf = laplace_beltrami(np.einsum("...a,...a->...", F, F), b)
    else:
        lapF = np.einsum("...ij,...ija->...a", g, b.A)
        lapf = (2.0 * np.einsum("...a,...a->...", F, lapF)
                + 2.0 * np.einsum("...ij,...ia,...ja->...", g, b.dF, b.dF))
    dfdt = sum(wi * (np.einsum("...a,...a->...", s.imm.values, s.imm.values) + 2.0 * s.imm.m * s.t)
               for wi, s in zip(w, states))
    return {
        "metric": _norms(ddt(lambda bb: bb.g) + 2.0 * S, b, mask, scale_field=2.0 * S),
        "christoffel": _norms(ddt(lambda bb: bb.gamma) - C, b, mask, scale_field=C),
        "volume_form": _norms(ddt(lambda bb: bb.sqrt_det_g) + b.normH2 * b.sqrt_det_g, b, mask,
                              scale_field=b.normH2 * b.sqrt_det_g),
        "volume_total": ResidualNorms(linf=vres, l2=vres, scale=max(1.0, abs(rate))),
        "second_fundamental": _norms(ddt(lambda bb: bb.A) - rhs_A, b, mask, scale_field=rhs_A),
        "mean_sq": _norms(ddt(lambda bb: bb.normH2) - rhs_H2, b, mask, scale_field=rhs_H2),
        "a_sq": _norms(ddt(lambda bb: bb.normA2) - rhs_A2, b, mask, scale_field=rhs_A2),
        "heat": _norms(dfdt - lapf, b, mask,
                       scale_field=np.full(chart.shape, 2.0 * states[1].imm.m)),
    }


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def assert_norms_match(got: ResidualNorms, want: ResidualNorms, label: str):
    tol = REL * want.scale
    assert abs(got.scale - want.scale) <= tol, (label, "scale", got.scale, want.scale)
    assert abs(got.linf - want.linf) <= tol, (label, "linf", got.linf, want.linf)
    assert abs(got.l2 - want.l2) <= tol, (label, "l2", got.l2, want.l2)


@pytest.mark.parametrize("name", list(CHARTS))
def test_volume_integrates_the_density_directly(name):
    # sum(1.0 * d) is sum(d) bit for bit, so the volume and the masked RMS
    # skip the array of ones that integrate_values would multiply by
    b = build_bundle(CHARTS[name]())
    ch, mask, sq = b.chart, trusted_mask(b.imm), b.normA2
    ones = np.ones(ch.shape)
    assert b.total_volume() == integrate_values(ones, b.sqrt_det_g, ch)
    w = np.where(mask, b.sqrt_det_g, 0.0)
    rms = np.sqrt(integrate_values(np.where(mask, sq, 0.0), w, ch) / integrate_values(ones, w, ch))
    assert _masked_l2(sq, b, mask) == float(rms)


@pytest.mark.parametrize("name", list(CHARTS))
def test_bundle_matches_reference(name):
    imm = CHARTS[name]()
    got, want = build_bundle(imm), ref_bundle(imm)
    for field in ("ginv", "det_g", "H", "normA2", "gamma"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.abs(a - b).max() <= REL * np.abs(b).max(), field
    # the Laplacian's drift w^k = g^kl g^ij Gamma_lij
    drift = np.einsum("...kl,...ij,...lij->...k", want.ginv, want.ginv, want.gamma1)
    assert np.abs(got.drift - drift).max() <= REL * np.abs(drift).max(), "drift"


@pytest.mark.parametrize("name", list(CHARTS))
def test_metric_and_second_fundamental_form_symmetric(name):
    # bit for bit: the curvature tensor takes d^2 g of every component, and
    # simons2 reads |<A_ij,A_kl> - <A_il,A_jk>|^2 as the squared Gauss tensor
    b = build_bundle(CHARTS[name]())
    assert np.array_equal(b.g, b.g.swapaxes(-1, -2))
    assert np.array_equal(b.A, b.A.swapaxes(-2, -3))


@pytest.mark.parametrize("name", list(CHARTS))
def test_structure_residuals_match_reference(name):
    imm = CHARTS[name]()
    got, want = structure_residuals(imm), ref_structure_residuals(imm)
    for field in ("gauss", "codazzi", "ricci", "simons", "simons2"):
        assert_norms_match(getattr(got, field), getattr(want, field), field)


@pytest.mark.parametrize("name", list(CHARTS))
def test_antisymmetric_defects_kept_on_their_pairs(name):
    # the full Codazzi and Ricci fields are antisymmetric in (i, j) bit for
    # bit with exactly zero diagonals, so the pairs i < j carry all of them
    b = build_bundle(CHARTS[name]())
    m, mask = b.chart.m, trusted_mask(b.imm)
    iu, ju = np.triu_indices(m, 1)
    for label, full, field in (
            ("codazzi", full_codazzi_field(b), geometry.codazzi_residual_field(b)),
            ("ricci", full_ricci_field(b), geometry.ricci_residual_field(b))):
        assert np.array_equal(full, -full.swapaxes(0, 1)), label
        assert not full[np.arange(m), np.arange(m)].any(), label
        pairs = roll_axes(field, m)
        assert pairs.shape[0] == {1: 0, 2: 1, 3: 3}[m], label
        assert np.array_equal(pairs, full[iu, ju]), label
        got = _norms(field, b, mask, pairs=True)
        want = _norms(roll_axes(full, full.ndim - m), b, mask)
        assert got.linf == want.linf and np.copysign(1.0, got.linf) == 1.0, label
        assert abs(got.l2 - want.l2) <= 1e-14 * want.l2, label


@pytest.mark.parametrize("name", list(CHARTS))
def test_evolution_residuals_match_reference(name):
    s0 = FlowState.initial(CHARTS[name]())
    cfg = FlowConfig(cfl_sigma=0.5)
    s1 = step_explicit(s0, adaptive_dt(s0, cfg))
    s2 = step_explicit(s1, adaptive_dt(s1, cfg))
    got = evolution_residuals(s0, s2, mid=s1).as_dict()
    want = ref_evolution_residuals([s0, s1, s2])
    assert got.keys() == want.keys()
    for field, norms in want.items():
        assert_norms_match(got[field], norms, field)


@pytest.mark.parametrize("name", ["whitney", "clifford"])
def test_checks_of_one_state_share_its_contractions(name, monkeypatch):
    # the evolution check fills the middle bundle's contractions and the
    # structure check reads them: nabla A is built once per bundle, and the
    # norms equal those of a fresh bundle bit for bit
    built = []
    nabla_A = geometry.nabla_A
    monkeypatch.setattr(geometry, "nabla_A", lambda b: built.append(b) or nabla_A(b))
    s0 = FlowState.initial(CHARTS[name]())
    cfg = FlowConfig(cfl_sigma=0.5)
    s1 = step_explicit(s0, adaptive_dt(s0, cfg))
    s2 = step_explicit(s1, adaptive_dt(s1, cfg))
    evolution_residuals(s0, s2, mid=s1)
    shared = structure_residuals(s1.imm, s1.bundle)
    assert len(built) == 1 and built[0] is s1.bundle
    assert shared == structure_residuals(s1.imm)
    assert len(built) == 2 and built[1] is not s1.bundle


@pytest.mark.parametrize("name", ["sphere", "whitney", "clifford"])
def test_projector_matches_per_component_projection(name):
    b = build_bundle(CHARTS[name]())
    rng = np.random.default_rng(11)
    V = rng.normal(size=b.chart.shape + (2, 4, b.imm.n))
    got = normal_part(b, V)
    want = ref_project(b, V)
    assert np.abs(got - want).max() <= REL * np.abs(V).max()
    e = np.eye(b.imm.n)[-1]
    assert np.abs(normal_part(b, e) - ref_normal_part(b, e)).max() <= REL
