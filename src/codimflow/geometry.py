"""First and second fundamental forms, curvature invariants, and numerical
residuals of the structure equations for discrete immersions into flat R^n.

All ambient curvature terms vanish (the ambient space is Euclidean), so

    A^a_ij = d_i d_j F^a - Gamma^k_ij d_k F^a        (Gauss formula)
    H^a    = g^ij A^a_ij

and every structure equation is checked with its ambient-curvature terms set
to zero. Intrinsic curvature for the Gauss check is computed from the metric
and its finite-differenced derivatives (never from A, which would make the
check circular).

Tensor component fields on sphere charts are differentiated with the pole
parity (-1)^{number of colatitude indices}; the helpers here carry that
bookkeeping so callers never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateImmersion, NonFiniteError, UsageError
from .grid import AxisKind, Chart, Domain, GridField, diff1, diff2, diff_mixed, integrate_values, make_chart

DET_G_FLOOR = 1e-12
PINCHING_H2_FLOOR = 1e-12


@dataclass(frozen=True)
class Immersion:
    """Discrete immersion F: chart -> R^n.

    values holds the full position per node, shape chart.shape + (n,). For
    immersions whose position is an affine function of the chart coordinates
    plus a periodic remainder (Lagrangian graphs over tori, truncated
    profiles), affine = (matrix, offset) with matrix of shape (n, m) stores
    the exact affine summand; derivative operators then differentiate only
    the periodic remainder and add the matrix analytically, so every derived
    quantity stays periodic.

    norm_mask optionally marks the nodes trusted by residual norms (used by
    truncated non-compact profiles whose reflecting ends are excluded).
    """

    chart: Chart
    values: np.ndarray
    affine: tuple[np.ndarray, np.ndarray] | None = None
    norm_mask: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.shape[:-1] != self.chart.shape:
            raise UsageError(
                f"immersion values shape {v.shape} does not match chart {self.chart.shape}"
            )
        if v.shape[-1] <= self.chart.m:
            raise UsageError("ambient dimension must exceed intrinsic dimension")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("immersion contains non-finite positions")
        if self.affine is not None:
            mat, off = self.affine
            mat = np.asarray(mat, dtype=np.float64)
            off = np.asarray(off, dtype=np.float64)
            if mat.shape != (self.n, self.m) or off.shape != (self.n,):
                raise UsageError("affine part has inconsistent shape")
            object.__setattr__(self, "affine", (mat, off))

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def m(self) -> int:
        return self.chart.m

    def affine_values(self) -> np.ndarray:
        """Evaluate the affine summand on the chart (zero if absent)."""
        if self.affine is None:
            return np.zeros(self.chart.shape + (self.n,))
        mat, off = self.affine
        out = np.broadcast_to(off, self.chart.shape + (self.n,)).copy()
        for i, xi in enumerate(self.chart.mesh()):
            out += xi[..., None] * mat[:, i]
        return out

    def periodic_values(self) -> np.ndarray:
        if self.affine is None:
            return self.values
        return self.values - self.affine_values()

    def translated(self, shift: np.ndarray) -> "Immersion":
        shift = np.asarray(shift, dtype=np.float64)
        affine = self.affine
        if affine is not None:
            affine = (affine[0], affine[1] + shift)
        return replace(self, values=self.values + shift, affine=affine)

    def transformed(self, Q: np.ndarray, shift: np.ndarray | None = None) -> "Immersion":
        """Apply the ambient isometry x -> Q x + shift."""
        Q = np.asarray(Q, dtype=np.float64)
        b = np.zeros(self.n) if shift is None else np.asarray(shift, dtype=np.float64)
        vals = self.values @ Q.T + b
        affine = self.affine
        if affine is not None:
            affine = (Q @ affine[0], Q @ affine[1] + b)
        return replace(self, values=vals, affine=affine)


# ---------------------------------------------------------------------------
# parity bookkeeping for sphere charts
# ---------------------------------------------------------------------------

def _axis_signs(chart: Chart) -> np.ndarray:
    s = np.ones(chart.m)
    for a, kind in enumerate(chart.axis_kinds):
        if kind is AxisKind.POLE:
            s[a] = -1.0
    return s


def _parity(chart: Chart, trailing_shape: tuple[int, ...], tensor_axes: tuple[int, ...]):
    """Per-component parity for a field with the given trailing index shape.

    tensor_axes lists which trailing axes are chart-index (m-sized) slots;
    remaining trailing axes are ambient/scalar slots with parity +1. On
    charts without a pole axis the parity is identically +1 and a scalar is
    returned.
    """
    if chart.spec.domain is not Domain.SPHERE or not tensor_axes:
        return 1.0
    p = np.ones(trailing_shape)
    s = _axis_signs(chart)
    for ax in tensor_axes:
        shape = [1] * len(trailing_shape)
        shape[ax] = chart.m
        p = p * s.reshape(shape)
    return p


def d1_tensor(values: np.ndarray, chart: Chart, tensor_axes: tuple[int, ...] = ()) -> np.ndarray:
    """Partial derivatives d_k T, derivative index prepended to the trailing
    indices: output shape chart.shape + (m,) + trailing."""
    gdim = len(chart.shape)
    trailing = values.shape[gdim:]
    par = _parity(chart, trailing, tensor_axes)
    if isinstance(par, np.ndarray):
        par = par.ravel()
    flat = values.reshape(chart.shape + (-1,))
    out = np.empty(chart.shape + (chart.m,) + (flat.shape[-1],))
    for a in range(chart.m):
        out[..., a, :] = diff1(flat, a, chart, par)
    return out.reshape(chart.shape + (chart.m,) + trailing)


def d2_tensor(values: np.ndarray, chart: Chart, tensor_axes: tuple[int, ...] = ()) -> np.ndarray:
    """Second partials d_k d_l T with two derivative indices prepended."""
    gdim = len(chart.shape)
    trailing = values.shape[gdim:]
    par = _parity(chart, trailing, tensor_axes)
    if isinstance(par, np.ndarray):
        par = par.ravel()
    flat = values.reshape(chart.shape + (-1,))
    m = chart.m
    out = np.empty(chart.shape + (m, m) + (flat.shape[-1],))
    for a in range(m):
        out[..., a, a, :] = diff2(flat, a, chart, par)
        for b in range(a + 1, m):
            mixed = diff_mixed(flat, a, b, chart, par)
            out[..., a, b, :] = mixed
            out[..., b, a, :] = mixed
    return out.reshape(chart.shape + (m, m) + trailing)


# ---------------------------------------------------------------------------
# fundamental forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryBundle:
    """Per-node geometric data derived from one immersion."""

    imm: Immersion
    dF: np.ndarray          # (*, m, n)    first partials of F
    ddF: np.ndarray         # (*, m, m, n) second partials of F
    g: np.ndarray           # (*, m, m)    induced metric
    ginv: np.ndarray        # (*, m, m)
    det_g: np.ndarray       # (*,)
    sqrt_det_g: np.ndarray  # (*,)
    dg: np.ndarray          # (*, k, i, j) metric first partials
    gamma1: np.ndarray      # (*, a, i, j) Christoffel symbols, first kind
    gamma: np.ndarray       # (*, k, i, j) Christoffel symbols, second kind
    A: np.ndarray           # (*, m, m, n) second fundamental tensor
    H: np.ndarray           # (*, n)       mean curvature vector
    normA2: np.ndarray      # (*,)
    normH2: np.ndarray      # (*,)

    @property
    def chart(self) -> Chart:
        return self.imm.chart

    @property
    def volume_density(self) -> np.ndarray:
        return self.sqrt_det_g

    def total_volume(self) -> float:
        return integrate_values(np.ones(self.chart.shape), self.sqrt_det_g, self.chart)

    def pinching_ratio(self) -> np.ndarray:
        """|A|^2 / |H|^2 where defined; NaN where |H|^2 is negligible."""
        ok = self.normH2 >= PINCHING_H2_FLOOR * np.maximum(self.normA2, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(ok, self.normA2 / np.where(ok, self.normH2, 1.0), np.nan)
        return r


def first_partials(imm: Immersion) -> np.ndarray:
    """d_i F^a, shape chart.shape + (m, n); exact on any affine summand."""
    P = imm.periodic_values()
    d = d1_tensor(P, imm.chart)
    if imm.affine is not None:
        d = d + imm.affine[0].T  # (m, n) broadcast over nodes
    return d


def second_partials(imm: Immersion) -> np.ndarray:
    return d2_tensor(imm.periodic_values(), imm.chart)


def induced_metric(imm: Immersion):
    """Induced metric g_ij = <d_i F, d_j F>, its inverse and volume density.

    Raises DegenerateImmersion naming the worst node when det g drops below
    the relative positive-definiteness floor. The floor is checked before g
    is inverted, so a degenerate metric never reaches the inversion.
    """
    dF = first_partials(imm)
    g = np.einsum("...ia,...ja->...ij", dF, dF)
    m = imm.m
    det = g[..., 0, 0] if m == 1 else np.linalg.det(g)
    mean_trace = float(np.mean(np.einsum("...ii->...", g)))
    floor = DET_G_FLOOR * (mean_trace / m) ** m
    dmin = float(det.min())
    if dmin < floor or not np.all(np.isfinite(det)):
        node = np.unravel_index(int(np.argmin(det)), imm.chart.shape)
        raise DegenerateImmersion(
            f"induced metric degenerate: det g = {dmin:.3e} < floor {floor:.3e} "
            f"at node {node}",
            node=node,
            det_value=dmin,
        )
    ginv = (1.0 / det)[..., None, None] if m == 1 else np.linalg.inv(g)
    return dF, g, ginv, det, np.sqrt(det)


def christoffel(g: np.ndarray, ginv: np.ndarray, chart: Chart):
    """Christoffel symbols of first and second kind from the metric field."""
    dg = d1_tensor(g, chart, tensor_axes=(0, 1))  # (*, k, i, j) = d_k g_ij
    gamma1 = 0.5 * (
        np.einsum("...iaj->...aij", dg)
        + np.einsum("...jai->...aij", dg)
        - dg
    )
    gamma = np.einsum("...al,...lij->...aij", ginv, gamma1)
    return dg, gamma1, gamma


def second_fundamental(ddF: np.ndarray, dF: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """A^a_ij = d_i d_j F^a - Gamma^k_ij d_k F^a (flat ambient)."""
    return ddF - np.einsum("...kij,...ka->...ija", gamma, dF)


def mean_curvature(A: np.ndarray, ginv: np.ndarray):
    """Trace of A plus the scalar invariants |H|^2 and |A|^2."""
    H = np.einsum("...ij,...ija->...a", ginv, A)
    normH2 = np.einsum("...a,...a->...", H, H)
    normA2 = np.einsum("...ik,...jl,...ija,...kla->...", ginv, ginv, A, A)
    return H, normH2, normA2


def build_bundle(imm: Immersion) -> GeometryBundle:
    """Compute the full geometric bundle for one immersion."""
    dF, g, ginv, det, sqrt_det = induced_metric(imm)
    ddF = second_partials(imm)
    dg, gamma1, gamma = christoffel(g, ginv, imm.chart)
    A = second_fundamental(ddF, dF, gamma)
    H, normH2, normA2 = mean_curvature(A, ginv)
    if not np.all(np.isfinite(H)):
        raise NonFiniteError("mean curvature is non-finite")
    return GeometryBundle(
        imm=imm, dF=dF, ddF=ddF, g=g, ginv=ginv, det_g=det, sqrt_det_g=sqrt_det,
        dg=dg, gamma1=gamma1, gamma=gamma, A=A, H=H, normA2=normA2, normH2=normH2,
    )


def normal_part(bundle: GeometryBundle, V: np.ndarray) -> np.ndarray:
    """Normal projection V - g^ij <V, F_i> F_j per node.

    V broadcasts: either a constant ambient vector (n,) or a field (*, n).
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = np.broadcast_to(V, bundle.imm.chart.shape + (bundle.imm.n,))
    comp = np.einsum("...a,...ia->...i", V, bundle.dF)
    tang = np.einsum("...ij,...i,...ja->...a", bundle.ginv, comp, bundle.dF)
    return V - tang


def tangency_defect(bundle: GeometryBundle) -> np.ndarray:
    """max_{i,j,k} |<A_ij, F_k>| per node (vanishes in the continuum)."""
    t = np.einsum("...ija,...ka->...ijk", bundle.A, bundle.dF)
    return np.abs(t).max(axis=(-3, -2, -1))


def laplace_beltrami(values: np.ndarray, bundle: GeometryBundle) -> np.ndarray:
    """Laplace-Beltrami of component fields: g^ij (d_i d_j f - Gamma^k_ij d_k f).

    values has shape chart.shape (scalar) or chart.shape + (c,); components
    must be scalar functions on the chart (even pole parity).
    """
    chart = bundle.chart
    scalar = values.ndim == len(chart.shape)
    v = values[..., None] if scalar else values
    d1 = d1_tensor(v, chart)
    d2 = d2_tensor(v, chart)
    hess = d2 - np.einsum("...kij,...kc->...ijc", bundle.gamma, d1)
    out = np.einsum("...ij,...ijc->...c", bundle.ginv, hess)
    return out[..., 0] if scalar else out


# ---------------------------------------------------------------------------
# covariant derivatives of curvature fields
# ---------------------------------------------------------------------------

def nabla_A(bundle: GeometryBundle) -> np.ndarray:
    """Full covariant derivative (nabla_i A)^a_jk in flat ambient space."""
    dA = d1_tensor(bundle.A, bundle.chart, tensor_axes=(0, 1))  # (*, i, j, k, a)
    corr_j = np.einsum("...pij,...pka->...ijka", bundle.gamma, bundle.A)
    corr_k = np.einsum("...pik,...jpa->...ijka", bundle.gamma, bundle.A)
    return dA - corr_j - corr_k


def second_covariant_H(bundle: GeometryBundle) -> np.ndarray:
    """(nabla_k nabla_l H)^a in flat ambient space, shape (*, k, l, n)."""
    dH = d1_tensor(bundle.H, bundle.chart)  # (*, l, n)
    ddH = d1_tensor(dH, bundle.chart, tensor_axes=(0,))  # (*, k, l, n)
    return ddH - np.einsum("...pkl,...pa->...kla", bundle.gamma, dH)


def intrinsic_curvature(bundle: GeometryBundle) -> np.ndarray:
    """Riemann tensor R_ijkl = <d_i, R(d_k, d_l) d_j> of the induced metric.

    Assembled from second derivatives of g and pointwise products of
    first-kind Christoffel symbols; this form avoids differentiating the
    (pole-singular) Christoffel components themselves.
    """
    chart = bundle.chart
    ddg = d2_tensor(bundle.g, chart, tensor_axes=(0, 1))  # (*, k, l, i, j)
    part = 0.5 * (
        np.einsum("...kjil->...ijkl", ddg)
        + np.einsum("...likj->...ijkl", ddg)
        - np.einsum("...kilj->...ijkl", ddg)
        - np.einsum("...ljik->...ijkl", ddg)
    )
    quad = np.einsum("...pq,...qkj,...pli->...ijkl", bundle.ginv, bundle.gamma1, bundle.gamma1) \
        - np.einsum("...pq,...qlj,...pki->...ijkl", bundle.ginv, bundle.gamma1, bundle.gamma1)
    return part + quad


def gauss_curvature_from_A(bundle: GeometryBundle) -> np.ndarray:
    """<A_ik, A_jl> - <A_il, A_jk>: the extrinsic side of the Gauss equation."""
    AA = np.einsum("...ika,...jla->...ijkl", bundle.A, bundle.A)
    return AA - np.einsum("...ijlk->...ijkl", AA)


# ---------------------------------------------------------------------------
# structure-equation residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualNorms:
    """Raw residual norms plus the magnitude of the identity being checked.

    linf is the max over trusted nodes and components; l2 the volume-weighted
    RMS of the per-node Frobenius norm. scale is the L-infinity size of the
    identity's dominant term, so linf/scale and l2/scale are the relative
    defects (meaningful across examples whose curvature invariants differ by
    orders of magnitude).
    """

    linf: float
    l2: float
    scale: float = 1.0

    @property
    def linf_rel(self) -> float:
        return self.linf / self.scale

    @property
    def l2_rel(self) -> float:
        return self.l2 / self.scale


@dataclass(frozen=True)
class CurvatureReport:
    gauss: ResidualNorms
    codazzi: ResidualNorms
    ricci: ResidualNorms
    simons: ResidualNorms
    simons2: ResidualNorms


def trusted_mask(imm: Immersion, pole_margin: int = 1) -> np.ndarray | None:
    """Nodes whose residual values are trusted by norm reports.

    Combines the immersion's own norm_mask (truncated profiles) with an
    optional exclusion of pole-adjacent colatitude rings on sphere charts,
    where the coordinate degeneracy of the chart slows the pointwise
    convergence of deep covariant compositions by one order.
    """
    mask = None
    if imm.norm_mask is not None:
        mask = imm.norm_mask.copy()
    if pole_margin > 0 and imm.chart.spec.domain is Domain.SPHERE:
        if mask is None:
            mask = np.ones(imm.chart.shape, dtype=bool)
        mask[:pole_margin, :] = False
        mask[-pole_margin:, :] = False
    return mask


def _norms(res_field: np.ndarray, bundle: GeometryBundle,
           mask: np.ndarray | None, scale_field: np.ndarray | None = None) -> ResidualNorms:
    chart = bundle.chart
    flat = res_field.reshape(chart.shape + (-1,))
    per_node_sq = np.einsum("...c,...c->...", flat, flat)
    per_node_max = np.abs(flat).max(axis=-1)
    w = bundle.sqrt_det_g
    if mask is not None:
        per_node_max = np.where(mask, per_node_max, 0.0)
        per_node_sq = np.where(mask, per_node_sq, 0.0)
        w = np.where(mask, w, 0.0)
    vol = integrate_values(np.ones(chart.shape), w, chart)
    linf = float(per_node_max.max())
    l2 = float(np.sqrt(integrate_values(per_node_sq, w, chart) / vol))
    scale = 1.0
    if scale_field is not None:
        sflat = np.abs(scale_field.reshape(chart.shape + (-1,))).max(axis=-1)
        if mask is not None:
            sflat = np.where(mask, sflat, 0.0)
        scale = max(1.0, float(sflat.max()))
    return ResidualNorms(linf=linf, l2=l2, scale=scale)


def gauss_residual_field(bundle: GeometryBundle) -> np.ndarray:
    return intrinsic_curvature(bundle) - gauss_curvature_from_A(bundle)


def codazzi_residual_field(bundle: GeometryBundle) -> np.ndarray:
    """Normal part of (nabla_i A)_jk - (nabla_j A)_ik (vanishes for R^N = 0)."""
    nA = nabla_A(bundle)
    anti = nA - np.einsum("...jika->...ijka", nA)
    flat = anti.reshape(bundle.chart.shape + (-1, bundle.imm.n))
    proj = np.stack(
        [normal_part(bundle, flat[..., c, :]) for c in range(flat.shape[-2])],
        axis=-2,
    )
    return proj.reshape(anti.shape)


def ricci_residual_field(bundle: GeometryBundle) -> np.ndarray:
    """Ricci-equation defect tested on the normal parts of the ambient basis.

    For each ambient basis vector e_b, nu = e_b^perp is a smooth normal field
    and the normal-curvature identity

        R^perp(d_i, d_j) nu = -g^kl (<nu, A_ik> A_jl - <nu, A_jk> A_il)

    is tensorial in nu, so testing a spanning family is a complete check.
    The left side is evaluated as the antisymmetrized second normal
    derivative (d_i (d_j nu)^perp)^perp.
    """
    chart = bundle.chart
    n = bundle.imm.n
    out = np.empty(chart.shape + (chart.m, chart.m, n, n))
    for b in range(n):
        e = np.zeros(n)
        e[b] = 1.0
        nu = normal_part(bundle, e)
        dnu = d1_tensor(nu, chart)  # (*, j, n)
        Y = np.stack([normal_part(bundle, dnu[..., j, :]) for j in range(chart.m)], axis=-2)
        dY = d1_tensor(Y, chart, tensor_axes=(0,))  # (*, i, j, n)
        lhs_raw = dY - np.einsum("...ija->...jia", dY)
        lhs = np.stack(
            [
                np.stack(
                    [normal_part(bundle, lhs_raw[..., i, j, :]) for j in range(chart.m)],
                    axis=-2,
                )
                for i in range(chart.m)
            ],
            axis=-3,
        )
        nuA = np.einsum("...a,...ika->...ik", nu, bundle.A)
        rhs_half = np.einsum("...kl,...ik,...jla->...ija", bundle.ginv, nuA, bundle.A)
        rhs = -(rhs_half - np.einsum("...jia->...ija", rhs_half))
        out[..., b] = lhs - rhs
    return out


def simons_residual_field(bundle: GeometryBundle) -> np.ndarray:
    """Defect of Simons' identity in flat ambient space:

        nabla_k nabla_l H = Delta A_kl
                            - (nabla_k R^p_l + nabla_l R^p_k - nabla^p R_kl) F_p
                            + 2 R_k^i_l^j A_ij - R^p_k A_pl - R^p_l A_pk

    The intrinsic curvature entering the right side is taken from the Gauss
    equation (A-products), which is algebraically equivalent and numerically
    far better conditioned near sphere-chart poles than differentiated
    Christoffel symbols.
    """
    chart = bundle.chart
    ginv = bundle.ginv
    R = gauss_curvature_from_A(bundle)  # R_ijkl
    ric = np.einsum("...kl,...ikjl->...ij", ginv, R)
    dric = d1_tensor(ric, chart, tensor_axes=(0, 1))  # (*, k, i, j)
    nabla_ric = dric \
        - np.einsum("...pki,...pj->...kij", bundle.gamma, ric) \
        - np.einsum("...pkj,...ip->...kij", bundle.gamma, ric)

    nA = nabla_A(bundle)  # (*, i, j, k, a) = nabla_i A_jk
    dnA = d1_tensor(nA, chart, tensor_axes=(0, 1, 2))  # (*, p, i, j, k, a)
    ddA = dnA \
        - np.einsum("...qpi,...qjka->...pijka", bundle.gamma, nA) \
        - np.einsum("...qpj,...iqka->...pijka", bundle.gamma, nA) \
        - np.einsum("...qpk,...ijqa->...pijka", bundle.gamma, nA)
    lapA = np.einsum("...pi,...pikla->...kla", ginv, ddA)

    grad_ric_term = (
        np.einsum("...pq,...kql->...klp", ginv, nabla_ric)
        + np.einsum("...pq,...lqk->...klp", ginv, nabla_ric)
        - np.einsum("...pq,...qkl->...klp", ginv, nabla_ric)
    )
    F_term = np.einsum("...klp,...pa->...kla", grad_ric_term, bundle.dF)

    R_up = np.einsum("...ip,...jq,...kplq->...kilj", ginv, ginv, R)
    RA_term = 2.0 * np.einsum("...kilj,...ija->...kla", R_up, bundle.A)
    ric_up = np.einsum("...pq,...qk->...pk", ginv, ric)
    ricA = np.einsum("...pk,...pla->...kla", ric_up, bundle.A) \
        + np.einsum("...pl,...pka->...kla", ric_up, bundle.A)

    rhs = lapA - F_term + RA_term - ricA
    return second_covariant_H(bundle) - rhs


def simons2_residual_field(bundle: GeometryBundle) -> np.ndarray:
    """Defect of the contracted (second) Simons identity in flat space:

        2 <A, nabla^2 H> = Delta |A|^2 - 2 |nabla^perp A|^2
                           + |<A_ij,A_kl> - <A_il,A_jk>|^2 + |A-commutator|^2
                           + 2 |<H,A_ij> - <A_ik, A_j^k>|^2 - 2 |<H,A_ij>|^2
    """
    chart = bundle.chart
    ginv = bundle.ginv
    A = bundle.A

    ddH = second_covariant_H(bundle)
    lhs = 2.0 * np.einsum("...ki,...lj,...kla,...ija->...", ginv, ginv, ddH, A)

    lap_normA2 = laplace_beltrami(bundle.normA2, bundle)

    nA = nabla_A(bundle)
    flat = nA.reshape(chart.shape + (-1, bundle.imm.n))
    proj = np.stack(
        [normal_part(bundle, flat[..., c, :]) for c in range(flat.shape[-2])],
        axis=-2,
    ).reshape(nA.shape)
    nperpA2 = np.einsum(
        "...ip,...jq,...kr,...ijka,...pqra->...", ginv, ginv, ginv, proj, proj
    )

    AA = np.einsum("...ija,...kla->...ijkl", A, A)  # <A_ij, A_kl>
    T1 = AA - np.einsum("...iljk->...ijkl", AA)
    T1sq = np.einsum(
        "...ip,...jq,...kr,...ls,...ijkl,...pqrs->...", ginv, ginv, ginv, ginv, T1, T1
    )

    A_mixed = np.einsum("...kl,...ika,...jlb->...ijab", ginv, A, A)
    comm = A_mixed - np.einsum("...ijba->...ijab", A_mixed)
    comm_sq = np.einsum("...ip,...jq,...ijab,...pqab->...", ginv, ginv, comm, comm)

    HA = np.einsum("...a,...ija->...ij", bundle.H, A)
    AAc = np.einsum("...kl,...ika,...jla->...ij", ginv, A, A)
    T3 = HA - AAc
    T3sq = np.einsum("...ip,...jq,...ij,...pq->...", ginv, ginv, T3, T3)
    T4sq = np.einsum("...ip,...jq,...ij,...pq->...", ginv, ginv, HA, HA)

    rhs = lap_normA2 - 2.0 * nperpA2 + T1sq + comm_sq + 2.0 * T3sq - 2.0 * T4sq
    return lhs - rhs


def structure_residuals(imm: Immersion, bundle: GeometryBundle | None = None,
                        pole_margin: int = 1) -> CurvatureReport:
    """Numerical residuals of the Gauss, Codazzi, Ricci, and both Simons
    identities, with every ambient-curvature term set to zero.

    Each entry carries the residual norms together with the size of the
    identity's dominant term, so callers can judge relative defects. Norms
    are taken over the trusted region (see trusted_mask)."""
    if bundle is None:
        bundle = build_bundle(imm)
    mask = trusted_mask(imm, pole_margin)
    gauss = _norms(gauss_residual_field(bundle), bundle, mask,
                   scale_field=gauss_curvature_from_A(bundle))
    codazzi = _norms(codazzi_residual_field(bundle), bundle, mask,
                     scale_field=nabla_A(bundle))
    nuA_scale = np.einsum("...ik,...jl,...ija,...kla->...",
                          bundle.ginv, bundle.ginv, bundle.A, bundle.A)
    ricci = _norms(ricci_residual_field(bundle), bundle, mask,
                   scale_field=nuA_scale)
    ddH = second_covariant_H(bundle)
    simons = _norms(simons_residual_field(bundle), bundle, mask,
                    scale_field=ddH)
    lhs2 = 2.0 * np.einsum("...ki,...lj,...kla,...ija->...",
                           bundle.ginv, bundle.ginv, ddH, bundle.A)
    simons2 = _norms(simons2_residual_field(bundle), bundle, mask,
                     scale_field=lhs2)
    return CurvatureReport(gauss=gauss, codazzi=codazzi, ricci=ricci,
                           simons=simons, simons2=simons2)


# ---------------------------------------------------------------------------
# graphs over flat tori
# ---------------------------------------------------------------------------

def graph_immersion(f: GridField) -> Immersion:
    """Immersion of the graph of f over a flat torus, the torus factor
    embedded through unit-circle pairs (cos x_a, sin x_a) so the image is a
    closed submanifold of R^{2m + k}."""
    chart = f.chart
    if chart.spec.domain not in (Domain.TORUS, Domain.CIRCLE):
        raise UsageError("graph_immersion requires a periodic torus chart")
    m = chart.m
    k = f.components
    mesh = chart.mesh()
    vals = np.empty(chart.shape + (2 * m + k,))
    for a in range(m):
        vals[..., 2 * a] = np.cos(mesh[a])
        vals[..., 2 * a + 1] = np.sin(mesh[a])
    vals[..., 2 * m :] = f.values
    return Immersion(chart=chart, values=vals)


def graph_singular_values(f: GridField):
    """Per-node singular values of df (descending) and the area-decreasing
    flag lambda_i lambda_j < 1 for all i != j (None when m = 1)."""
    chart = f.chart
    jac = d1_tensor(f.values, chart)  # (*, i, A): d_i f^A
    jac_mat = np.swapaxes(jac, -1, -2)  # (*, A, i): k x m matrices
    sv = np.linalg.svd(jac_mat, compute_uv=False)
    m = chart.m
    if sv.shape[-1] < m:
        padded = np.zeros(chart.shape + (m,))
        padded[..., : sv.shape[-1]] = sv
        sv = padded
    sv = -np.sort(-sv, axis=-1)
    if m == 1:
        return sv, None
    flag = bool(np.all(sv[..., 0] * sv[..., 1] < 1.0))
    return sv, flag
