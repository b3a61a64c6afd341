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
from functools import cached_property

import numpy as np

from .errors import DegenerateImmersion, NonFiniteError, UsageError
from .grid import AxisKind, Chart, Domain, GridField, diff1, integrate_values, partials, roll_axes

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
    truncated non-compact profiles whose reflecting ends are excluded); it
    is a boolean chart array that trusts at least one node.
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
        if not np.isfinite(v).all():
            raise NonFiniteError("immersion contains non-finite positions")
        mask = self.norm_mask
        if mask is not None and not (isinstance(mask, np.ndarray) and mask.dtype == bool
                                     and mask.shape == self.chart.shape):
            raise UsageError(f"norm_mask must be a boolean array of shape {self.chart.shape}")
        if mask is not None and not mask.any():
            raise UsageError("norm_mask trusts no node")
        if self.affine is not None:
            mat, off = self.affine
            mat = np.asarray(mat, dtype=np.float64)
            off = np.asarray(off, dtype=np.float64)
            if mat.shape != (self.n, self.m) or off.shape != (self.n,):
                raise UsageError("affine part has inconsistent shape")
            if not (np.isfinite(mat).all() and np.isfinite(off).all()):
                raise NonFiniteError("immersion affine part is non-finite")
            object.__setattr__(self, "affine", (mat, off))

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def m(self) -> int:
        return self.chart.m

    def affine_values(self) -> np.ndarray:
        """Evaluate the affine summand on the chart."""
        mat, off = self.affine
        out = np.broadcast_to(off, self.chart.shape + (self.n,)).copy()
        for i, xi in enumerate(self.chart.mesh()):
            out += xi[..., None] * mat[:, i]
        return out

    def periodic_values(self) -> np.ndarray:
        if self.affine is None:
            return self.values
        return self.values - self.affine_values()

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

def _parity(chart: Chart, trailing_shape: tuple[int, ...], tensor_axes: tuple[int, ...]):
    """Per-component parity, an array of the given trailing index shape.

    tensor_axes lists which trailing axes are chart-index (m-sized) slots;
    each contributes -1 where its index names a pole axis. The remaining
    trailing axes are ambient/scalar slots with parity +1. Only pole axes
    read the parity (grid._pad), so off the sphere its signs are never used.
    """
    signs = np.array([-1.0 if k is AxisKind.POLE else 1.0 for k in chart.axis_kinds])
    p = np.ones(trailing_shape)
    for ax in tensor_axes:
        shape = [1] * len(trailing_shape)
        shape[ax] = chart.m
        p = p * signs.reshape(shape)
    return p


def d1_tensor(values: np.ndarray, chart: Chart, tensor_axes: tuple[int, ...] = ()) -> np.ndarray:
    """Partial derivatives d_k T, derivative index prepended to the trailing
    indices: output shape chart.shape + (m,) + trailing, a node-major view of
    index-major storage (m,) + trailing + chart.shape."""
    m, trailing = chart.m, values.shape[chart.m:]
    par = _parity(chart, trailing, tensor_axes)
    out = np.empty((m,) + trailing + chart.shape)
    for a in range(m):
        roll_axes(out[a], len(trailing))[...] = diff1(values, a, chart, par)
    return roll_axes(out, len(trailing) + 1)


# ---------------------------------------------------------------------------
# index contractions
#
# The bundle and the checks compute on index-major storage (index axes first,
# node axes last), where a contraction sums whole-chart products over the
# index axes (48x96 sphere, 2-core Xeon: a (2, 2, 2) field plus its transpose
# in two indices takes 23 us index-major, 129 us node-major with inner loops
# of 2). The public fields and products are node-major views of that storage
# (grid.roll_axes); roll_axes(field, -k) is the storage of a field with k
# index axes.
# ---------------------------------------------------------------------------

def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum_p X[p] * Y[p] over the leading axis, the terms added in order."""
    acc = X[0] * Y[0]
    for p in range(1, len(X)):
        acc += X[p] * Y[p]
    return acc


def _sq_norm(ginv: np.ndarray, T: np.ndarray, k: int) -> np.ndarray:
    """T_{i1..ik} . T^{i1..ik} per node, for index-major T (m,) * k + rest +
    nodes and g^-1 (m, m) + nodes; the rest axes are summed as inner
    products. Each index is raised in turn and rotated behind the others."""
    m, nodes = ginv.shape[0], ginv.shape[2:]
    up = T
    for _ in range(k):
        G = ginv.reshape((m, m) + (1,) * (up.ndim - len(nodes) - 1) + nodes)
        up = np.moveaxis(_dot(G, up[:, None]), 0, k - 1)
    return _dot(T.reshape((-1,) + nodes), up.reshape((-1,) + nodes))


def _project(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sum_a V[..., a] P[a, b] per node: the normal part of an index-major
    field V (..., n) + nodes under the projector P (n, n) + nodes."""
    n, nodes = P.shape[0], P.shape[2:]
    flat = V.reshape((-1, n) + nodes).swapaxes(0, 1)
    return _dot(flat[:, :, None], P[:, None]).reshape(V.shape)


# ---------------------------------------------------------------------------
# fundamental forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryBundle:
    """Per-node geometric data derived from one immersion: the first
    partials, the metric with its inverse and volume density, both kinds of
    Christoffel symbols, the second fundamental tensor with its first index
    raised, H and |A|^2. |H|^2, max |A|^2, the Laplacian's drift, the normal
    projector and the curvature contractions of the residual checks are
    built on first use and kept, so the stop checks, the records and the
    structure and evolution checks of one state share them. Every field and
    product is node-major, a view of index-major storage."""

    imm: Immersion
    dF: np.ndarray          # (*, m, n)    first partials of F
    g: np.ndarray           # (*, m, m)    induced metric
    ginv: np.ndarray        # (*, m, m)
    det_g: np.ndarray       # (*,)
    sqrt_det_g: np.ndarray  # (*,)
    gamma1: np.ndarray      # (*, a, i, j) Christoffel symbols, first kind
    gamma: np.ndarray       # (*, k, i, j) Christoffel symbols, second kind
    A: np.ndarray           # (*, m, m, n) second fundamental tensor
    H: np.ndarray           # (*, n)       mean curvature vector
    normA2: np.ndarray      # (*,)
    A_up: np.ndarray        # (*, i, j, n) A^i_j = g^ik A_kj, raised once by build_bundle

    @property
    def chart(self) -> Chart:
        return self.imm.chart

    @cached_property
    def normH2(self) -> np.ndarray:
        """|H|^2, shape (*,)."""
        return np.einsum("...a,...a->...", self.H, self.H)

    @cached_property
    def max_A2(self) -> float:
        """max |A|^2 over all nodes, trusted or not."""
        return float(self.normA2.max())

    @cached_property
    def drift(self) -> np.ndarray:
        """w^k = g^ij Gamma^k_ij, shape (*, m): the connection term of the
        Laplace-Beltrami operator, Lap f = g^ij d_i d_j f - w^k d_k f."""
        m, nodes = self.imm.m, self.chart.shape
        pairs = roll_axes(self.gamma, -3).reshape((m, m * m) + nodes).swapaxes(0, 1)
        return roll_axes(_dot(roll_axes(self.ginv, -2).reshape((m * m, 1) + nodes), pairs), 1)

    @cached_property
    def F_up(self) -> np.ndarray:
        """F^i = g^ij F_j, shape (*, i, a)."""
        G, F = roll_axes(self.ginv, -2), roll_axes(self.dF, -2)
        return roll_axes(_dot(G[:, :, None], F[:, None]), 2)

    @cached_property
    def normal_projector(self) -> np.ndarray:
        """P = I - g^ij F_i (x) F_j per node, shape (*, n, n); row b is the
        normal part of the ambient basis vector e_b."""
        F, n = roll_axes(self.dF, -2), self.imm.n
        tangent = _dot(F[:, :, None], roll_axes(self.F_up, -2)[:, None])
        return roll_axes(np.eye(n).reshape((n, n) + (1,) * self.imm.m) - tangent, 2)

    @cached_property
    def A_uu(self) -> np.ndarray:
        """A^ij = A^i_k g^kj, shape (*, i, j, a)."""
        G, up = roll_axes(self.ginv, -2), roll_axes(self.A_up, -3)
        return roll_axes(_dot(up.swapaxes(0, 1)[:, :, None], G[:, None, :, None]), 3)

    @cached_property
    def AA(self) -> np.ndarray:
        """<A_ij, A_kl>, shape (*, i, j, k, l)."""
        A = np.moveaxis(roll_axes(self.A, -3), 2, 0)
        return roll_axes(_dot(A[:, :, :, None, None], A[:, None, None]), 4)

    @cached_property
    def A_mixed(self) -> np.ndarray:
        """g^kl A^a_ik A^b_jl = A^a_ik A^k_j^b, shape (*, i, j, a, b)."""
        A, up = roll_axes(self.A, -3), roll_axes(self.A_up, -3)
        return roll_axes(_dot(A.swapaxes(0, 1)[:, :, None, :, None], up[:, None, :, None, :]), 4)

    @cached_property
    def HA(self) -> np.ndarray:
        """<H, A_ij>, shape (*, i, j)."""
        A, H = np.moveaxis(roll_axes(self.A, -3), 2, 0), roll_axes(self.H, -1)
        return roll_axes(_dot(A, H[:, None, None]), 2)

    @cached_property
    def nA(self) -> np.ndarray:
        """(nabla_i A)_jk, shape (*, i, j, k, a)."""
        return nabla_A(self)

    @cached_property
    def ddH(self) -> np.ndarray:
        """nabla_k nabla_l H in flat ambient space, shape (*, k, l, a)."""
        dH = d1_tensor(self.H, self.chart)  # (*, l, n)
        ddH = roll_axes(d1_tensor(dH, self.chart, tensor_axes=(0,)), -3)
        gamma = roll_axes(self.gamma, -3)
        return roll_axes(ddH - _dot(gamma[:, :, :, None], roll_axes(dH, -2)[:, None, None]), 3)

    @cached_property
    def gauss(self) -> np.ndarray:
        """<A_ik, A_jl> - <A_il, A_jk>: the extrinsic side of the Gauss equation."""
        AA = np.einsum("ikjl...->ijkl...", roll_axes(self.AA, -4))
        return roll_axes(AA - AA.swapaxes(2, 3), 4)

    @cached_property
    def ricci(self) -> np.ndarray:
        """g^kl R_ikjl = <H, A_ij> - g^kl <A_ik, A_jl> by the Gauss equation."""
        trace = np.einsum("ijaa...->ij...", roll_axes(self.A_mixed, -4))
        return roll_axes(roll_axes(self.HA, -2) - trace, 2)

    @cached_property
    def A_ddH(self) -> np.ndarray:
        """2 <A^kl, nabla_k nabla_l H>: the left side of the second Simons identity."""
        flat = lambda X: roll_axes(X, -3).reshape((-1,) + self.chart.shape)
        return 2.0 * _dot(flat(self.ddH), flat(self.A_uu))

    @cached_property
    def HA_sq(self) -> np.ndarray:
        """|<H, A_ij>|^2."""
        return _sq_norm(roll_axes(self.ginv, -2), roll_axes(self.HA, -2), 2)

    @cached_property
    def grad_perp_A_sq(self) -> np.ndarray:
        """|nabla^perp A|^2 = g^ip g^jq g^kr <(nabla_i A_jk)^perp, (nabla_p A_qr)^perp>."""
        P = roll_axes(self.normal_projector, -2)
        return _sq_norm(roll_axes(self.ginv, -2), _project(P, roll_axes(self.nA, -4)), 3)

    @cached_property
    def comm_sq(self) -> np.ndarray:
        """|A-commutator|^2, the commutator being A_mixed minus its a <-> b
        transpose: antisymmetric in (a, b), so twice its sum over a < b."""
        a, b = np.triu_indices(self.imm.n, 1)
        M = roll_axes(self.A_mixed, -4)
        return 2.0 * _sq_norm(roll_axes(self.ginv, -2), M[:, :, a, b] - M[:, :, b, a], 2)

    def total_volume(self) -> float:
        """The density's integral: integrate_values of ones bit for bit, as 1.0 * d is d."""
        return float(np.sum(self.sqrt_det_g) * self.chart.cell_measure())

    def pinching_ratio(self) -> np.ndarray:
        """|A|^2 / |H|^2 where defined; NaN where |H|^2 is negligible."""
        ok = self.normH2 >= PINCHING_H2_FLOOR * np.maximum(self.normA2, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(ok, self.normA2 / np.where(ok, self.normH2, 1.0), np.nan)
        return r


def immersion_partials(imm: Immersion) -> tuple[np.ndarray, np.ndarray]:
    """d_i F^a and d_i d_j F^a, shapes chart.shape + (m, n) and + (m, m, n),
    from one grid.partials pass; exact on any affine summand."""
    d1, d2 = partials(imm.periodic_values(), imm.chart)
    if imm.affine is not None:  # (m, n, 1, ...) broadcast over the index-major nodes
        roll_axes(d1, -2)[...] += imm.affine[0].T.reshape(imm.affine[0].T.shape + (1,) * imm.m)
    return d1, d2


def _metric(F: np.ndarray, chart: Chart):
    """g, g^-1 (m, m, *) and det g (*) from index-major partials F (m, n, *);
    NonFiniteError names the first node where det g is not finite, else
    DegenerateImmersion the worst node below the det g floor."""
    m, F = chart.m, F.swapaxes(0, 1)  # a sum over the ambient index
    g = _dot(F[:, :, None], F[:, None])
    det = (g[0, 0] if m == 1 else g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] if m == 2
           else np.linalg.det(roll_axes(g, 2)))
    mean_trace = float(g.trace().sum()) / det.size  # as np.mean
    floor = DET_G_FLOOR * (mean_trace / m) ** m
    dmin = float(det.min())
    if not (dmin >= floor and det.max() < np.inf):   # NaN fails both tests
        bad = ~np.isfinite(det)
        worst = int(np.argmax(bad) if bad.any() else np.argmin(det))
        node = tuple(int(i) for i in np.unravel_index(worst, chart.shape))
        if bad.flat[worst]:
            raise NonFiniteError(f"induced metric is not finite: det g = {det.flat[worst]} "
                                 f"at node {node}")
        raise DegenerateImmersion(
            f"induced metric degenerate: det g = {dmin:.3e} < floor {floor:.3e} "
            f"at node {node}",
            node=node,
        )
    if m == 1:
        ginv = (1.0 / det)[None, None]
    elif m == 2:  # the adjugate over det
        ginv = g[::-1, ::-1] / det
        ginv[0, 1] = ginv[1, 0] = -ginv[0, 1]
    else:
        ginv = roll_axes(np.linalg.inv(roll_axes(g, 2)), -2).copy()
    return g, ginv, det


def _christoffel_terms(chart: Chart) -> tuple[tuple[int, int, int, float], ...]:
    """(i, j, k, pole parity of g_ij) for the pairs i <= j and every axis k."""
    m, sign = chart.m, [-1.0 if kind is AxisKind.POLE else 1.0 for kind in chart.axis_kinds]
    terms = chart.plans[("christoffel",)] = tuple(
        (i, j, k, sign[i] * sign[j]) for i in range(m) for j in range(i, m) for k in range(m))
    return terms


def _christoffel(g: np.ndarray, ginv: np.ndarray, chart: Chart):
    """Gamma_aij and Gamma^k_ij (m, m, m, *) from index-major g and g^-1 (m, m, *)."""
    terms = chart.plans.get(("christoffel",)) or _christoffel_terms(chart)
    dg = np.empty((chart.m,) + g.shape)  # (k, i, j, *) = d_k g_ij, once per pair i <= j
    for i, j, k, parity in terms:
        dg[k, i, j] = dg[k, j, i] = diff1(g[i, j], k, chart, parity)
    dg_i = dg.swapaxes(0, 1)  # (a, i, j, *) = d_i g_aj
    gamma1 = 0.5 * (dg_i + dg_i.swapaxes(1, 2) - dg)
    return gamma1, _dot(ginv[:, :, None, None], gamma1[:, None])


def build_bundle(imm: Immersion) -> GeometryBundle:
    """Compute the full geometric bundle for one immersion: the second
    fundamental tensor A^a_ij = d_i d_j F^a - Gamma^k_ij d_k F^a (flat
    ambient), its trace H and |A|^2 = A^i_j . A^j_i."""
    dF, ddF = immersion_partials(imm)
    F = roll_axes(dF, -2)
    g, ginv, det = _metric(F, imm.chart)
    gamma1, gamma = _christoffel(g, ginv, imm.chart)
    A = roll_axes(ddF, -3) - _dot(gamma[:, :, :, None], F[:, None, None])
    H = _dot(ginv.reshape((-1, 1) + det.shape), A.reshape((-1, imm.n) + det.shape))
    if not np.isfinite(H).all():
        raise NonFiniteError("mean curvature is non-finite")
    A_up = _dot(ginv[:, :, None, None], A[:, None])
    return GeometryBundle(
        imm=imm, dF=dF, g=roll_axes(g, 2), ginv=roll_axes(ginv, 2), det_g=det,
        sqrt_det_g=np.sqrt(det), gamma1=roll_axes(gamma1, 3), gamma=roll_axes(gamma, 3),
        A=roll_axes(A, 3), H=roll_axes(H, 1),
        normA2=(A_up * A_up.swapaxes(0, 1)).reshape((-1,) + det.shape).sum(axis=0),
        A_up=roll_axes(A_up, 3),
    )


def normal_part(bundle: GeometryBundle, V: np.ndarray) -> np.ndarray:
    """Normal projection V - g^ij <V, F_i> F_j per node, through the bundle's
    normal projector.

    V is a constant ambient vector (n,) or a field chart.shape + (..., n)
    with any number of stacked component axes before the ambient one.
    """
    V = np.asarray(V, dtype=np.float64)
    P = roll_axes(bundle.normal_projector, -2)
    if V.ndim == 1:
        return roll_axes(_dot(V, P), 1)
    m = bundle.imm.m
    return roll_axes(_project(P, roll_axes(V, m)), V.ndim - m)


def laplace_beltrami(values: np.ndarray, bundle: GeometryBundle) -> np.ndarray:
    """Laplace-Beltrami g^ij d_i d_j f - w^k d_k f of a scalar function f on
    the chart (even pole parity), values of shape chart.shape, with the
    drift w^k = g^ij Gamma^k_ij of the bundle."""
    chart = bundle.chart
    m, nodes = chart.m, chart.shape
    d1, d2 = partials(values, chart)
    G, w = roll_axes(bundle.ginv, -2), roll_axes(bundle.drift, -1)
    return (_dot(G.reshape((m * m,) + nodes), roll_axes(d2, -2).reshape((m * m,) + nodes))
            - _dot(w, roll_axes(d1, -1)))


# ---------------------------------------------------------------------------
# covariant derivatives of curvature fields
# ---------------------------------------------------------------------------

def _nabla_pair(bundle: GeometryBundle, T: np.ndarray) -> np.ndarray:
    """nabla_k T_ij..., index-major (k, i, j, ...) + nodes, of a field T
    (*, i, j, ...) symmetric in its chart pair: d_k T_ij - Gamma^p_ki T_pj -
    Gamma^p_kj T_ip."""
    chart = bundle.chart
    gamma, Ti = roll_axes(bundle.gamma, -3), roll_axes(T, chart.m)
    X = gamma.reshape(gamma.shape[:3] + (1,) * (Ti.ndim - chart.m - 1) + chart.shape)
    corr = _dot(X, Ti[:, None, None])  # Gamma^p_ki T_pj...
    dT = roll_axes(d1_tensor(T, chart, tensor_axes=(0, 1)), -(Ti.ndim - chart.m + 1))
    return dT - corr - corr.swapaxes(1, 2)


def nabla_A(bundle: GeometryBundle) -> np.ndarray:
    """Full covariant derivative (nabla_i A)^a_jk in flat ambient space."""
    return roll_axes(_nabla_pair(bundle, bundle.A), 4)


def intrinsic_curvature(bundle: GeometryBundle) -> np.ndarray:
    """Riemann tensor R_ijkl = <d_i, R(d_k, d_l) d_j> of the induced metric.

    Assembled from second derivatives of g and pointwise products of
    Christoffel symbols; this form avoids differentiating the (pole-singular)
    Christoffel components themselves.
    """
    chart, m = bundle.chart, bundle.chart.m
    _, d2 = partials(bundle.g, chart, _parity(chart, (m, m), (0, 1)))
    ddg = roll_axes(d2, -4)  # (k, l, i, j) + nodes
    part = 0.5 * (
        np.einsum("kjil...->ijkl...", ddg)
        + np.einsum("likj...->ijkl...", ddg)
        - np.einsum("kilj...->ijkl...", ddg)
        - np.einsum("ljik...->ijkl...", ddg)
    )
    # g^pq Gamma_qkj Gamma_pli = Gamma^p_kj Gamma_pli, minus the same with k <-> l
    gamma, gamma1 = roll_axes(bundle.gamma, -3), roll_axes(bundle.gamma1, -3)
    quad = _dot(gamma.swapaxes(1, 2)[:, None, :, :, None], gamma1.swapaxes(1, 2)[:, :, None, None])
    return roll_axes(part + (quad - quad.swapaxes(2, 3)), 4)


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
    def l2_rel(self) -> float:
        return self.l2 / self.scale


@dataclass(frozen=True)
class CurvatureReport:
    gauss: ResidualNorms
    codazzi: ResidualNorms
    ricci: ResidualNorms
    simons: ResidualNorms
    simons2: ResidualNorms


def trusted_mask(imm: Immersion, pole_margin: int = 1) -> np.ndarray:
    """Boolean node array of the nodes whose residual values are trusted by
    norm reports.

    Combines the immersion's own norm_mask (truncated profiles) with an
    optional exclusion of pole-adjacent colatitude rings on sphere charts,
    where the coordinate degeneracy of the chart slows the pointwise
    convergence of deep covariant compositions by one order.
    """
    if imm.norm_mask is None:
        mask = np.ones(imm.chart.shape, dtype=bool)
    else:
        mask = imm.norm_mask.copy()
    if pole_margin > 0 and imm.chart.spec.domain is Domain.SPHERE:
        mask[:pole_margin, :] = False
        mask[-pole_margin:, :] = False
    return mask


def _masked_l2(per_node_sq: np.ndarray, bundle: GeometryBundle, mask: np.ndarray) -> float:
    """Volume-weighted RMS over the masked nodes of a per-node squared norm."""
    chart = bundle.chart
    w = np.where(mask, bundle.sqrt_det_g, 0.0)
    vol = float(np.sum(w) * chart.cell_measure())   # integrate_values of ones
    return float(np.sqrt(integrate_values(np.where(mask, per_node_sq, 0.0), w, chart) / vol))


def _norms(res_field: np.ndarray, bundle: GeometryBundle, mask: np.ndarray,
           scale_field: np.ndarray | None = None, pairs: bool = False) -> ResidualNorms:
    """Norms of a node-major field, reduced over its index-major components.

    pairs marks the i < j entries of an antisymmetric 2-form (_pairs): each
    stands for itself and its negative, so it counts twice in l2. A field
    without components, the pairs of a curve, has linf = l2 = +0.0."""
    chart = bundle.chart
    flat = lambda X: roll_axes(X, chart.m).reshape((-1,) + chart.shape)
    res = flat(res_field)
    linf = l2 = 0.0
    if len(res):
        # abs: on an exactly zero residual, max(0.0, -0.0) is -0.0
        linf = abs(float(np.where(mask, np.maximum(res.max(axis=0), -res.min(axis=0)), 0.0).max()))
        sq = _dot(res, res)
        l2 = _masked_l2(2.0 * sq if pairs else sq, bundle, mask)
    scale = 1.0
    if scale_field is not None:
        sflat = np.abs(flat(scale_field)).max(axis=0)
        scale = max(1.0, float(np.where(mask, sflat, 0.0).max()))
    return ResidualNorms(linf=linf, l2=l2, scale=scale)


def gauss_residual_field(bundle: GeometryBundle) -> np.ndarray:
    return intrinsic_curvature(bundle) - bundle.gauss


def _pairs(entry, m: int, shape: tuple[int, ...]) -> np.ndarray:
    """entry(i, j) - entry(j, i) over the pairs i < j, stacked in
    np.triu_indices(m, 1) order on a leading axis: the independent entries
    of an antisymmetric 2-form, each an index-major array of the given
    shape. A curve (m = 1) has no pairs."""
    iu, ju = np.triu_indices(m, 1)
    out = np.empty((iu.size,) + shape)
    for p, (i, j) in enumerate(zip(iu, ju)):
        np.subtract(entry(i, j), entry(j, i), out=out[p])
    return out


def codazzi_residual_field(bundle: GeometryBundle) -> np.ndarray:
    """Normal part of (nabla_i A)_jk - (nabla_j A)_ik (vanishes for R^N = 0),
    antisymmetric in (i, j): shape (*, pair, k, a) over the pairs i < j in
    np.triu_indices(m, 1) order."""
    nA, P = roll_axes(bundle.nA, -4), roll_axes(bundle.normal_projector, -2)
    return roll_axes(_project(P, _pairs(lambda i, j: nA[i, j], bundle.imm.m, nA.shape[2:])), 3)


def ricci_residual_field(bundle: GeometryBundle) -> np.ndarray:
    """Ricci-equation defect tested on the normal parts of the ambient basis.

    For each ambient basis vector e_b, nu = e_b^perp is a smooth normal field
    and the normal-curvature identity

        R^perp(d_i, d_j) nu = -g^kl (<nu, A_ik> A_jl - <nu, A_jk> A_il)

    is tensorial in nu, so testing a spanning family is a complete check.
    The left side is evaluated as the antisymmetrized second normal
    derivative (d_i (d_j nu)^perp)^perp. All n fields are checked at once.
    Both sides are antisymmetric in (i, j), so only the pairs i < j are
    formed: the result has shape (*, pair, a, b), the pairs in
    np.triu_indices(m, 1) order.
    """
    chart, m = bundle.chart, bundle.imm.m
    P = roll_axes(bundle.normal_projector, -2)  # (b, a): row b is e_b^perp
    Y = _project(P, roll_axes(d1_tensor(bundle.normal_projector, chart), -3))  # (j, b, a)
    sign = _parity(chart, (m,), (0,))  # Y_j has the pole parity of its index j
    dY = lambda i, j: roll_axes(diff1(roll_axes(Y[j], 2), i, chart, sign[j]), -2)  # d_i Y_j
    res = _project(P, _pairs(dY, m, Y.shape[1:]))  # (pair, b, a)
    # minus the right side: g^kl <nu, A_ik> A_jl = <nu, A_ik> A^k_j, antisymmetrized
    A, A_up = roll_axes(bundle.A, -3), roll_axes(bundle.A_up, -3)
    nuA = _dot(P.swapaxes(0, 1)[:, :, None, None], np.moveaxis(A, 2, 0)[:, None])  # (b, i, k)
    nuA = np.einsum("bik...->kib...", nuA)
    res += _pairs(lambda i, j: _dot(nuA[:, i, :, None], A_up[:, j, None, :]), m, Y.shape[1:])
    return roll_axes(res.swapaxes(1, 2), 3)


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
    nodes, m, n = chart.shape, chart.m, bundle.imm.n
    ginv, gamma = roll_axes(bundle.ginv, -2), roll_axes(bundle.gamma, -3)
    nabla_ric = _nabla_pair(bundle, bundle.ricci)  # (k, i, j) = nabla_k R_ij

    # Delta A_kl = g^pi (d_p nabla_i A_kl - Gamma^q_pi nabla_q A_kl
    #              - Gamma^q_pk nabla_i A_ql - Gamma^q_pl nabla_i A_kq)
    nA = roll_axes(bundle.nA, -4)  # (i, k, l, a)
    dnA = roll_axes(d1_tensor(bundle.nA, chart, tensor_axes=(0, 1, 2)), -5)
    lapA = (_dot(ginv.reshape((m * m, 1, 1, 1) + nodes), dnA.reshape((m * m,) + nA.shape[1:]))
            - _dot(roll_axes(bundle.drift, -1)[:, None, None, None], nA))
    gamma_up = _dot(ginv[:, :, None, None], gamma.swapaxes(0, 1)[:, None])  # (i, q, k) = g^ip Gamma^q_pk
    side = _dot(gamma_up.reshape((m * m, m, 1, 1) + nodes), nA.reshape((m * m, 1, m, n) + nodes))
    lapA = lapA - side - side.swapaxes(0, 1)  # nabla_i A symmetric in its pair

    # (nabla_k R_ql + nabla_l R_qk - nabla_q R_kl) g^qp F_p, summed over q
    grad_ric = (np.einsum("kql...->qkl...", nabla_ric) + np.einsum("lqk...->qkl...", nabla_ric)
                - nabla_ric)
    F_term = _dot(grad_ric[:, :, :, None], roll_axes(bundle.F_up, -2)[:, None, None])

    R_pairs = np.einsum("kplq...->pqkl...", roll_axes(bundle.gauss, -4))
    A_uu = roll_axes(bundle.A_uu, -3)
    RA_term = 2.0 * _dot(R_pairs.reshape((m * m, m, m, 1) + nodes), A_uu.reshape((m * m, 1, 1, n) + nodes))
    ric, A_up = roll_axes(bundle.ricci, -2), roll_axes(bundle.A_up, -3)
    ricA = _dot(ric[:, :, None, None], A_up[:, None])  # (k, l, a) = R_pk A^p_l
    ricA = ricA + ricA.swapaxes(0, 1)

    rhs = lapA - F_term + RA_term - ricA
    return roll_axes(roll_axes(bundle.ddH, -3) - rhs, 3)


def simons2_residual_field(bundle: GeometryBundle) -> np.ndarray:
    """Defect of the contracted (second) Simons identity in flat space:

        2 <A, nabla^2 H> = Delta |A|^2 - 2 |nabla^perp A|^2
                           + |<A_ij,A_kl> - <A_il,A_jk>|^2 + |A-commutator|^2
                           + 2 |<H,A_ij> - <A_ik, A_j^k>|^2 - 2 |<H,A_ij>|^2

    The first curvature term is |bundle.gauss|^2: A is symmetric, so its
    tensor is the Gauss tensor with j and k exchanged.
    """
    ginv, gauss = roll_axes(bundle.ginv, -2), roll_axes(bundle.gauss, -4)
    T3sq = _sq_norm(ginv, roll_axes(bundle.ricci, -2), 2)  # <H,A_ij> - <A_ik, A_j^k> is the Ricci tensor
    rhs = (laplace_beltrami(bundle.normA2, bundle) - 2.0 * bundle.grad_perp_A_sq
           + _sq_norm(ginv, gauss, 4) + bundle.comm_sq + 2.0 * T3sq - 2.0 * bundle.HA_sq)
    return bundle.A_ddH - rhs


def structure_residuals(imm: Immersion, bundle: GeometryBundle | None = None) -> CurvatureReport:
    """Numerical residuals of the Gauss, Codazzi, Ricci, and both Simons
    identities, with every ambient-curvature term set to zero.

    Each entry carries the residual norms together with the size of the
    identity's dominant term, so callers can judge relative defects. Norms
    are taken over the trusted region (see trusted_mask). The Codazzi and
    Ricci defects are antisymmetric in (i, j) and are formed and reduced
    over the pairs i < j only."""
    if bundle is None:
        bundle = build_bundle(imm)
    mask = trusted_mask(imm)

    def norms(field, scale, pairs=False):
        return _norms(field(bundle), bundle, mask, scale_field=scale, pairs=pairs)

    return CurvatureReport(
        gauss=norms(gauss_residual_field, bundle.gauss),
        codazzi=norms(codazzi_residual_field, bundle.nA, pairs=True),
        ricci=norms(ricci_residual_field, bundle.normA2, pairs=True),
        simons=norms(simons_residual_field, bundle.ddH),
        simons2=norms(simons2_residual_field, bundle.A_ddH),
    )


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
    """Per-node singular values of df, descending as svd returns them with
    zeros padded last when k < m, and the area-decreasing flag
    lambda_i lambda_j < 1 for all i != j (None when m = 1)."""
    chart = f.chart
    jac = d1_tensor(f.values, chart)  # (*, i, A): d_i f^A
    jac_mat = np.swapaxes(jac, -1, -2)  # (*, A, i): k x m matrices
    sv = np.linalg.svd(jac_mat, compute_uv=False)
    m = chart.m
    if sv.shape[-1] < m:
        padded = np.zeros(chart.shape + (m,))
        padded[..., : sv.shape[-1]] = sv
        sv = padded
    if m == 1:
        return sv, None
    flag = bool(np.all(sv[..., 0] * sv[..., 1] < 1.0))
    return sv, flag
