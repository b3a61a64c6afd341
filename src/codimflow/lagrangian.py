"""Lagrangian graphs in C^m over flat tori: generating potentials, the
Lagrangian angle, the mean curvature 1-form, the potential (Monge-Ampere)
flow, and the pinching-gap diagnostic.

Ambient identification: C^m = R^{2m} ordered as (Re z^1..Re z^m,
Im z^1..Im z^m); the complex structure acts by J(a, b) = (-b, a) and the
symplectic form is omega(V, W) = <J V, W>.

A potential u(x) = x^T S x / 2 + phi(x) with S symmetric and phi periodic
and mean-zero generates the graph F(x) = (x, grad u(x)). The x-part and the
S-part are affine in the chart coordinates and are differentiated exactly,
so all derived fields stay periodic; the cohomology class of du on the torus
is the matrix S, invariant along the potential flow.

The Lagrangian angle of a graph is alpha = sum_i arctan(lambda_i(Hess u)),
the smooth branch of the argument of det(I + i Hess u); the potential flow
du/dt = alpha moves the graphs by mean curvature up to tangential
diffeomorphisms.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from itertools import chain, permutations

import numpy as np

from .errors import NonFiniteError, UsageError
from .flow import FlowConfig, Termination, _time_weights, recorded, trajectory
from .geometry import (
    GeometryBundle,
    Immersion,
    ResidualNorms,
    _norms,
    _pairs,
    _sq_norm,
    build_bundle,
    d1_tensor,
    laplace_beltrami,
    trusted_mask,
)
from .grid import Chart, Domain, GridField, diff1, diff2, diff_mixed, roll_axes


# ---------------------------------------------------------------------------
# complex structure on R^{2m}
# ---------------------------------------------------------------------------

def _J(V: np.ndarray) -> np.ndarray:
    """J V for trailing-component vector fields V in R^{2m}."""
    n = V.shape[-1]
    if n % 2 != 0:
        raise UsageError(f"the complex structure needs an even ambient dimension, got {n}")
    m = n // 2
    return np.concatenate([-V[..., m:], V[..., :m]], axis=-1)


# ---------------------------------------------------------------------------
# potentials and their graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Generating function u(x) = x^T S x / 2 + phi(x) on the flat torus."""

    S: np.ndarray
    phi: GridField

    def __post_init__(self):
        S = np.asarray(self.S, dtype=np.float64)
        m = self.phi.chart.m
        if S.shape != (m, m):
            raise UsageError(f"S must be {m}x{m} for an m-torus potential")
        if not np.all(np.isfinite(S)):
            raise NonFiniteError("quadratic part S contains non-finite values")
        if not np.allclose(S, S.T, rtol=1e-5, atol=1e-14):
            raise UsageError("quadratic part S must be symmetric")
        if self.phi.components != 1:
            raise UsageError("phi must be a scalar field")
        if self.phi.chart.spec.domain not in (Domain.TORUS, Domain.CIRCLE):
            raise UsageError("potential lives on a periodic torus chart")
        object.__setattr__(self, "S", 0.5 * (S + S.T))
        # mean-zero gauge: constants in u never enter the geometry
        vals = _mean_zero(self.phi.values[..., 0])
        object.__setattr__(self, "phi", GridField(self.phi.chart, vals[..., None]))

    @property
    def m(self) -> int:
        return self.phi.chart.m

    @property
    def chart(self) -> Chart:
        return self.phi.chart

    def hessian(self) -> np.ndarray:
        """Hess u = S + Hess phi per node, symmetric by construction.

        The (*, m, m) result is a view of component-major storage, so each
        H[..., a, b] is one C-contiguous chart array: each unique
        component's stencil writes into it, S is added in place (an H += S
        broadcast would run an inner loop of length m), and the angle and
        the records read the components at unit stride."""
        f, chart, S = self.phi.values[..., 0], self.chart, self.S
        H = roll_axes(np.empty(S.shape + chart.shape), 2)
        for a in range(self.m):
            diff2(f, a, chart, out=H[..., a, a])
            H[..., a, a] += S[a, a]
            for b in range(a + 1, self.m):
                diff_mixed(f, a, b, chart, out=H[..., a, b])
                H[..., a, b] += S[a, b]
                H[..., b, a] = H[..., a, b]
        return H


def _mean_zero(phi: np.ndarray, out=None, alpha=None) -> np.ndarray:
    """phi minus its mean, into out if given: the mean-zero gauge and phi's
    one finiteness check, as the mean is finite exactly when every value is
    and their sum does not overflow. Only a failed check looks for the first
    non-finite node of a step's angle alpha, then of phi."""
    mean = phi.mean()
    if not np.isfinite(mean):
        for name, x in (("Lagrangian angle", alpha), ("phi", phi)):
            if x is not None and not np.isfinite(x).all():
                node = np.unravel_index(int(np.argmin(np.isfinite(x))), x.shape)
                raise NonFiniteError(f"{name} contains non-finite values: {x[node]} "
                                     f"at node {tuple(int(i) for i in node)}")
        raise NonFiniteError("phi's mean overflows: its values are finite, their sum is not")
    return np.subtract(phi, mean, out=out)


def lagrangian_angle_of_hessian(H: np.ndarray) -> np.ndarray:
    """alpha = sum_i arctan(lambda_i(H)): the smooth branch of arg det(I + i H),
    valued in (-m pi/2, m pi/2).

    For m = 2, det(I + i H) = (1 - det H) + i tr H and alpha lies in
    (-pi, pi), so alpha is that argument, one arctan2; it never meets the
    branch cut, since 1 - det H < 0 forces lambda_1 lambda_2 > 1 and so
    tr H != 0. Every other m sums the arctans of eigvalsh: for m = 3 the
    sum can pass pi, where arg det wraps, and m = 1 is one arctan."""
    if H.shape[-1] == 2:
        a, b, c = H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]
        return np.arctan2(a + c, 1.0 - (a * c - b * b))
    lam = np.moveaxis(np.arctan(np.linalg.eigvalsh(H)), -1, 0)
    return sum(lam[1:], lam[0])


def lag_immersion(p: Potential) -> Immersion:
    """Graph immersion F(x) = (x, grad u(x)) into R^{2m}.

    The affine summand (x, S x) is stored exactly; only (0, grad phi) is
    periodic data, so derivative stencils never see the affine growth.
    """
    m, chart = p.m, p.chart
    # the graph of x^T S x / 2: its values are its own affine summand
    quadratic = Immersion(chart, np.zeros(chart.shape + (2 * m,)),
                          affine=(np.vstack([np.eye(m), p.S]), np.zeros(2 * m)))
    vals = quadratic.affine_values()
    vals[..., m:] += d1_tensor(p.phi.values[..., 0], chart)
    return replace(quadratic, values=vals)


def lagrangian_residual(imm: Immersion, bundle: GeometryBundle | None = None) -> float:
    """max over nodes and index pairs of |omega(F_i, F_j)| = |<J F_i, F_j>|;
    zero exactly on Lagrangian immersions, rounding-level on potential graphs
    (the same stencils feed both slots), an honest O(h^2) measurement
    otherwise."""
    if bundle is None:
        bundle = build_bundle(imm)
    dF = bundle.dF  # (*, i, a)
    return float(np.abs(np.matmul(_J(dF), np.swapaxes(dF, -1, -2))).max())


def lagrangian_angle(p: Potential) -> tuple[np.ndarray, float]:
    """Angle field alpha and the verification value
    max |det(I + i Hess u) - e^{i alpha} sqrt(det(I + Hess u^2))| (relative),
    an algebraic identity held to rounding once the Hessian is fixed."""
    H = p.hessian()
    alpha = lagrangian_angle_of_hessian(H)
    m = p.m
    eye = np.eye(m)
    comp = eye + 1j * H
    det_c = np.linalg.det(comp)
    g_alg = eye + np.einsum("...ij,...jk->...ik", H, H)
    sqrt_det_g = np.sqrt(np.linalg.det(g_alg))
    defect = np.abs(det_c - np.exp(1j * alpha) * sqrt_det_g)
    rel = float((defect / np.abs(det_c)).max())
    return alpha, rel


# ---------------------------------------------------------------------------
# mean curvature form and pinching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianReport:
    lagrangian_residual: float
    h_symmetry_defect: float
    dH_residual: ResidualNorms
    dalpha_minus_H_residual: ResidualNorms | None
    form_vs_vector_defect: float      # max |H_i - omega(F_i, H_vec)|
    calibration_min: float | None     # min cos(alpha), potentials only
    pinching_gap_min: float
    pinching_identity_defect: float   # algebraic cross-check, relative


def mean_curvature_form(imm: Immersion, bundle: GeometryBundle | None = None,
                        alpha: np.ndarray | None = None) -> LagrangianReport:
    """Trilinear form h(X,Y,Z) = <J F_X, A(Y,Z)>, its trace H_i = g^kl h_ikl,
    and the residuals: full symmetry of h, closedness dH = 0, the exterior
    relation d alpha = H (when an angle field is supplied), and the
    Lagrangian pinching gap |A|^2 - 3/(m+2) |H_vec|^2 with its algebraic
    cross-check."""
    if bundle is None:
        bundle = build_bundle(imm)
    chart = imm.chart
    mask = trusted_mask(imm, 0)

    nu = _J(bundle.dF)  # J F_i
    h = np.einsum("...ia,...jka->...ijk", nu, bundle.A)
    sym_defect = max(
        float(np.abs(h - np.einsum("...jik->...ijk", h)).max()),
        float(np.abs(h - np.einsum("...kji->...ijk", h)).max()),
    )
    H_form = np.einsum("...kl,...ikl->...i", bundle.ginv, h)

    # cross-check against the trace route: H_i = omega(F_i, H_vec)
    H_omega = np.einsum("...ia,...a->...i", nu, bundle.H)
    form_vs_vector = float(np.abs(H_form - H_omega).max())

    dHf = d1_tensor(H_form, chart, tensor_axes=(0,))  # (*, i, j) = d_i H_j
    dH = roll_axes(dHf, -2)
    dH_anti = _pairs(lambda i, j: dH[i, j], chart.m, chart.shape)  # d_i H_j - d_j H_i, i < j
    dH_res = _norms(roll_axes(dH_anti, 1), bundle, mask, scale_field=dHf, pairs=True)

    dalpha_res = None
    calibration = None
    if alpha is not None:
        dal = d1_tensor(alpha, chart)
        dalpha_res = _norms(dal - H_form, bundle, mask, scale_field=dal)
        calibration = float(np.cos(alpha).min())

    gap, identity_defect = pinching_gap(imm, bundle, h=h)

    return LagrangianReport(
        lagrangian_residual=lagrangian_residual(imm, bundle),
        h_symmetry_defect=sym_defect,
        dH_residual=dH_res,
        dalpha_minus_H_residual=dalpha_res,
        form_vs_vector_defect=form_vs_vector,
        calibration_min=calibration,
        pinching_gap_min=float(np.where(mask, gap, np.inf).min()),
        pinching_identity_defect=identity_defect,
    )


def pinching_gap(imm: Immersion, bundle: GeometryBundle | None = None,
                 h: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Pinching gap field |A|^2 - 3/(m+2) |H_vec|^2 and the relative defect
    of the algebraic identity

        |h_ijk - (H_i g_jk + H_j g_ki + H_k g_ij)/(m+2)|^2
            = |h|^2 - 3/(m+2) |H_form|^2,

    which is pure multilinear algebra in (h, g) and holds to rounding
    independently of the discretization. Zero exactly on flat planes and on
    Whitney spheres, strictly positive otherwise."""
    if bundle is None:
        bundle = build_bundle(imm)
    m = imm.m
    if h is None:
        h = np.einsum("...ia,...jka->...ijk", _J(bundle.dF), bundle.A)

    gap = bundle.normA2 - (3.0 / (m + 2)) * bundle.normH2

    # the trace-removal identity is exact multilinear algebra only for a
    # fully symmetric trilinear form; symmetrize the discrete h (its raw
    # asymmetry is reported separately as h_symmetry_defect)
    h = reduce(np.add, (np.einsum("..." + "".join(p) + "->...ijk", h)
                        for p in permutations("ijk"))) / 6.0
    H_form = np.einsum("...kl,...ikl->...i", bundle.ginv, h)

    sym = reduce(np.add, (np.einsum(f"...{a},...{b}{c}->...ijk", H_form, bundle.g)
                          for a, b, c in ("ijk", "jki", "kij")))
    defect_t = h - sym / (m + 2)
    ginv = roll_axes(bundle.ginv, -2)
    defect_sq = _sq_norm(ginv, roll_axes(defect_t, m), 3)
    h_sq = _sq_norm(ginv, roll_axes(h, m), 3)
    Hf_sq = _sq_norm(ginv, roll_axes(H_form, m), 1)
    gap_from_h = h_sq - (3.0 / (m + 2)) * Hf_sq
    scale = max(float(np.abs(h_sq).max()), 1.0)
    identity_defect = float(np.abs(defect_sq - gap_from_h).max() / scale)
    return gap, identity_defect


# ---------------------------------------------------------------------------
# the potential (Monge-Ampere) flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialFlowConfig:
    cfl_sigma: float = 0.25
    stop_t_max: float = 1.0
    record_every: int = 1
    snapshot_every: int = 0   # in records; 0 keeps first and last potentials

    def __post_init__(self):
        # FlowConfig checks the shared fields; ma_run also needs a finite horizon
        FlowConfig(**{f.name: getattr(self, f.name) for f in fields(self)})
        if not self.stop_t_max < np.inf:
            raise UsageError("stop_t_max must be finite")


@dataclass(frozen=True)
class PotentialRecord:
    t: float
    dt: float
    alpha_min: float
    alpha_max: float
    hess_phi_inf: float
    H_inf: float
    potential: Potential | None = None


@dataclass
class PotentialTrace:
    CSV_COLUMNS = ("t", "dt", "alpha_min", "alpha_max", "hess_phi_inf", "H_inf")
    records: list[PotentialRecord] = field(default_factory=list)
    final: Potential | None = None
    termination: Termination | None = None
    termination_detail: str = ""


class PotentialState:
    """A potential at time t with its Hessian and angle, computed once for
    its record and its step: flow.trajectory's state for the potential
    flow, which has no curvature cap and no dt floor."""

    def __init__(self, p: Potential, t: float = 0.0, step_index: int = 0):
        self.p, self.t, self.step_index = p, t, step_index
        self.H = p.hessian()
        self.alpha = lagrangian_angle_of_hessian(self.H)

    def dt(self, config: PotentialFlowConfig) -> float:
        h_min = min(self.p.chart.spacings)
        return config.cfl_sigma * h_min * h_min / 2.0

    def step(self, dt: float, config: PotentialFlowConfig) -> "PotentialState":
        """phi + dt (alpha - mean alpha) in one fresh array, gauged in place:
        a step changes only phi, so only phi is checked."""
        phi = self.alpha - self.alpha.mean()
        phi *= dt
        phi += self.p.phi.values[..., 0]
        _mean_zero(phi, out=phi, alpha=self.alpha)
        # S and the chart carry over from a potential already checked
        p = copy(self.p)
        object.__setattr__(p, "phi", GridField(p.chart, phi[..., None]))
        return PotentialState(p, self.t + dt, self.step_index + 1)

    def stops(self, config: PotentialFlowConfig) -> tuple[str, float]:
        return "", 0.0


def ma_run(p0: Potential, config: PotentialFlowConfig) -> PotentialTrace:
    """Explicit potential flow du/dt = alpha(Hess u) under dt = sigma h^2/2,
    stable for sigma <= 1/m (forward Euler on a diffusion of m axes), along
    flow.trajectory as flow.run: a failed step ends it as Degenerate.

    The quadratic part S is constant along the flow; the spatially constant
    part of alpha is discarded by the mean-zero gauge of phi (u enters the
    geometry only through du). Records track the angle extremes, the size of
    Hess phi, and the mean curvature 1-form."""
    chart, m = p0.chart, p0.m
    if config.cfl_sigma > 1.0 / m:
        raise UsageError(f"flow.cfl_sigma = {config.cfl_sigma} exceeds 1/m = {1.0 / m:.6g}, "
                         f"the stability bound of the explicit potential flow for m = {m}")

    def record(state: PotentialState, dt_used: float, snap: bool) -> PotentialRecord:
        # maxima over the contiguous components, equal to those over the
        # full H - S and d alpha (H is symmetric)
        p, H, alpha = state.p, state.H, state.alpha
        return PotentialRecord(
            t=state.t, dt=dt_used,
            alpha_min=float(alpha.min()), alpha_max=float(alpha.max()),
            hess_phi_inf=max(float(np.abs(H[..., a, b] - p.S[a, b]).max())
                             for a in range(m) for b in range(a, m)),
            H_inf=max(float(np.abs(diff1(alpha, a, chart)).max())   # d alpha = H for graphs
                      for a in range(m)),
            potential=p if snap else None,
        )

    state = PotentialState(p0)
    steps = trajectory(state, config)
    records, final = recorded(chain([(state, 0.0)], steps), record,
                              config.record_every, config.snapshot_every)
    return PotentialTrace(records=records, final=final.p, termination=steps.termination,
                          termination_detail=steps.detail)


def angle_evolution_residual(p_prev: Potential, p_mid: Potential, p_next: Potential,
                             t_prev: float, t_mid: float, t_next: float) -> ResidualNorms:
    """Residual of the angle evolution across a potential-state triple.

    Along the geometric flow the angle satisfies d alpha/dt = Lap_g alpha
    (flat ambient: no scalar-curvature term). The potential flow realizes
    the same image flow up to a tangential reparameterization, which at
    fixed chart coordinates contributes the drift g^ij Gamma^k_ij d_k alpha;
    the residual checked here is

        d alpha/dt - Lap_g alpha - g^ij Gamma^k_ij d_k alpha,

    pure discretization error (O(dt) + O(h^2)) at any potential amplitude.
    The drift vanishes at interior extrema, so the maximum principle for
    alpha is inherited unchanged."""
    if not t_prev < t_mid < t_next:
        raise UsageError("potential states out of order")
    w0, w1, w2 = _time_weights(t_prev, t_mid, t_next)
    alphas = [lagrangian_angle_of_hessian(p.hessian()) for p in (p_prev, p_mid, p_next)]
    dadt = w0 * alphas[0] + w1 * alphas[1] + w2 * alphas[2]
    imm = lag_immersion(p_mid)
    bundle = build_bundle(imm)
    lap = laplace_beltrami(alphas[1], bundle)
    dal = d1_tensor(alphas[1], imm.chart)
    res = dadt - lap - np.einsum("...k,...k->...", bundle.drift, dal)
    return _norms(res, bundle, trusted_mask(imm, 0), scale_field=lap)
