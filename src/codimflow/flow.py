"""Time integration of dF/dt = H and verification of the evolution equations
along computed flows.

Two integrators: explicit Euler under a parabolic CFL coupled with a
curvature-adaptive brake, and a semi-implicit step that solves
(Id - dt * Laplace-Beltrami(g(t))) F(t+dt) = F(t) with the operator frozen at
the current metric (the flat-ambient trace of the Gauss formula makes the
mean curvature vector exactly that Laplacian applied to the position).
The step matrix is assembled on a sparsity pattern cached per chart, and
its solve is preconditioned by an exact banded LU of the couplings inside
each line of the chart's last axis (the sphere's colatitude rings), with
the nodes of a line numbered zig-zag so the periodic wrap stays in the band.

Runs terminate on a reached time horizon, on the curvature cap, on time-step
underflow (both curvature signals), or on metric degeneration. Evolution
residuals difference state triples in time (central weights, supporting
non-uniform spacing) and compare against the right-hand sides evaluated at
the middle state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import LinearOperator, bicgstab, gmres, splu

from .errors import DegenerateImmersion, NonFiniteError, SolverError, UsageError
from .geometry import (
    GeometryBundle,
    Immersion,
    ResidualNorms,
    _norms,
    build_bundle,
    d1_tensor,
    laplace_beltrami,
    nabla_A,
    normal_part,
    second_covariant_H,
    trusted_mask,
)
from .grid import ChartSpec, integrate_values, make_chart


class Integrator(enum.Enum):
    EXPLICIT_EULER = "explicit"
    SEMI_IMPLICIT = "semi_implicit"


class Termination(enum.Enum):
    TIME_REACHED = "TimeReached"
    CURVATURE_CAP = "CurvatureCap"
    DT_UNDERFLOW = "DtUnderflow"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class FlowConfig:
    integrator: Integrator = Integrator.EXPLICIT_EULER
    cfl_sigma: float = 0.25
    curvature_cap_rho: float = 0.05
    stop_max_A2: float = 1e6
    stop_t_max: float = math.inf
    stop_dt_min: float = 1e-12
    record_every: int = 1
    snapshot_every: int = 0          # in records; 0 keeps first and last only
    fixed_dt: float | None = None    # overrides the adaptive law when set
    solver_rtol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.cfl_sigma <= 1.0):
            raise UsageError("cfl_sigma must lie in (0, 1]")
        for name in ("curvature_cap_rho", "stop_max_A2", "stop_dt_min"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if self.stop_t_max <= 0:
            raise UsageError("stop_t_max must be positive")
        if self.record_every < 1:
            raise UsageError("record_every must be >= 1")
        if self.fixed_dt is not None and self.fixed_dt <= 0:
            raise UsageError("fixed_dt must be positive")


@dataclass(frozen=True)
class FlowState:
    t: float
    imm: Immersion
    bundle: GeometryBundle
    step_index: int = 0

    @classmethod
    def initial(cls, imm: Immersion) -> "FlowState":
        return cls(t=0.0, imm=imm, bundle=build_bundle(imm), step_index=0)


@dataclass(frozen=True)
class TraceRecord:
    t: float
    dt: float
    max_A2: float
    max_A2_trusted: float             # max |A|^2 over trusted_mask; the
                                      # singular-time fit and the blow-up
                                      # classification read this one
    max_H2: float
    volume: float
    min_detg: float
    argmax_node: int                  # flat node index of max |A|^2
    step_index: int = 0
    huisken: float | None = None
    snapshot: Immersion | None = None


@dataclass
class FlowTrace:
    records: list[TraceRecord] = field(default_factory=list)
    termination: Termination | None = None
    termination_detail: str = ""
    chart_shape: tuple[int, ...] = ()

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def max_A2_series(self) -> np.ndarray:
        return np.array([r.max_A2 for r in self.records])

    @property
    def max_A2_trusted_series(self) -> np.ndarray:
        return np.array([r.max_A2_trusted for r in self.records])

    @property
    def volumes(self) -> np.ndarray:
        return np.array([r.volume for r in self.records])

    def snapshots(self) -> list[tuple[int, TraceRecord]]:
        return [(i, r) for i, r in enumerate(self.records) if r.snapshot is not None]


def min_physical_spacing(bundle: GeometryBundle) -> float:
    """Smallest metric grid spacing sqrt(g_aa) * dx_a over nodes and axes."""
    h = np.array(bundle.chart.spacings)
    gdiag = np.einsum("...aa->...a", bundle.g)
    return float(np.min(np.sqrt(gdiag) * h))


def adaptive_dt(state: FlowState, config: FlowConfig) -> float:
    """Time-step law: parabolic CFL on the minimal metric spacing coupled
    with the curvature brake dt <= rho / max|A|^2. The CFL term applies only
    to the explicit integrator; the semi-implicit step is unconditionally
    stable and is governed by the curvature brake alone. The brake (like the
    curvature cap in run) reads the maximum over all nodes, trusted or not:
    every node is stepped, so the step must bound every node."""
    if config.fixed_dt is not None:
        return config.fixed_dt
    max_a2 = float(state.bundle.normA2.max())
    dt = config.curvature_cap_rho / max(max_a2, 1e-300)
    if config.integrator is Integrator.EXPLICIT_EULER:
        m = state.imm.m
        h_min = min_physical_spacing(state.bundle)
        dt = min(dt, config.cfl_sigma * h_min * h_min / (2.0 * m))
    return dt


def step_explicit(state: FlowState, dt: float) -> FlowState:
    """Forward Euler step F <- F + dt * H; the bundle is rebuilt."""
    new_vals = state.imm.values + dt * state.bundle.H
    if not np.all(np.isfinite(new_vals)):
        raise NonFiniteError("explicit step produced non-finite positions")
    imm = replace(state.imm, values=new_vals)
    return FlowState(t=state.t + dt, imm=imm, bundle=build_bundle(imm),
                     step_index=state.step_index + 1)


@dataclass(frozen=True)
class _StepPattern:
    """Chart-static structure of the step matrix and its line preconditioner.

    The Laplacian part of the step matrix is a sum of couplings, one per
    stencil term and node: the term's per-node weight times its stencil
    coefficient. Coupling (term t, node n) has flat index t * N + n. The
    couplings landing on one CSR position are summed in that order.
    """

    weight_row: np.ndarray     # per term: its row of the weight stack
    term_coeff: np.ndarray     # per term: stencil coefficient over spacings
    first: np.ndarray          # per CSR position: its first coupling
    repeats: tuple             # (CSR positions, couplings): the k-th further
                               # coupling of each position, k = 1, 2, ...
    indices: np.ndarray        # CSR column indices
    indptr: np.ndarray         # CSR row pointers
    diag: np.ndarray           # CSR positions of the diagonal
    half_width: int            # band half-width kl = ku of the line blocks
    perm: np.ndarray           # banded position -> node
    banded: np.ndarray         # node -> banded position (inverse of perm)
    band_src: np.ndarray       # CSR positions of the in-band line couplings
    band_dst: np.ndarray       # their flat positions in LAPACK band storage,
                               # held transposed (column-major)


@lru_cache(maxsize=16)
def _step_pattern(spec: ChartSpec) -> _StepPattern:
    from .grid import D1_COEFFS, D2_COEFFS, neighbor_maps

    chart = make_chart(spec)
    m = chart.m
    N = chart.node_count
    order = chart.fd_order
    node = np.arange(N)
    nbs = [neighbor_maps(chart, a) for a in range(m)]
    # weight stack rows: g^aa (row a), drift -w_a (row m + a), 2 g^ab (from 2m)
    cols, weight_row, term_coeff = [], [], []

    def add(c, row, k):
        cols.append(c)
        weight_row.append(row)
        term_coeff.append(k)

    pair = 2 * m
    for a in range(m):
        h = chart.spacings[a]
        for o, c in D2_COEFFS[order]:
            add(nbs[a][o], a, c / (h * h))
        for o, c in D1_COEFFS[order]:
            add(nbs[a][o], m + a, c / h)
        for b in range(a + 1, m):
            hb = chart.spacings[b]
            for o1, c1 in D1_COEFFS[order]:
                base = nbs[a][o1]
                for o2, c2 in D1_COEFFS[order]:
                    add(nbs[b][o2][base], pair, c1 * c2 / (h * hb))
            pair += 1
    key = (node * N + np.stack(cols)).ravel()   # row * N + column per coupling
    srt = np.argsort(key, kind="stable")        # stable: repeats keep their order
    key = key[srt]
    new = np.r_[True, key[1:] != key[:-1]]
    first = np.flatnonzero(new)
    r, c = np.divmod(key[first], N)
    dup = np.flatnonzero(~new)
    pos = np.searchsorted(first, dup, side="right") - 1
    rank = dup - first[pos]
    repeats = tuple((pos[rank == k], srt[dup[rank == k]])
                    for k in range(1, int(rank.max(initial=0)) + 1))
    indptr = np.r_[0, np.cumsum(np.bincount(r, minlength=N))]

    # zig-zag numbering 0, K-1, 1, K-2, ... inside each line of the last axis
    # keeps a stencil offset o within 2|o| banded positions, periodic wrap
    # included
    K = chart.shape[-1]
    zig = np.empty(K, dtype=np.int64)
    zig[0::2] = np.arange((K + 1) // 2)
    zig[1::2] = np.arange(K - 1, (K + 1) // 2 - 1, -1)
    banded = (node // K) * K + np.argsort(zig)[node % K]
    kl = 2 * (order // 2)
    d = banded[r] - banded[c]
    in_band = (r // K == c // K) & (np.abs(d) <= kl)
    pattern = _StepPattern(
        weight_row=np.array(weight_row),
        term_coeff=np.array(term_coeff),
        first=srt[first],
        repeats=repeats,
        indices=c.astype(np.int32),
        indptr=indptr.astype(np.int32),
        diag=np.flatnonzero(r == c),
        half_width=kl,
        perm=np.argsort(banded),
        banded=banded,
        band_src=np.flatnonzero(in_band),
        band_dst=(banded[c] * (3 * kl + 1) + 2 * kl + d)[in_band],
    )
    # every step matrix shares indices and indptr with the cache: make the
    # arrays read-only so an in-place edit of one matrix fails loudly
    arrays = [v for v in vars(pattern).values() if isinstance(v, np.ndarray)]
    for arr in arrays + [a for rep in repeats for a in rep]:
        arr.setflags(write=False)
    return pattern


def assemble_step_matrix(bundle: GeometryBundle, dt: float) -> sp.csr_matrix:
    """Sparse matrix of (Id - dt Lap_g) acting on scalar node fields.

    Assembled from the same stencil coefficients and ghost-index maps as the
    matrix-free operators, so A @ f.ravel() reproduces
    (f - dt lap(f)).ravel() to rounding. Per node and axis a it couples the
    second-derivative stencil times g^aa, the first-derivative stencil times
    the drift -(g^ij Gamma^a_ij), and for each axis pair a < b the product
    of first-derivative stencils times 2 g^ab. The sparsity pattern is fixed
    per chart spec and cached; entries that vanish for this metric stay
    stored as zeros.
    """
    chart = bundle.chart
    pat = _step_pattern(chart.spec)
    m = chart.m
    N = chart.node_count
    ginv = bundle.ginv.reshape(N, m, m)
    # drift weights: lap f = g^ij d_i d_j f - (g^ij Gamma^k_ij) d_k f
    w = np.einsum("nij,nkij->nk", ginv, bundle.gamma.reshape(N, m, m, m))
    weights = np.stack(
        [ginv[:, a, a] for a in range(m)]
        + [-w[:, a] for a in range(m)]
        + [2.0 * ginv[:, a, b] for a in range(m) for b in range(a + 1, m)]
    )
    couplings = (weights[pat.weight_row] * pat.term_coeff[:, None]).ravel()
    lap = couplings[pat.first]
    for pos, coupling in pat.repeats:
        lap[pos] += couplings[coupling]
    data = -dt * lap
    data[pat.diag] += 1.0
    return sp.csr_matrix((data, pat.indices, pat.indptr), shape=(N, N))


def _line_preconditioner(A: sp.csr_matrix, chart) -> LinearOperator:
    """Exact banded LU of the couplings inside each line of the chart's last
    axis (the sphere's colatitude rings), for a matrix from
    assemble_step_matrix. In-line couplings beyond the band, which only the
    pole ghosts' half-turn produces, are left out."""
    pat = _step_pattern(chart.spec)
    kl = pat.half_width
    ab = np.zeros((A.shape[0], 3 * kl + 1))
    ab.flat[pat.band_dst] = A.data[pat.band_src]
    lu, piv, info = dgbtrf(ab.T, kl, kl, overwrite_ab=1)
    if info != 0:
        where = ""
        if info > 0:  # U(info, info) is exactly zero
            node = np.unravel_index(int(pat.perm[info - 1]), chart.shape)
            where = f" at node {tuple(int(i) for i in node)}"
        raise SolverError(f"semi-implicit line factor (dgbtrf) failed with "
                          f"info = {info}{where}")
    perm, banded = pat.perm, pat.banded

    def apply(r):
        return dgbtrs(lu, kl, kl, r[perm], piv, overwrite_b=1)[0][banded]

    return LinearOperator(A.shape, matvec=apply, dtype=np.float64)


def step_semi_implicit(state: FlowState, dt: float) -> FlowState:
    """Backward-Euler-type step with the Laplace-Beltrami operator frozen at
    the current metric: (Id - dt * Lap_g) F_new = F_old, solved componentwise
    to a relative residual of 1e-10 by a deterministic stabilized
    bi-conjugate gradient iteration.

    The preconditioner is an exact banded LU of the couplings inside each
    line of the chart's last axis, factored afresh every step so the step
    stays a function of its state. On the sphere these lines are the
    colatitude rings, whose longitude couplings stiffen toward the poles;
    on a one-axis chart it is the exact inverse. Restarted GMRES and then a
    sparse LU are the fallbacks when bicgstab does not converge.

    For immersions with an affine summand the solve acts on the periodic
    remainder; the affine part contributes dt * Lap_g(affine) to the right
    side and passes through unchanged.
    """
    bundle = state.bundle
    chart = bundle.chart
    imm = state.imm
    P = imm.periodic_values()
    rhs_extra = 0.0
    if imm.affine is not None:
        mat, _ = imm.affine
        # Lap_g of an affine map: g^ij (0 - Gamma^k_ij d_k) = -(g^ij Gamma^k_ij) M_k
        trace_gamma = np.einsum("...ij,...kij->...k", bundle.ginv, bundle.gamma)
        lap_aff = -np.einsum("...k,ak->...a", trace_gamma, mat)
        rhs_extra = dt * lap_aff
    A = assemble_step_matrix(bundle, dt)
    precond = _line_preconditioner(A, chart)
    new_P = np.empty_like(P)
    rhs_all = P + rhs_extra
    for a in range(imm.n):
        b = rhs_all[..., a].ravel()
        x0 = P[..., a].ravel()
        x, info = bicgstab(A, b, x0=x0, rtol=1e-10, atol=0.0,
                           maxiter=400, M=precond)
        if info != 0:
            # BiCGStab can break down on stiff steps; restarted GMRES and a
            # direct factorization are the (rare, deterministic) fallbacks.
            x, info = gmres(A, b, x0=x0, rtol=1e-10, atol=0.0,
                            restart=60, maxiter=40, M=precond)
        if info != 0:
            try:
                x = splu(A.tocsc()).solve(b)
            except RuntimeError as exc:
                raise SolverError(f"semi-implicit solve failed: {exc}") from None
        res = float(np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300))
        if res > 1e-8:
            raise SolverError(f"semi-implicit solve inaccurate (component {a}, rel={res:.2e})")
        new_P[..., a] = x.reshape(chart.shape)
    new_vals = new_P if imm.affine is None else new_P + imm.affine_values()
    if not np.all(np.isfinite(new_vals)):
        raise NonFiniteError("semi-implicit step produced non-finite positions")
    new_imm = replace(imm, values=new_vals)
    return FlowState(t=state.t + dt, imm=new_imm, bundle=build_bundle(new_imm),
                     step_index=state.step_index + 1)


def _step(state: FlowState, dt: float, config: FlowConfig) -> FlowState:
    if config.integrator is Integrator.SEMI_IMPLICIT:
        return step_semi_implicit(state, dt)
    return step_explicit(state, dt)


def _record(state: FlowState, dt: float, huisken_params=None,
            with_snapshot: bool = False) -> TraceRecord:
    from .singularity import huisken_functional  # local import to avoid a cycle

    b = state.bundle
    hval = None
    if huisken_params is not None and state.t < huisken_params.t0:
        hval = huisken_functional(state, huisken_params)
    mask = trusted_mask(state.imm)
    trusted = b.normA2 if mask is None else b.normA2[mask]
    return TraceRecord(
        t=state.t,
        dt=dt,
        max_A2=float(b.normA2.max()),
        max_A2_trusted=float(trusted.max()),
        max_H2=float(b.normH2.max()),
        volume=b.total_volume(),
        min_detg=float(b.det_g.min()),
        argmax_node=int(np.argmax(b.normA2)),
        step_index=state.step_index,
        huisken=hval,
        snapshot=state.imm if with_snapshot else None,
    )


def run(initial: Immersion, config: FlowConfig, huisken_params=None,
        initial_state: FlowState | None = None,
        max_steps: int | None = None) -> tuple[FlowTrace, FlowState]:
    """Integrate the flow until a stop condition fires.

    Returns the trace and the final state. Diagnostics are recorded every
    record_every steps (plus the initial and final states); snapshots are
    attached every snapshot_every records (always on the first and last).
    max_steps interrupts after that many steps without touching the time-step
    law, so a checkpointed state resumes onto the identical trajectory.
    """
    state = initial_state if initial_state is not None else FlowState.initial(initial)
    trace = FlowTrace(chart_shape=state.imm.chart.shape)
    n_records = 0
    first_step = state.step_index

    def push(st: FlowState, dt: float, force_snap: bool = False):
        nonlocal n_records
        snap = force_snap or (
            config.snapshot_every > 0 and n_records % config.snapshot_every == 0
        )
        trace.records.append(_record(st, dt, huisken_params, with_snapshot=snap))
        n_records += 1

    push(state, 0.0, force_snap=True)
    while True:
        max_a2 = float(state.bundle.normA2.max())
        if max_a2 >= config.stop_max_A2:
            trace.termination = Termination.CURVATURE_CAP
            trace.termination_detail = f"max|A|^2 = {max_a2:.6e} at t = {state.t:.9g}"
            break
        if state.t >= config.stop_t_max * (1.0 - 1e-14):
            trace.termination = Termination.TIME_REACHED
            trace.termination_detail = f"t = {state.t:.9g}"
            break
        if max_steps is not None and state.step_index - first_step >= max_steps:
            trace.termination = Termination.TIME_REACHED
            trace.termination_detail = f"step budget at t = {state.t:.9g}"
            break
        dt = adaptive_dt(state, config)
        if math.isfinite(config.stop_t_max):
            dt = min(dt, config.stop_t_max - state.t)
        if dt < config.stop_dt_min:
            trace.termination = Termination.DT_UNDERFLOW
            trace.termination_detail = f"dt = {dt:.3e} at t = {state.t:.9g}"
            break
        try:
            state = _step(state, dt, config)
        except (DegenerateImmersion, NonFiniteError) as exc:
            trace.termination = Termination.DEGENERATE
            trace.termination_detail = str(exc)
            break
        if state.step_index % config.record_every == 0:
            push(state, dt)
    if not trace.records or trace.records[-1].step_index < state.step_index:
        push(state, trace.records[-1].dt if trace.records else 0.0)
    last = trace.records[-1]
    if last.snapshot is None:
        trace.records[-1] = replace(last, snapshot=state.imm)
    return trace, state


# ---------------------------------------------------------------------------
# evolution-equation residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionReport:
    metric: ResidualNorms             # d/dt g_ij = -2 <H, A_ij>
    christoffel: ResidualNorms        # d/dt Gamma^k_ij = C^k_ij
    volume_form: ResidualNorms        # d/dt sqrt(det g) = -|H|^2 sqrt(det g)
    volume_total: ResidualNorms       # d/dt Vol = -int |H|^2 dmu
    second_fundamental: ResidualNorms # d/dt A^a_ij = grad_i grad_j H^a - C^k_ij F^a_k
    mean_sq: ResidualNorms            # d/dt |H|^2 = Lap|H|^2 - 2|grad^perp H|^2 + 2<A^ij,H><A_ij,H>
    a_sq: ResidualNorms               # d/dt |A|^2 = Lap|A|^2 - 2|grad^perp A|^2 + 2|<A_ij,A_kl>|^2 + |comm|^2
    heat: ResidualNorms               # d/dt (|F|^2 + 2 m t) = Lap (|F|^2)

    def as_dict(self) -> dict[str, ResidualNorms]:
        return {
            "metric": self.metric,
            "christoffel": self.christoffel,
            "volume_form": self.volume_form,
            "volume_total": self.volume_total,
            "second_fundamental": self.second_fundamental,
            "mean_sq": self.mean_sq,
            "a_sq": self.a_sq,
            "heat": self.heat,
        }


def christoffel_rate(bundle: GeometryBundle) -> np.ndarray:
    """C^k_ij = -g^kl (nab_i <H,A_jl> + nab_j <H,A_il> - nab_l <H,A_ij>)."""
    S = np.einsum("...a,...ija->...ij", bundle.H, bundle.A)
    dS = d1_tensor(S, bundle.chart, tensor_axes=(0, 1))  # (*, k, i, j)
    nabS = dS \
        - np.einsum("...pki,...pj->...kij", bundle.gamma, S) \
        - np.einsum("...pkj,...ip->...kij", bundle.gamma, S)
    # nabS[k, i, j] = nab_k S_ij; assemble nab_i S_jl + nab_j S_il - nab_l S_ij
    t1 = nabS                                         # nab_i S_jl at (i, j, l)
    t2 = np.einsum("...jil->...ijl", nabS)            # nab_j S_il
    t3 = np.einsum("...lij->...ijl", nabS)            # nab_l S_ij
    inner = t1 + t2 - t3                              # (*, i, j, l)
    return -np.einsum("...kl,...ijl->...kij", bundle.ginv, inner)


def _time_weights(t0: float, t1: float, t2: float) -> tuple[float, float, float]:
    """Second-order derivative weights at t1 for possibly non-uniform spacing."""
    d1, d2 = t1 - t0, t2 - t1
    w0 = -d2 / (d1 * (d1 + d2))
    w1 = (d2 - d1) / (d1 * d2)
    w2 = d1 / (d2 * (d1 + d2))
    return w0, w1, w2


def evolution_residuals(before: FlowState, after: FlowState,
                        mid: FlowState | None = None,
                        pole_margin: int = 1) -> EvolutionReport:
    """Residuals of the evolution equations across consecutive states.

    With mid given, time derivatives use central weights across the triple
    (before, mid, after) and right-hand sides are evaluated at mid; without
    it, a forward difference against the right-hand sides at before.
    """
    if mid is None:
        ref = before
        dt = after.t - before.t
        if dt <= 0:
            raise UsageError("states out of order")
        ddt = lambda f0, f1, f2: (f2 - f0) / dt  # f1 unused in pair mode
        states = (before, before, after)
    else:
        ref = mid
        if not before.t < mid.t < after.t:
            raise UsageError("state triple out of order")
        w0, w1, w2 = _time_weights(before.t, mid.t, after.t)
        ddt = lambda f0, f1, f2: w0 * f0 + w1 * f1 + w2 * f2
        states = (before, mid, after)

    b = ref.bundle
    chart = b.chart
    mask = trusted_mask(ref.imm, pole_margin)
    bundles = [s.bundle for s in states]

    # (evol 2) metric
    dgdt = ddt(*[bb.g for bb in bundles])
    S = np.einsum("...a,...ija->...ij", b.H, b.A)
    res_metric = dgdt + 2.0 * S
    metric = _norms(res_metric, b, mask, scale_field=2.0 * S)

    # Christoffel corollary
    dGdt = ddt(*[bb.gamma for bb in bundles])
    C = christoffel_rate(b)
    christoffel = _norms(dGdt - C, b, mask, scale_field=C)

    # (evol 3) volume form, pointwise and integrated
    dsq = ddt(*[bb.sqrt_det_g for bb in bundles])
    res_vol = dsq + b.normH2 * b.sqrt_det_g
    volume_form = _norms(res_vol, b, mask, scale_field=b.normH2 * b.sqrt_det_g)
    dV = ddt(*[bb.total_volume() for bb in bundles])
    rate = integrate_values(b.normH2, b.sqrt_det_g, chart)
    vres = abs(dV + rate)
    volume_total = ResidualNorms(linf=vres, l2=vres, scale=max(1.0, abs(rate)))

    # (evol sec) second fundamental tensor
    dAdt = ddt(*[bb.A for bb in bundles])
    ddH = second_covariant_H(b)
    CF = np.einsum("...kij,...ka->...ija", C, b.dF)
    rhs_A = np.einsum("...ija->...ija", ddH) - CF
    second_fundamental = _norms(dAdt - rhs_A, b, mask, scale_field=rhs_A)

    # (evol mean3) |H|^2
    dH2dt = ddt(*[bb.normH2 for bb in bundles])
    lapH2 = laplace_beltrami(b.normH2, b)
    dH = d1_tensor(b.H, chart)  # (*, i, a)
    dH_perp = np.stack(
        [normal_part(b, dH[..., i, :]) for i in range(chart.m)], axis=-2
    )
    gradperpH2 = np.einsum("...ij,...ia,...ja->...", b.ginv, dH_perp, dH_perp)
    HA = np.einsum("...a,...ija->...ij", b.H, b.A)
    HA2 = np.einsum("...ik,...jl,...ij,...kl->...", b.ginv, b.ginv, HA, HA)
    rhs_H2 = lapH2 - 2.0 * gradperpH2 + 2.0 * HA2
    mean_sq = _norms(dH2dt - rhs_H2, b, mask, scale_field=rhs_H2)

    # (evol sec3) |A|^2
    dA2dt = ddt(*[bb.normA2 for bb in bundles])
    lapA2 = laplace_beltrami(b.normA2, b)
    nA = nabla_A(b)
    flat = nA.reshape(chart.shape + (-1, b.imm.n))
    nA_perp = np.stack(
        [normal_part(b, flat[..., c, :]) for c in range(flat.shape[-2])], axis=-2
    ).reshape(nA.shape)
    gradperpA2 = np.einsum(
        "...ip,...jq,...kr,...ijka,...pqra->...",
        b.ginv, b.ginv, b.ginv, nA_perp, nA_perp,
    )
    AA = np.einsum("...ija,...kla->...ijkl", b.A, b.A)
    AA2 = np.einsum(
        "...ip,...jq,...kr,...ls,...ijkl,...pqrs->...",
        b.ginv, b.ginv, b.ginv, b.ginv, AA, AA,
    )
    A_mixed = np.einsum("...kl,...ika,...jlb->...ijab", b.ginv, b.A, b.A)
    comm = A_mixed - np.einsum("...ijba->...ijab", A_mixed)
    comm_sq = np.einsum("...ip,...jq,...ijab,...pqab->...", b.ginv, b.ginv, comm, comm)
    rhs_A2 = lapA2 - 2.0 * gradperpA2 + 2.0 * AA2 + comm_sq
    a_sq = _norms(dA2dt - rhs_A2, b, mask, scale_field=rhs_A2)

    # heat identity for f = |F|^2 + 2 m t. Direct stencils apply when |F|^2
    # is a chart-periodic field; with an affine summand (graph immersions)
    # it grows quadratically across the seam, so the Laplacian is expanded
    # by the product rule with the affine-aware derivatives:
    # Lap|F|^2 = 2 <F, Lap F> + 2 g^ij <F_i, F_j> with Lap F = g^ij A_ij.
    fs = [np.einsum("...a,...a->...", s.imm.values, s.imm.values)
          + 2.0 * s.imm.m * s.t for s in states]
    dfdt = ddt(*fs)
    if ref.imm.affine is None:
        lapf = laplace_beltrami(
            np.einsum("...a,...a->...", ref.imm.values, ref.imm.values), b
        )
    else:
        lapF = np.einsum("...ij,...ija->...a", b.ginv, b.A)
        lapf = (2.0 * np.einsum("...a,...a->...", ref.imm.values, lapF)
                + 2.0 * np.einsum("...ij,...ia,...ja->...", b.ginv, b.dF, b.dF))
    heat = _norms(dfdt - lapf, b, mask, scale_field=np.full(chart.shape, 2.0 * ref.imm.m))

    return EvolutionReport(
        metric=metric, christoffel=christoffel, volume_form=volume_form,
        volume_total=volume_total, second_fundamental=second_fundamental,
        mean_sq=mean_sq, a_sq=a_sq, heat=heat,
    )


# ---------------------------------------------------------------------------
# singular-time estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularTimeEstimate:
    t_hat: float
    fit_rms: float     # relative RMS of the affine fit of 1/max_A2_trusted
    reliable: bool
    detail: str = ""


def estimate_singular_time(trace: FlowTrace, window: int = 10) -> SingularTimeEstimate:
    """Least-squares affine fit of 1/max|A|^2 over the last `window` records
    of the terminal growth phase; the estimated singular time is the root of
    the fit. The maximum is taken over the trusted region
    (TraceRecord.max_A2_trusted), so the pole rings of a sphere chart, whose
    curvature outgrows the round value near the singularity, do not bend the
    fit. The growth phase is the longest suffix of records with strictly
    increasing max|A|^2 (early records can jitter while the grid rearranges).
    Flagged unreliable when the curvature history is not growing or the fit
    has no future root."""
    if len(trace.records) < window:
        return SingularTimeEstimate(math.nan, math.inf, False,
                                    f"only {len(trace.records)} records")
    all_a2 = trace.max_A2_trusted_series
    # terminal growth phase: walk back while the history keeps growing,
    # tolerating sub-0.1% backsteps (the argmax node can wander between
    # near-tied grid locations)
    start = len(all_a2) - 1
    while start > 0 and all_a2[start - 1] < all_a2[start] * (1.0 + 1e-3):
        start -= 1
    recs = trace.records[start:]
    if len(recs) < window:
        return SingularTimeEstimate(math.nan, math.inf, False,
                                    "max|A|^2 not increasing over fit window")
    recs = recs[-window:]
    t = np.array([r.t for r in recs])
    a2 = np.array([r.max_A2_trusted for r in recs])
    if not a2[-1] > a2[0] * (1.0 + 1e-6):
        return SingularTimeEstimate(math.nan, math.inf, False,
                                    "max|A|^2 not increasing over fit window")
    y = 1.0 / a2
    A = np.stack([np.ones_like(t), t], axis=1)
    (c0, c1), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (c0 + c1 * t)
    rms = float(np.sqrt(np.mean(resid**2)) / np.mean(np.abs(y)))
    if c1 >= 0:
        return SingularTimeEstimate(math.nan, rms, False, "fit slope not negative")
    t_hat = float(-c0 / c1)
    if t_hat <= t[-1]:
        # faster-than-affine decay of 1/max|A|^2: the affine root lands
        # inside the data. The secant through the last two records always
        # has a future root for growing curvature; the large fit RMS records
        # how far the history is from the affine (Type I) profile.
        slope = (y[-1] - y[-2]) / (t[-1] - t[-2])
        if slope >= 0:
            return SingularTimeEstimate(t_hat, rms, False, "fitted root not in the future")
        t_hat = float(t[-1] + y[-1] / -slope)
        return SingularTimeEstimate(t_hat, rms, True, "secant continuation")
    return SingularTimeEstimate(t_hat, rms, True)
