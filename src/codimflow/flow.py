"""Time integration of dF/dt = H and verification of the evolution equations
along computed flows.

Two integrators: explicit Euler under a parabolic CFL coupled with a
curvature-adaptive brake, and a semi-implicit step that solves
(Id - dt * L-hat) F(t+dt) = F(t) with the operator frozen at the current
metric. L-hat is the Laplace-Beltrami operator with its connection replaced
by a chart-static reference (DeTurck's trick), so the step is mean
curvature flow plus a tangential velocity that keeps the sphere chart's
pole rings from degenerating. The step matrix is assembled on a sparsity
pattern cached per chart. Its solve first tries M b, kept at a relative
residual of 1e-10, then bicgstab from a second-order predictor, GMRES and a
sparse LU, each kept at 1e-8. M is, on every chart, the exact inverse of
the step matrix's mean along the periodic axes (T. Chan's optimal circulant
in its block form), read off the step matrix's own entries: an FFT along
those axes, then one banded LU of each wavenumber's couplings across the
non-periodic axis (a sphere's colatitude, an interval's axis), which on
tori and the circle is a division by the symbol. The semi-implicit dt is
bounded by the curvature brake and by rho Vol^(2/m). scipy, which supplies
the sparse matrices and the solvers, is imported on the first semi-implicit
step, so a process that steps only explicitly (or not at all) never loads it.

One iterable, trajectory, steps the flow and decides where it stops: on a
reached time horizon, on the curvature cap, on time-step underflow (both
curvature signals), or on a failed step. Its state supplies the dt law and
the step, so run, a resumed run, the evolution checks of `codimflow verify`
and the potential flow (lagrangian.ma_run) all step along it. Evolution
residuals difference state triples in time (central weights, supporting
non-uniform spacing) and compare against the right-hand sides evaluated at
the middle state, with the Lie-derivative terms of a tangential velocity
when one is given.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import catalog
from .errors import DegenerateImmersion, NonFiniteError, SolverError, UsageError
from .geometry import (
    GeometryBundle,
    Immersion,
    ResidualNorms,
    _dot,
    _nabla_pair,
    _norms,
    _project,
    _sq_norm,
    build_bundle,
    d1_tensor,
    laplace_beltrami,
    trusted_mask,
)
from .grid import (STENCILS, AxisKind, ChartSpec, Domain, integrate_values, make_chart,
                   neighbor_maps, roll_axes)

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator


class Integrator(enum.Enum):
    EXPLICIT_EULER = "explicit"
    SEMI_IMPLICIT = "semi_implicit"


class Termination(enum.Enum):
    TIME_REACHED = "TimeReached"
    CURVATURE_CAP = "CurvatureCap"
    DT_UNDERFLOW = "DtUnderflow"
    DEGENERATE = "Degenerate"


# the terminations that signal a singularity (CLI exit 2; classify_blowup)
SINGULARITY_SIGNALS = frozenset({Termination.CURVATURE_CAP, Termination.DT_UNDERFLOW})


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

    def __post_init__(self):
        if not (0.0 < self.cfl_sigma <= 1.0):
            raise UsageError("cfl_sigma must lie in (0, 1]")
        for name in ("stop_max_A2", "stop_t_max"):  # negated: NaN fails
            if not getattr(self, name) > 0:
                raise UsageError(f"{name} must be positive")
        for name in ("curvature_cap_rho", "stop_dt_min"):
            if not 0 < getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be positive and finite")
        if self.fixed_dt is not None and not 0 < self.fixed_dt < math.inf:
            raise UsageError("fixed_dt must be positive and finite")
        if not (self.record_every >= 1 and self.snapshot_every >= 0):
            raise UsageError("record_every must be >= 1 and snapshot_every >= 0")


@dataclass(frozen=True)
class FlowState:
    t: float
    imm: Immersion
    bundle: GeometryBundle
    step_index: int = 0

    @classmethod
    def initial(cls, imm: Immersion) -> "FlowState":
        return cls(t=0.0, imm=imm, bundle=build_bundle(imm), step_index=0)

    def dt(self, config: FlowConfig) -> float:
        return adaptive_dt(self, config)

    def step(self, dt: float, config: FlowConfig) -> "FlowState":
        semi = config.integrator is Integrator.SEMI_IMPLICIT
        return (step_semi_implicit if semi else step_explicit)(self, dt)

    def stops(self, config: FlowConfig) -> tuple[str, float]:
        """The curvature cap's reading once reached ("" before) and the dt floor."""
        max_A2 = self.bundle.max_A2   # the full maximum: every node is stepped
        capped = f"max|A|^2 = {max_A2:.6e}" if max_A2 >= config.stop_max_A2 else ""
        return capped, config.stop_dt_min


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
    CSV_COLUMNS = ("t", "dt", "max_A2", "max_H2", "volume", "min_detg")
    records: list[TraceRecord] = field(default_factory=list)
    termination: Termination | None = None
    termination_detail: str = ""

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def max_A2_trusted_series(self) -> np.ndarray:
        return np.array([r.max_A2_trusted for r in self.records])


def min_physical_spacing(bundle: GeometryBundle) -> float:
    """Smallest metric grid spacing sqrt(g_aa) * dx_a over nodes and axes:
    per-axis minima of g_aa suffice, since sqrt and the product with
    dx_a > 0 are monotone, also after rounding."""
    g = bundle.g
    return min(math.sqrt(float(g[..., a, a].min())) * h
               for a, h in enumerate(bundle.chart.spacings))


def adaptive_dt(state: FlowState, config: FlowConfig) -> float:
    """Time-step law: the curvature brake dt <= rho / max|A|^2, coupled for
    the explicit integrator with a parabolic CFL on the minimal metric
    spacing. The semi-implicit step is unconditionally stable; its dt is
    instead bounded by rho Vol^(2/m), which has the units of rho / |A|^2
    and hardly binds on a closed immersion, but keeps dt finite once a graph
    flattens. The brake (like the curvature cap in run) reads the maximum
    over all nodes, trusted or not: every node is stepped, so the step must
    bound every node."""
    if config.fixed_dt is not None:
        return config.fixed_dt
    rho, m = config.curvature_cap_rho, state.imm.m
    dt = rho / max(state.bundle.max_A2, 1e-300)
    if config.integrator is Integrator.EXPLICIT_EULER:
        h_min = min_physical_spacing(state.bundle)
        return min(dt, config.cfl_sigma * h_min * h_min / (2.0 * m))
    return min(dt, rho * state.bundle.total_volume() ** (2.0 / m))


def step_explicit(state: FlowState, dt: float) -> FlowState:
    """Forward Euler step F <- F + dt * H; the bundle is rebuilt."""
    old = state.imm
    imm = Immersion(old.chart, old.values + dt * state.bundle.H, old.affine, old.norm_mask)
    return FlowState(t=state.t + dt, imm=imm, bundle=build_bundle(imm),
                     step_index=state.step_index + 1)


@dataclass(frozen=True)
class _StepPattern:
    """Chart-static structure of the step matrix and its preconditioner.

    The Laplacian part of the step matrix is a sum of couplings, one per
    stencil term and node: the term's stencil coefficient times its per-node
    weight. coupling maps the flattened weight stack (row r, node n at
    r * N + n) to the step matrix's CSR data: its row p holds the
    coefficient of every coupling that lands on CSR position p, in the order
    of the coupling's flat index t * N + n (term t, node n). It is never
    canonicalised, since merging duplicate entries would change the rounding.

    The preconditioner views the nodes (their C-order index reshaped) as
    (rings, *periodic axes): G = shape[0] rings of half-width
    b = fd_order // 2 when axis 0 is not periodic (an interval's axis gets a
    periodic axis of size 1), else one ring and b = 0. ring_mean averages
    the CSR data into the step matrix's mean along the periodic axes, a
    table of shape mean_shape = periodic + (G, 2b + 1) whose entry
    (d, j', b + j - j') couples ring j to ring j' at the row's offset d from
    the column (modulo the node counts). Its FFT along the periodic axes is
    the mean's symbol and, per wavenumber, LAPACK's band storage.
    """

    coupling: sp.csr_matrix    # CSR position x weight-stack entry
    indices: np.ndarray        # CSR column indices
    indptr: np.ndarray         # CSR row pointers
    diag: np.ndarray           # CSR positions of the diagonal
    ring_mean: sp.csr_matrix   # table entry x CSR position, entries G / N
    mean_shape: tuple[int, ...]  # table shape: periodic + (rings, 2b + 1)


@lru_cache(maxsize=16)
def _step_pattern(spec: ChartSpec) -> _StepPattern:
    import scipy.sparse as sp
    chart = make_chart(spec)
    m = chart.m
    N = chart.node_count
    order = chart.fd_order
    node = np.arange(N)
    nbs = [neighbor_maps(chart, a) for a in range(m)]
    # (offset, coefficient) in ascending offsets: the order in which repeated
    # couplings are summed
    d1, d2 = ([(o, w / den) for o, w in sorted(weights)]
              for weights, den in (STENCILS[order, 1], STENCILS[order, 2]))
    # weight stack rows: g^aa (row a), drift -w_a (row m + a), 2 g^ab (from 2m)
    cols, weight_row, term_coeff = [], [], []

    def add(c, row, k):
        cols.append(c)
        weight_row.append(row)
        term_coeff.append(k)

    pair = 2 * m
    for a in range(m):
        h = chart.spacings[a]
        for o, c in d2:
            add(nbs[a][o], a, c / (h * h))
        for o, c in d1:
            add(nbs[a][o], m + a, c / h)
        for b in range(a + 1, m):
            hb = chart.spacings[b]
            for o1, c1 in d1:
                base = nbs[a][o1]
                for o2, c2 in d1:
                    add(nbs[b][o2][base], pair, c1 * c2 / (h * hb))
            pair += 1
    key = (node * N + np.stack(cols)).ravel()   # row * N + column per coupling
    srt = np.argsort(key, kind="stable")
    key = key[srt]
    new = np.r_[True, key[1:] != key[:-1]]
    t, n = np.divmod(srt, N)
    coupling = sp.csr_matrix(
        (np.array(term_coeff)[t], np.array(weight_row)[t] * N + n,
         np.r_[np.flatnonzero(new), srt.size]),
        shape=(int(new.sum()), (max(weight_row) + 1) * N))
    r, c = np.divmod(key[new], N)
    indptr = np.r_[0, np.cumsum(np.bincount(r, minlength=N))]
    del cols, key, srt, new, t, n   # freed before the mean's: the build sets peak memory

    if chart.axis_kinds[0] is AxisKind.PERIODIC:
        rings, b, periodic = 1, 0, chart.shape
    else:
        rings, b, periodic = chart.shape[0], order // 2, chart.shape[1:] or (1,)
    row, col = np.unravel_index(r, (rings,) + periodic), np.unravel_index(c, (rings,) + periodic)
    mean_shape = periodic + (rings, 2 * b + 1)
    entry = np.ravel_multi_index([i - j for i, j in zip(row[1:], col[1:])]   # offsets, wrapped
                                 + [col[0], b + row[0] - col[0]], mean_shape, mode="wrap")
    size = math.prod(mean_shape)
    # ring_mean's row for a table entry: its CSR positions, ascending, each
    # weighted by one over the ring's node count
    pattern = _StepPattern(
        coupling=coupling,
        indices=c.astype(np.int32),
        indptr=indptr.astype(np.int32),
        diag=np.flatnonzero(r == c),
        ring_mean=sp.csr_matrix((np.full(r.size, rings / N), np.argsort(entry, kind="stable"),
                                 np.r_[0, np.cumsum(np.bincount(entry, minlength=size))]),
                                shape=(size, r.size)),
        mean_shape=mean_shape,
    )
    # every step matrix shares indices and indptr with the cache: make the
    # arrays (the sparse maps' too) read-only so an in-place edit fails loudly
    for f in vars(pattern).values():
        for arr in (f.data, f.indices, f.indptr) if sp.issparse(f) else (f,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
    return pattern


def assemble_step_matrix(bundle: GeometryBundle, dt: float,
                         drift: np.ndarray | None = None) -> sp.csr_matrix:
    """Sparse matrix of (Id - dt L) acting on scalar node fields, where
    L f = g^ij d_i d_j f - drift^k d_k f; the drift defaults to the bundle's
    w^k = g^ij Gamma^k_ij, which makes L the Laplace-Beltrami operator.

    Assembled from the same stencil coefficients and ghost-index maps as the
    matrix-free operators, so with the default drift A @ f.ravel()
    reproduces (f - dt lap(f)).ravel() to rounding. Per node and axis a it
    couples the second-derivative stencil times g^aa, the first-derivative
    stencil times -drift^a, and for each axis pair a < b the product of
    first-derivative stencils times 2 g^ab. The sparsity pattern is fixed
    per chart spec and cached, and the entries are one sparse product of the
    pattern's coupling matrix with the flattened stack of these per-node
    weights, which sums each CSR position's couplings in the pattern's
    order. Entries that vanish for this metric stay stored as zeros.
    """
    import scipy.sparse as sp
    chart = bundle.chart
    pat = _step_pattern(chart.spec)
    m, N = chart.m, chart.node_count
    ginv, w = roll_axes(bundle.ginv, -2), roll_axes(bundle.drift if drift is None else drift, -1)
    weights = np.stack([ginv[a, a] for a in range(m)] + [-w[a] for a in range(m)]
                       + [2.0 * ginv[a, b] for a in range(m) for b in range(a + 1, m)])
    data = -dt * (pat.coupling @ weights.ravel())
    data[pat.diag] += 1.0
    return sp.csr_matrix((data, pat.indices, pat.indptr), shape=(N, N))


def _preconditioner(A: sp.csr_matrix, spec: ChartSpec) -> LinearOperator:
    """The exact inverse of the step matrix A's mean along the periodic axes
    of the chart spec (T. Chan's optimal circulant in its block form), the
    mean read off A's own entries (_StepPattern.ring_mean). It is A itself
    where the couplings do not vary along those axes: on a round sphere in
    any position, the Whitney sphere, flat tori and intervals.

    An FFT along the periodic axes leaves, per wavenumber, a complex band of
    half-width b across the rings, the ghosts' couplings included; one
    banded LU factors the bands of all wavenumbers stacked (on tori and the
    circle b = 0: a division by the symbol). A pivot at or below 1e-12 of
    the largest over all wavenumbers raises SolverError naming its
    wavenumber and ring."""
    from scipy.linalg.lapack import zgbtrf, zgbtrs
    from scipy.sparse.linalg import LinearOperator
    pat = _step_pattern(spec)
    periodic, (rings, width) = pat.mean_shape[:-2], pat.mean_shape[-2:]
    b, view = width // 2, (rings,) + periodic
    table = (pat.ring_mean @ A.data).reshape(pat.mean_shape)
    # (C x)_i = sum_d a_d x_(i-d) has the eigenvalues fft(a). LAPACK band
    # storage, column-major: entry (i, i') of the stacked matrix (index
    # p rings + j for mode p, ring j) sits in row 2b + i - i' of column i', the
    # transformed table's entry (p, j', b + j - j'); the b rows above hold
    # the fill
    symbol = np.fft.rfftn(table, s=periodic, axes=range(len(periodic)))
    modes = symbol.shape[:-2]
    ab = np.zeros(symbol.shape[:-1] + (3 * b + 1,), dtype=complex)
    ab[..., b:] = symbol
    lu, piv, _ = zgbtrf(ab.reshape(-1, 3 * b + 1).T, b, b, overwrite_ab=True)
    mag = np.abs(lu[2 * b])
    zero = np.flatnonzero(mag <= 1e-12 * mag.max())
    if zero.size:
        mode, ring = divmod(int(zero[0]), rings)
        k = tuple(map(int, np.unravel_index(mode, modes)))
        raise SolverError("semi-implicit preconditioner is singular at wavenumber "
                          f"{k if len(k) > 1 else k[0]}, ring {ring}")
    axes = tuple(range(1, len(view)))   # the periodic axes of the view
    to_modes, to_rings = axes + (0,), (len(axes),) + tuple(range(len(axes)))

    def apply(r):
        y = np.fft.rfftn(r.reshape(view), s=periodic, axes=axes)
        x, _ = zgbtrs(lu, b, b, y.transpose(to_modes).ravel(), piv)
        x = x.reshape(modes + (rings,)).transpose(to_rings)
        return np.fft.irfftn(x, s=periodic, axes=axes).ravel()

    return LinearOperator(A.shape, matvec=apply, dtype=np.float64)


@lru_cache(maxsize=16)
def reference_connection(spec: ChartSpec) -> np.ndarray:
    """The chart-static connection Gamma-hat^k_ij of the semi-implicit step,
    shape chart.shape + (m, m, m), read-only: on sphere charts the discrete
    Christoffel symbols of the unit round sphere (Gamma is scale-invariant),
    zero on flat charts."""
    if spec.domain is Domain.SPHERE:
        unit = catalog.sphere(1.0, *spec.resolution, fd_order=spec.fd_order)
        gamma = build_bundle(unit).gamma
    else:
        m = len(spec.resolution)
        gamma = np.zeros(spec.resolution + (m, m, m))
    gamma.setflags(write=False)
    return gamma


def reference_drift(bundle: GeometryBundle) -> np.ndarray:
    """w-hat^k = g^ij Gamma-hat^k_ij, shape (*, m): the drift of the
    semi-implicit step's operator L-hat."""
    return np.einsum("...ij,...kij->...k", bundle.ginv,
                     reference_connection(bundle.chart.spec))


def tangential_velocity(bundle: GeometryBundle) -> np.ndarray:
    """V^k = w^k - w-hat^k, shape (*, m): the chart components of the
    tangential velocity V^k F_k that the semi-implicit step adds to H."""
    return bundle.drift - reference_drift(bundle)


# the solve's later rungs, looked up by name when called so they can be swapped
# in tests and tracing; each imports its scipy routine then, so a process that
# takes no semi-implicit step never loads scipy
def bicgstab(A, b, **kwargs):
    from scipy.sparse.linalg import bicgstab
    return bicgstab(A, b, **kwargs)


def gmres(A, b, **kwargs):
    from scipy.sparse.linalg import gmres
    return gmres(A, b, **kwargs)


def splu(A):
    from scipy.sparse.linalg import splu
    return splu(A)


def step_semi_implicit(state: FlowState, dt: float) -> FlowState:
    """Backward-Euler-type step with DeTurck's operator frozen at the current
    metric: (Id - dt L-hat) F_new = F_old, L-hat f = g^ij (d_i d_j f -
    Gamma-hat^k_ij d_k f) with the chart's reference connection. It steps
    dF/dt = L-hat F = H + V^k F_k, mean curvature flow up to the tangential
    velocity V = w - w-hat (tangential_velocity), which vanishes on a round
    sphere and on flat graphs.

    The preconditioner M, built afresh every step so the step stays a
    function of its state, is the exact inverse of the step matrix's mean
    along the chart's periodic axes (_preconditioner): the step matrix itself
    on a round sphere in any position, the Whitney sphere, the Clifford
    torus, flat tori, the round circle and intervals. So the first rung,
    x = M b, is kept when its true relative residual is at most 1e-10,
    bicgstab's own target. Where it misses, a deterministic stabilized
    bi-conjugate gradient iteration preconditioned by M solves to 1e-10 from
    the second-order predictor P + dt q + dt^2 L-hat q with q = L-hat F,
    formed as P + dt (2q - A q) by one matvec (A q = q - dt L-hat q); it is
    O(dt^3) from the answer and depends only on the state, so a resumed run
    repeats the same iterations. Each later rung's answer (bicgstab, then
    restarted GMRES, then a sparse LU) is kept once its true relative
    residual is at most 1e-8; SolverError is raised only when the last
    rung's is not.

    For immersions with an affine summand the solve acts on the periodic
    remainder; the affine part contributes dt * L-hat(affine) to the right
    side and passes through unchanged.
    """
    bundle = state.bundle
    chart = bundle.chart
    imm = state.imm
    P = imm.periodic_values()
    w_hat = reference_drift(bundle)
    rhs_all = P
    if imm.affine is not None:
        mat, _ = imm.affine
        # L-hat of an affine map: g^ij (0 - Gamma-hat^k_ij M_k) = -w-hat^k M_k
        rhs_all = P - dt * np.einsum("...k,ak->...a", w_hat, mat)
    A = assemble_step_matrix(bundle, dt, drift=w_hat)
    precond = _preconditioner(A, chart.spec)

    def answers(a, b):
        # (answer, the relative residual that keeps it)
        yield precond.matvec(b), 1e-10
        # the predictor from q = L-hat F = H + V^k F_k (the Gauss formula
        # gives Lap_g F = H)
        qa = (bundle.H[..., a] + np.einsum("...k,...k->...", bundle.drift - w_hat,
                                           bundle.dF[..., a])).ravel()
        x0 = P[..., a].ravel() + dt * (2.0 * qa - A @ qa)
        # BiCGStab can break down or stop short on stiff steps; restarted
        # GMRES and a direct factorization are the (rare, deterministic)
        # fallbacks
        yield bicgstab(A, b, x0=x0, rtol=1e-10, atol=0.0, maxiter=400, M=precond)[0], 1e-8
        yield gmres(A, b, x0=x0, rtol=1e-10, atol=0.0, restart=60, maxiter=40, M=precond)[0], 1e-8
        try:
            yield splu(A.tocsc()).solve(b), 1e-8
        except RuntimeError as exc:
            raise SolverError(f"semi-implicit solve failed: {exc}") from None

    new_P = np.empty_like(P)
    for a in range(imm.n):
        b = rhs_all[..., a].ravel()
        for x, tol in answers(a, b):
            res = float(np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300))
            if res <= tol:
                break
        else:
            raise SolverError(f"semi-implicit solve inaccurate (component {a}, rel={res:.2e})")
        new_P[..., a] = x.reshape(chart.shape)
    new_vals = new_P if imm.affine is None else new_P + imm.affine_values()
    new_imm = Immersion(chart, new_vals, imm.affine, imm.norm_mask)
    return FlowState(t=state.t + dt, imm=new_imm, bundle=build_bundle(new_imm),
                     step_index=state.step_index + 1)


def _record(state: FlowState, dt: float, huisken_params, with_snapshot: bool) -> TraceRecord:
    from .singularity import huisken_functional  # local import to avoid a cycle

    b = state.bundle
    hval = None
    if huisken_params is not None and state.t < huisken_params.t0:
        hval = huisken_functional(state, huisken_params)
    trusted = b.normA2[trusted_mask(state.imm)]
    return TraceRecord(
        t=state.t,
        dt=dt,
        max_A2=b.max_A2,
        max_A2_trusted=float(trusted.max()),
        max_H2=float(b.normH2.max()),
        volume=b.total_volume(),
        min_detg=float(b.det_g.min()),
        argmax_node=int(np.argmax(b.normA2)),
        step_index=state.step_index,
        huisken=hval,
        snapshot=state.imm if with_snapshot else None,
    )


def recorded(states, make, record_every: int, snapshot_every: int, records=()):
    """Record a run's stream of (state, dt), its initial state first;
    returns the records and the last state. The initial state, the state of
    every record_every-th step_index and the final one are recorded; every
    snapshot_every-th record (none between when 0), the first and the last
    carry a snapshot. make(state, dt, with_snapshot) builds a record when
    the next state arrives, so the final one is made once, with its
    snapshot. Given an earlier run's records, both counts continue them."""
    records, due = list(records), False
    for state, dt in states:
        if due:
            n = len(records)
            records.append(make(*last, n == 0 or snapshot_every > 0 and n % snapshot_every == 0))
        last, due = (state, dt), state.step_index % record_every == 0
    records.append(make(*last, True))
    return records, last[0]


class trajectory:
    """The flow from state, stepped as it is iterated (once): it yields each
    stepped state with the dt that produced it. The state supplies the dt
    law, the step and the stops (curvature cap, dt floor): a FlowState for
    mean curvature flow, a lagrangian.PotentialState for the potential flow.

    Before each step it stops on, in this order: the curvature cap, the
    horizon stop_t_max, max_steps taken, underflow of the state's dt law.
    That dt is then clipped onto stop_t_max, so a sliver left by rounding
    before the horizon is stepped, not read as underflow. A step that
    raises DegenerateImmersion, NonFiniteError or SolverError ends it too,
    as Degenerate. Once exhausted, termination and detail say why it
    stopped; error holds a failed step's exception."""

    def __init__(self, state, config, max_steps: int | None = None):
        self.termination, self.detail, self.error = None, "", None
        self._steps = self._advance(state, config, max_steps)

    def __iter__(self):
        return self._steps

    def _stop(self, termination: Termination, detail: str) -> None:
        self.termination, self.detail = termination, detail

    def _advance(self, state, config, max_steps):
        first_step = state.step_index
        while True:
            capped, dt_min = state.stops(config)
            if capped:
                return self._stop(Termination.CURVATURE_CAP, f"{capped} at t = {state.t:.9g}")
            if state.t >= config.stop_t_max * (1.0 - 1e-14):   # up to the rounding of clipped steps
                return self._stop(Termination.TIME_REACHED, f"t = {state.t:.9g}")
            if max_steps is not None and state.step_index - first_step >= max_steps:
                return self._stop(Termination.TIME_REACHED, f"step budget at t = {state.t:.9g}")
            dt = state.dt(config)
            if dt < dt_min:
                return self._stop(Termination.DT_UNDERFLOW, f"dt = {dt:.3e} at t = {state.t:.9g}")
            dt = min(dt, config.stop_t_max - state.t)
            try:
                state = state.step(dt, config)
            except (DegenerateImmersion, NonFiniteError, SolverError) as exc:
                self.error = exc
                return self._stop(Termination.DEGENERATE, str(exc))
            yield state, dt


def run(initial: Immersion, config: FlowConfig, huisken_params=None,
        initial_state: FlowState | None = None,
        max_steps: int | None = None,
        records: list[TraceRecord] | None = None) -> tuple[FlowTrace, FlowState]:
    """Integrate the flow along trajectory until a stop condition fires;
    returns the trace, recorded through recorded, and the final state.
    max_steps interrupts after that many steps without touching the
    time-step law, so a checkpointed state resumes onto the identical
    trajectory. records are those of an earlier run that ended at
    initial_state, its own record last: the run continues their cadence, so
    that record is made again (with its snapshot when due) or dropped when
    the state is off the record cadence and not final.
    """
    state = initial_state if initial_state is not None else FlowState.initial(initial)
    kept = list(records or ())
    first = (state, kept.pop().dt if kept else 0.0)
    steps = trajectory(state, config, max_steps)
    records, state = recorded(
        chain([first], steps), lambda st, dt, snap: _record(st, dt, huisken_params, snap),
        config.record_every, config.snapshot_every, kept)
    return FlowTrace(records=records, termination=steps.termination,
                     termination_detail=steps.detail), state


# ---------------------------------------------------------------------------
# evolution-equation residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionReport:
    """Residual norms of the evolution equations across one state triple.
    With a tangential velocity the right-hand sides carry its Lie-derivative
    terms, and christoffel and second_fundamental are None."""

    metric: ResidualNorms             # d/dt g_ij = -2 <H, A_ij>
    christoffel: ResidualNorms | None # d/dt Gamma^k_ij = C^k_ij
    volume_form: ResidualNorms        # d/dt sqrt(det g) = -|H|^2 sqrt(det g)
    volume_total: ResidualNorms       # d/dt Vol = -int |H|^2 dmu
    second_fundamental: ResidualNorms | None  # d/dt A^a_ij = grad_i grad_j H^a - C^k_ij F^a_k
    mean_sq: ResidualNorms            # d/dt |H|^2 = Lap|H|^2 - 2|grad^perp H|^2 + 2<A^ij,H><A_ij,H>
    a_sq: ResidualNorms               # d/dt |A|^2 = Lap|A|^2 - 2|grad^perp A|^2 + 2|<A_ij,A_kl>|^2 + 2|R^perp|^2
    heat: ResidualNorms               # d/dt (|F|^2 + 2 m t) = Lap (|F|^2)

    def as_dict(self) -> dict[str, ResidualNorms]:
        """The residuals checked, by name; checks left out (None) are absent."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


def christoffel_rate(bundle: GeometryBundle) -> np.ndarray:
    """C^k_ij = -g^kl (nab_i S_jl + nab_j S_il - nab_l S_ij) with S_ij = <H, A_ij>."""
    nabS = _nabla_pair(bundle, bundle.HA)  # (k, i, j) = nab_k S_ij
    # inner[l, i, j] = nab_i S_jl + nab_j S_il - nab_l S_ij
    inner = np.einsum("ijl...->lij...", nabS) + np.einsum("jil...->lij...", nabS) - nabS
    ginv = roll_axes(bundle.ginv, -2)
    return roll_axes(-_dot(ginv[:, :, None, None], inner[:, None]), 3)


def _time_weights(t0: float, t1: float, t2: float) -> tuple[float, float, float]:
    """Second-order derivative weights at t1 for possibly non-uniform spacing."""
    d1, d2 = t1 - t0, t2 - t1
    w0 = -d2 / (d1 * (d1 + d2))
    w1 = (d2 - d1) / (d1 * d2)
    w2 = d1 / (d2 * (d1 + d2))
    return w0, w1, w2


def evolution_residuals(before: FlowState, after: FlowState, mid: FlowState,
                        V: np.ndarray | None = None) -> EvolutionReport:
    """Residuals of the evolution equations across a consecutive state
    triple: time derivatives use central weights across (before, mid,
    after), and the right-hand sides are evaluated at mid.

    V, shape chart.shape + (m,), is the chart components of a tangential
    velocity of the flow at mid, dF/dt = H + V^k F_k (the semi-implicit
    step's tangential_velocity). Its Lie-derivative terms are added to the
    right-hand sides of the metric (nab_i V_j + nab_j V_i), the volume form
    (div V sqrt(det g)), |H|^2, |A|^2 and the heat identity (V^k d_k f);
    the integrated volume rate has none. The Christoffel and second
    fundamental tensor checks have no Lie terms here, so with V they are
    left out of the report."""
    if not before.t < mid.t < after.t:
        raise UsageError("state triple out of order")
    w0, w1, w2 = _time_weights(before.t, mid.t, after.t)
    ddt = lambda f0, f1, f2: w0 * f0 + w1 * f1 + w2 * f2
    states = (before, mid, after)

    b = mid.bundle
    chart = b.chart
    mask = trusted_mask(mid.imm)
    bundles = [s.bundle for s in states]
    # the Lie derivative V^k d_k f of a scalar field f (none without V)
    along_V = lambda f: 0.0 if V is None else np.einsum("...k,...k->...", V, d1_tensor(f, chart))

    # (evol 2) metric
    dgdt = ddt(*[bb.g for bb in bundles])
    res_metric = dgdt + 2.0 * b.HA
    if V is not None:
        V_low = _dot(roll_axes(b.g, -2), roll_axes(V, chart.m)[:, None])  # V_j = g_jk V^k
        dV_low = d1_tensor(roll_axes(V_low, 1), chart, tensor_axes=(0,))   # (*, i, j) = d_i V_j
        corr = _dot(roll_axes(b.gamma, -3), V_low[:, None, None])  # Gamma^k_ij V_k
        res_metric = res_metric - (dV_low + np.swapaxes(dV_low, -1, -2)
                                   - 2.0 * roll_axes(corr, 2))
    metric = _norms(res_metric, b, mask, scale_field=2.0 * b.HA)

    christoffel = second_fundamental = None
    if V is None:
        # Christoffel corollary
        dGdt = ddt(*[bb.gamma for bb in bundles])
        C = christoffel_rate(b)
        christoffel = _norms(dGdt - C, b, mask, scale_field=C)
        # (evol sec) second fundamental tensor
        dAdt = ddt(*[bb.A for bb in bundles])
        C_F = _dot(roll_axes(C, -3)[:, :, :, None], roll_axes(b.dF, -2)[:, None, None])
        rhs_A = b.ddH - roll_axes(C_F, 3)
        second_fundamental = _norms(dAdt - rhs_A, b, mask, scale_field=rhs_A)

    # (evol 3) volume form, pointwise and integrated
    dsq = ddt(*[bb.sqrt_det_g for bb in bundles])
    res_vol = dsq + b.normH2 * b.sqrt_det_g
    if V is not None:
        # div V = d_k V^k + Gamma^k_kl V^l
        div_V = (np.einsum("...kk->...", d1_tensor(V, chart, tensor_axes=(0,)))
                 + np.einsum("...kkl,...l->...", b.gamma, V))
        res_vol = res_vol - div_V * b.sqrt_det_g
    volume_form = _norms(res_vol, b, mask, scale_field=b.normH2 * b.sqrt_det_g)
    dV = ddt(*[bb.total_volume() for bb in bundles])
    rate = integrate_values(b.normH2, b.sqrt_det_g, chart)
    vres = abs(dV + rate)
    volume_total = ResidualNorms(linf=vres, l2=vres, scale=max(1.0, abs(rate)))

    # (evol mean3) |H|^2
    dH2dt = ddt(*[bb.normH2 for bb in bundles])
    ginv, P = roll_axes(b.ginv, -2), roll_axes(b.normal_projector, -2)
    gradperpH2 = _sq_norm(ginv, _project(P, roll_axes(d1_tensor(b.H, chart), -2)), 1)
    rhs_H2 = laplace_beltrami(b.normH2, b) - 2.0 * gradperpH2 + 2.0 * b.HA_sq
    mean_sq = _norms(dH2dt - rhs_H2 - along_V(b.normH2), b, mask, scale_field=rhs_H2)

    # (evol sec3) |A|^2
    dA2dt = ddt(*[bb.normA2 for bb in bundles])
    rhs_A2 = (laplace_beltrami(b.normA2, b) - 2.0 * b.grad_perp_A_sq
              + 2.0 * _sq_norm(ginv, roll_axes(b.AA, -4), 4) + 2.0 * b.comm_sq)
    a_sq = _norms(dA2dt - rhs_A2 - along_V(b.normA2), b, mask, scale_field=rhs_A2)

    # heat identity for f = |F|^2 + 2 m t. Direct stencils apply when |F|^2
    # is a chart-periodic field; with an affine summand (graph immersions)
    # it grows quadratically across the seam, so the Laplacian is expanded
    # by the product rule with the affine-aware derivatives:
    # Lap|F|^2 = 2 <F, Lap F> + 2 g^ij <F_i, F_j> with Lap F = g^ij A_ij = H.
    F2 = [np.einsum("...a,...a->...", s.imm.values, s.imm.values) for s in states]
    dfdt = ddt(*[f + 2.0 * s.imm.m * s.t for f, s in zip(F2, states)])
    if mid.imm.affine is None:
        lapf = laplace_beltrami(F2[1], b)
    else:
        lapf = (2.0 * np.einsum("...a,...a->...", mid.imm.values, b.H)
                + 2.0 * np.einsum("...ij,...ij->...", b.ginv, b.g))
    if V is not None:
        # V^k d_k |F|^2 = 2 <F, V^k F_k>, affine summand included
        tangent = np.einsum("...k,...ka->...a", V, b.dF)
        lapf = lapf + 2.0 * np.einsum("...a,...a->...", mid.imm.values, tangent)
    heat = _norms(dfdt - lapf, b, mask, scale_field=np.full(chart.shape, 2.0 * mid.imm.m))

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


def _affine_root(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The root of the least-squares fit y ~ c0 + c1 t (NaN unless c1 < 0)
    and the fit's RMS residual relative to mean |y|."""
    (c0, c1), *_ = np.linalg.lstsq(np.stack([np.ones_like(t), t], axis=1), y, rcond=None)
    rms = float(np.sqrt(np.mean((y - (c0 + c1 * t))**2)) / np.mean(np.abs(y)))
    return (float(-c0 / c1) if c1 < 0 else math.nan), rms


def estimate_singular_time(trace: FlowTrace) -> SingularTimeEstimate:
    """Least-squares affine fit of 1/max|A|^2 over the last 10 records
    of the terminal growth phase; the estimated singular time is the root of
    the fit. The maximum is taken over the trusted region
    (TraceRecord.max_A2_trusted), so the pole rings of a sphere chart, where
    the chart degeneracy slows pointwise convergence, do not bend the fit.
    The growth phase is the longest suffix of records with strictly
    increasing max|A|^2 (early records can jitter while the grid rearranges).
    Flagged unreliable when the curvature history is not growing or the fit
    has no future root."""
    window = 10
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
    t, a2 = trace.times[start:][-window:], all_a2[start:][-window:]
    if len(t) < window or not a2[-1] > a2[0] * (1.0 + 1e-6):
        return SingularTimeEstimate(math.nan, math.inf, False,
                                    "max|A|^2 not increasing over fit window")
    y = 1.0 / a2
    t_hat, rms = _affine_root(t, y)
    if math.isnan(t_hat):
        return SingularTimeEstimate(math.nan, rms, False, "fit slope not negative")
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
