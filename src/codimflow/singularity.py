"""Gaussian-density monotonicity, Type I/II rescaling, blow-up
classification, and soliton residuals.

The monotonicity functional is the Gaussian-weighted area

    int_M (4 pi (t0 - t))^{-m/2} exp(-|F - q|^2 / (4 (t0 - t))) dmu,

non-increasing along every mean curvature flow and constant exactly on
centered self-shrinkers; its decay rate is the defect integral
int |H + F^perp / (2 (t0 - t))|^2 rho dmu. Rescaling centered at (q, T)
uses F_tilde = (2 (T - t))^{-1/2} (F - q) with s = -log(T - t)/2, under which
Type I blow-up limits satisfy the shrinker equation H + F^perp = 0.

Type II rescaling follows Hamilton's normalization: over the discrete record
set, (p_k, t_k) maximizes |A(p, t)|^2 (T - 1/k - t), L_k = |A(p_k, t_k)|,
and the flow is rescaled so the marked point has unit curvature at time 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .flow import (SINGULARITY_SIGNALS, FlowState, FlowTrace, SingularTimeEstimate,
                   _affine_root, estimate_singular_time)
from .geometry import (GeometryBundle, Immersion, _masked_l2, build_bundle, normal_part,
                       trusted_mask)
from .grid import integrate_values


@dataclass(frozen=True)
class DensityParams:
    """Center and reference time of the backward-heat-kernel density."""

    q: np.ndarray
    t0: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64))


class SolitonKind(enum.Enum):
    SHRINKER = "shrinker"      # H + F^perp = 0
    EXPANDER = "expander"      # H - F^perp = 0
    TRANSLATOR = "translator"  # H - V^perp = 0


@dataclass(frozen=True)
class SolitonReport:
    linf: float
    l2: float
    worst_node: tuple[int, ...]


class BlowupClass(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class BlowupReport:
    classification: BlowupClass
    c_hat: float = math.nan       # fitted sup of max_A2_trusted (T_hat - t) over the window
    lower_rate: float = math.nan  # fitted inf of the same quantity
    spread: float = math.nan      # relative spread over the window
    growth: float = math.nan      # last/first ratio over the window
    detail: str = ""


@dataclass(frozen=True)
class HamiltonSequence:
    k: int
    record_index: int
    node: tuple[int, ...]
    t_k: float
    L_k: float
    alpha_k: float
    omega_k: float
    rescaled: list[tuple[float, Immersion]]  # (tau, immersion) pairs


def gaussian_density_field(bundle: GeometryBundle, t: float, params: DensityParams) -> np.ndarray:
    tau = params.t0 - t
    if tau <= 0:
        raise UsageError(f"reference time t0 = {params.t0} must exceed t = {t}")
    m = bundle.imm.m
    diff = bundle.imm.values - params.q
    r2 = np.einsum("...a,...a->...", diff, diff)
    return (4.0 * math.pi * tau) ** (-0.5 * m) * np.exp(-r2 / (4.0 * tau))


def huisken_functional(state: FlowState, params: DensityParams) -> float:
    """Gaussian-weighted area of the immersion at its current time."""
    bundle = state.bundle
    rho = gaussian_density_field(bundle, state.t, params)
    return integrate_values(rho, bundle.sqrt_det_g, bundle.chart)


def monotonicity_defect(state: FlowState, params: DensityParams) -> float:
    """The decay-rate integral int |H + F^perp/(2(t0-t))|^2 rho dmu >= 0."""
    bundle = state.bundle
    rho = gaussian_density_field(bundle, state.t, params)
    Fperp = normal_part(bundle, bundle.imm.values - params.q)
    defect = bundle.H + Fperp / (2.0 * (params.t0 - state.t))
    mag2 = np.einsum("...a,...a->...", defect, defect)
    return integrate_values(mag2 * rho, bundle.sqrt_det_g, bundle.chart)


@dataclass(frozen=True)
class MonotonicityCheck:
    is_nonincreasing: bool
    max_positive_jump: float
    values: np.ndarray          # functional value at each snapshot
    times: np.ndarray
    defects: np.ndarray         # defect integral at each snapshot


def monotone_verdict(values) -> tuple[bool, float]:
    """The verdict on a series of Gaussian-weighted areas: nonincreasing when
    no increase between consecutive values exceeds 1e-3 times the largest
    value. Returns (nonincreasing, largest increase)."""
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise UsageError("monotonicity check needs at least 3 values before t0, "
                         f"got {values.size}")
    max_jump = float(np.diff(values).max(initial=0.0))
    return max_jump <= 1e-3 * float(values.max()), max_jump


def monotonicity_check(trace: FlowTrace, params: DensityParams) -> MonotonicityCheck:
    """Evaluate the Gaussian-weighted area and the defect on the stored
    snapshots before t0, with the verdict of monotone_verdict."""
    rows = []
    for r in trace.records:
        if r.snapshot is not None and r.t < params.t0:
            st = FlowState(t=r.t, imm=r.snapshot, bundle=build_bundle(r.snapshot))
            rows.append((r.t, huisken_functional(st, params), monotonicity_defect(st, params)))
    times, values, defects = np.array(rows).reshape(-1, 3).T
    ok, max_jump = monotone_verdict(values)
    return MonotonicityCheck(is_nonincreasing=ok, max_positive_jump=max_jump, values=values,
                             times=times, defects=defects)


def type1_rescale(state: FlowState, q: np.ndarray, T: float) -> tuple[Immersion, float]:
    """Parabolic rescaling F_tilde = (2(T-t))^{-1/2} (F - q); returns the
    rescaled immersion and the rescaled time s = -log(T - t)/2."""
    t = state.t
    if t >= T:
        raise UsageError("rescaling requires t < T")
    lam = (2.0 * (T - t)) ** -0.5
    shift = -lam * np.asarray(q, dtype=np.float64)
    return state.imm.transformed(lam * np.eye(state.imm.n), shift), -0.5 * math.log(T - t)


def _window(gap: np.ndarray) -> np.ndarray | None:
    """The records before T_hat whose gap T_hat - t is within 10x the
    smallest gap, else within 100x; None when fewer than 5 are."""
    valid = gap > 0
    for factor in (10.0, 100.0):
        window = valid & (gap <= factor * gap[valid].min(initial=np.inf))
        if window.sum() >= 5:
            return window
    return None


def classify_blowup(trace: FlowTrace, t_hat: float | None = None, *,
                    est: SingularTimeEstimate | None = None) -> BlowupReport:
    """Classify the blow-up rate over the last decade of records.

    The diagnostic quantity is y(t) = max|A|^2 (T_hat - t), with the maximum
    over the trusted region (TraceRecord.max_A2_trusted). The window is the
    records before T_hat whose gap T_hat - t is within 10x the smallest gap,
    else within 100x; fewer than 5 records in it is inconclusive. A bounded
    fitted sup (relative spread below 0.2) is Type I with c_hat = sup y;
    growth of y (last over first) beyond 5 is Type II; anything else is
    inconclusive. Both raw fits are always reported. Without t_hat, T_hat is
    est (estimated here when not given) refitted over the window.
    """
    if trace.termination not in SINGULARITY_SIGNALS:
        return BlowupReport(BlowupClass.INCONCLUSIVE, detail=(
            f"trace ended with {trace.termination}, not a singularity signal"))
    refit = t_hat is None
    if refit:
        est = estimate_singular_time(trace) if est is None else est
        if not est.reliable:
            return BlowupReport(BlowupClass.INCONCLUSIVE,
                                detail=f"unreliable singular-time estimate: {est.detail}")
        t_hat = est.t_hat
    t = trace.times
    a2 = trace.max_A2_trusted_series
    window = _window(t_hat - t)
    if refit and window is not None and a2[window][-1] > a2[window][0]:
        # refit the singular time over the classification window itself, so
        # the diagnostic y = max|A|^2 (T_hat - t) is not distorted at records
        # whose gap is comparable to the estimation error of a fit anchored
        # elsewhere
        root, _ = _affine_root(t[window], 1.0 / a2[window])
        if root > t[window][-1]:
            t_hat = root
            window = _window(t_hat - t)
    if window is None:
        return BlowupReport(BlowupClass.INCONCLUSIVE,
                            detail="fewer than 5 records in the window before T_hat")
    y = a2[window] * (t_hat - t[window])
    c_hat = float(y.max())
    lower = float(y.min())
    spread = float((y.max() - y.min()) / y.max())
    growth = float(y[-1] / y[0])
    if growth > 5.0:
        cls = BlowupClass.TYPE_II
    elif spread < 0.2:
        cls = BlowupClass.TYPE_I
    else:
        cls = BlowupClass.INCONCLUSIVE
    return BlowupReport(cls, c_hat, lower, spread, growth,
                        detail=f"window of {int(window.sum())} records")


def hamilton_rescale(trace: FlowTrace, t_hat: float, k: int) -> HamiltonSequence:
    """Type II rescaling sequence member k over the stored records, which
    must include the first record's snapshot.

    (record, node) maximize max|A|^2 (T_hat - 1/k - t) over records with
    snapshots and t <= T_hat - 1/k; ties break lexicographically. The
    rescaled flows F_k(tau) = L_k (F(L_k^{-2} tau + t_k) - F(p_k, t_k)) are
    returned at every stored snapshot time inside [alpha_k, omega_k].
    """
    if k < 1:
        raise UsageError("k must be a positive integer")
    snaps = [(i, r) for i, r in enumerate(trace.records) if r.snapshot is not None]
    if snaps and snaps[0][0] > 0:
        raise UsageError(f"the Hamilton window reaches back to t = {trace.records[0].t:.6g}, "
                         f"but the earliest kept snapshot is at t = {snaps[0][1].t:.6g} (a "
                         "resumed run keeps no snapshots from before its checkpoint)")
    t_cut = t_hat - 1.0 / k
    candidates = [(i, r) for i, r in snaps if r.t <= t_cut]
    if not candidates:
        raise UsageError(f"no stored records with t <= T_hat - 1/k = {t_cut:.6g}")
    best_i, best_r, best_val = None, None, None
    for i, r in candidates:
        val = r.max_A2 * (t_cut - r.t)
        # strict improvement required: ties break to the lexicographically
        # first record (and np.argmax already picks the first node)
        if best_val is None or val > best_val * (1.0 + 1e-15) + 1e-300:
            best_i, best_r, best_val = i, r, val
    node = np.unravel_index(best_r.argmax_node, best_r.snapshot.chart.shape)
    L = math.sqrt(best_r.max_A2)
    t_k = best_r.t
    alpha = L * L * (0.0 - t_k)   # tau at t = 0: +0.0, not -0.0, when t_k = 0
    omega = L * L * (t_hat - t_k - 1.0 / k)
    base = best_r.snapshot.values[node]
    rescaled = []
    for _, r in snaps:
        tau = L * L * (r.t - t_k)
        if alpha - 1e-12 <= tau <= omega + 1e-12:
            rescaled.append((tau, r.snapshot.transformed(L * np.eye(r.snapshot.n), -L * base)))
    return HamiltonSequence(k=k, record_index=best_i, node=tuple(int(x) for x in node),
                            t_k=t_k, L_k=L, alpha_k=alpha, omega_k=omega,
                            rescaled=rescaled)


def soliton_residual(imm: Immersion, kind: SolitonKind,
                     V: np.ndarray | None = None,
                     bundle: GeometryBundle | None = None) -> SolitonReport:
    """Pointwise residual of the self-similarity equation for the given kind:
    shrinker H + F^perp, expander H - F^perp, translator H - V^perp. The
    velocity V is required for a translator and refused for the others."""
    if (V is None) == (kind is SolitonKind.TRANSLATOR):
        raise UsageError(f"soliton kind {kind.value}: a velocity V is required for "
                         f"a translator and read by no other kind")
    if bundle is None:
        bundle = build_bundle(imm)
    if kind is SolitonKind.TRANSLATOR:
        V = np.asarray(V, dtype=np.float64)
        if V.shape != (imm.n,):
            raise UsageError(f"V must have {imm.n} components")
        res = bundle.H - normal_part(bundle, V)
    else:
        Fperp = normal_part(bundle, imm.values)
        res = bundle.H + Fperp if kind is SolitonKind.SHRINKER else bundle.H - Fperp
    mask = trusted_mask(imm, 0)
    mag = np.where(mask, np.sqrt(np.einsum("...a,...a->...", res, res)), 0.0)
    worst = np.unravel_index(int(np.argmax(mag)), imm.chart.shape)
    return SolitonReport(linf=float(mag.max()), l2=_masked_l2(mag**2, bundle, mask),
                         worst_node=tuple(int(x) for x in worst))
