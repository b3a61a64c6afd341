"""Structured parameter charts and finite-difference calculus on them.

Charts are single global coordinate patches: the periodic circle S^1, periodic
tori T^m (m = 1..3), a latitude-staggered sphere S^2, and a non-periodic
interval (used for truncated non-compact profiles). Everything downstream
consumes only the derivative and quadrature operators defined here.

Sphere handling follows the staggered-grid idiom: colatitude samples
theta_j = (j + 1/2) * pi / J carry no node at either pole, and a ghost value
across a pole at (-theta, phi) is read from the physical node at
(theta, phi + pi). For scalar functions on the sphere that rule is exact.
Components of tensors pick up a sign (-1)^{number of theta indices} under the
same reflection, so the stencil routines accept a per-component parity.

Interval charts use staggered nodes x_j = a + (j + 1/2) h and even-reflection
ghosts at both ends; derived quantities are only trustworthy away from the
ends, which callers exclude via node masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, UsageError

MIN_RESOLUTION = 8


class Domain(enum.Enum):
    CIRCLE = "circle"
    TORUS = "torus"
    SPHERE = "sphere"
    INTERVAL = "interval"


class AxisKind(enum.Enum):
    PERIODIC = "periodic"
    POLE = "pole"          # sphere colatitude axis, antipodal ghosts
    REFLECT = "reflect"    # interval axis, even-reflection ghosts


@dataclass(frozen=True)
class ChartSpec:
    """Discrete chart description: domain, per-axis node counts, stencil order."""

    domain: Domain
    resolution: tuple[int, ...]
    fd_order: int = 2
    interval_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        try:
            res = tuple(int(n) for n in self.resolution)
        except (TypeError, ValueError, OverflowError):
            res = None
        if res != tuple(self.resolution):
            raise ConfigError(f"node counts must be whole numbers, got {self.resolution}")
        object.__setattr__(self, "resolution", res)
        if self.fd_order not in (2, 4):
            raise ConfigError(f"fd_order must be 2 or 4, got {self.fd_order}")
        for n in res:
            if n < MIN_RESOLUTION:
                raise ConfigError(
                    f"resolution below minimum {MIN_RESOLUTION}: got {n}"
                )
        if self.domain is Domain.CIRCLE and len(res) != 1:
            raise ConfigError("circle chart takes exactly one axis")
        if self.domain is Domain.TORUS and not 1 <= len(res) <= 3:
            raise ConfigError("torus chart takes 1..3 axes")
        if self.domain is Domain.SPHERE:
            if len(res) != 2:
                raise ConfigError("sphere chart takes exactly two axes (J, K)")
            if res[1] % 2 != 0:
                raise ConfigError(
                    "sphere longitude count must be even for antipodal ghosts"
                )
        if self.domain is Domain.INTERVAL:
            if len(res) != 1:
                raise ConfigError("interval chart takes exactly one axis")
            if self.interval_bounds is None:
                raise ConfigError("interval chart requires interval_bounds")
            a, b = self.interval_bounds
            if not (np.isfinite(a) and np.isfinite(b) and b > a):
                raise ConfigError(f"bad interval bounds {self.interval_bounds}")
        elif self.interval_bounds is not None:
            raise ConfigError("interval_bounds only valid for interval charts")


@dataclass(frozen=True)
class Chart:
    """Realized chart: node coordinates, spacings, and axis topology."""

    spec: ChartSpec
    coords: tuple[np.ndarray, ...]
    spacings: tuple[float, ...]
    axis_kinds: tuple[AxisKind, ...]

    @cached_property
    def m(self) -> int:
        return len(self.coords)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return self.spec.resolution

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def fd_order(self) -> int:
        return self.spec.fd_order

    @cached_property
    def plans(self) -> dict:
        """Chart-static tuples built on first use by the module that reads
        them: grid's stencil plans and ghost indices, geometry's Christoffel
        terms."""
        return {}

    def mesh(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays broadcast to the full grid shape."""
        return list(np.meshgrid(*self.coords, indexing="ij"))

    def cell_measure(self) -> float:
        """Coordinate volume of one grid cell (product of spacings)."""
        return float(np.prod(self.spacings))


@dataclass(frozen=True)
class GridField:
    """Per-node values with a fixed component count over one chart.

    values has shape chart.shape + (components,).
    """

    chart: Chart
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape[:-1] != self.chart.shape:
            raise UsageError(
                f"field shape {v.shape} does not match chart {self.chart.shape} + (c,)"
            )
        object.__setattr__(self, "values", v)

    @property
    def components(self) -> int:
        return self.values.shape[-1]


def make_chart(spec: ChartSpec) -> Chart:
    """Build node coordinates, spacings, and topology for a chart spec."""
    res = spec.resolution
    if spec.domain in (Domain.CIRCLE, Domain.TORUS):
        coords = tuple(2 * np.pi * np.arange(n) / n for n in res)
        spacings = tuple(2 * np.pi / n for n in res)
        kinds = tuple(AxisKind.PERIODIC for _ in res)
    elif spec.domain is Domain.SPHERE:
        J, K = res
        theta = (np.arange(J) + 0.5) * np.pi / J
        phi = 2 * np.pi * np.arange(K) / K
        coords = (theta, phi)
        spacings = (np.pi / J, 2 * np.pi / K)
        kinds = (AxisKind.POLE, AxisKind.PERIODIC)
    else:  # INTERVAL
        a, b = spec.interval_bounds
        n = res[0]
        h = (b - a) / n
        coords = (a + (np.arange(n) + 0.5) * h,)
        spacings = (h,)
        kinds = (AxisKind.REFLECT,)
    return Chart(spec=spec, coords=coords, spacings=spacings, axis_kinds=kinds)


# ---------------------------------------------------------------------------
# stencil machinery
#
# All differentiation goes through _pad, which extends an array by two ghost
# layers along one axis according to the axis topology, after which every
# stencil is plain slicing. Ghost construction is translation-equivariant on
# periodic axes, which makes cyclic index shifts commute bit-exactly with
# every derivative.
# ---------------------------------------------------------------------------

_PAD = 2  # ghost layers per side; enough for the widest (order-4) stencils

# The one stencil definition. Per (fd_order, derivative order k): integer
# weights per offset and a common denominator, so that
#     d^k f / dx^k [i] = sum_o w_o f[i + o] / (den h^k).
# the stencils sum the terms in the order listed here; the step matrix
# (flow._step_pattern) takes its coefficients w_o / den from the same rows.
STENCILS = {
    (2, 1): (((1, 1), (-1, -1)), 2),
    (4, 1): (((2, -1), (1, 8), (-1, -8), (-2, 1)), 12),
    (2, 2): (((1, 1), (0, -2), (-1, 1)), 1),
    (4, 2): (((2, -1), (1, 16), (0, -30), (-1, 16), (-2, -1)), 12),
}


def _pad(values: np.ndarray, axis: int, chart: Chart, parity: float | np.ndarray):
    """Extend values by _PAD ghost layers on both sides of one grid axis.

    parity is +1/-1 (scalar or per trailing component) and is consulted only
    on pole axes; reflect axes use even extension regardless.
    """
    i, j = chart.plans.get(("ghosts", axis)) or _ghost_plan(chart, axis)
    top, bot = values[i], values[j]
    if chart.axis_kinds[axis] is AxisKind.POLE:
        # a pole axis is always axis 0, and phi (K even) the grid axis after it
        h = chart.shape[1] // 2
        top, bot = (parity * np.concatenate([x[:, h:], x[:, :h]], axis=1)   # half a turn
                    for x in (top, bot))
    return np.concatenate([top, values, bot], axis=axis)


def _ghost_plan(chart: Chart, axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """_pad's two ghost blocks, indexed along axis itself (no moveaxis copy):
    the wrapped ends on a periodic axis, else the end layers mirrored."""
    lead = (slice(None),) * axis
    if chart.axis_kinds[axis] is AxisKind.PERIODIC:
        plan = lead + (slice(-_PAD, None),), lead + (slice(_PAD),)
    else:
        plan = lead + (slice(_PAD - 1, None, -1),), lead + (slice(None, -_PAD - 1, -1),)
    chart.plans["ghosts", axis] = plan
    return plan


def _shifted(axis: int, offset: int, n: int) -> tuple[slice, ...]:
    """Index of the n nodes shifted by offset along axis of an array padded
    there: the one definition of a stencil offset."""
    return (slice(None),) * axis + (slice(_PAD + offset, _PAD + offset + n),)


def _slice_axis(ext: np.ndarray, axis: int, offset: int) -> np.ndarray:
    """Undo padding with an index offset: offset 0 recovers the original."""
    return ext[_shifted(axis, offset, ext.shape[axis] - 2 * _PAD)]


def _stencil_plan(chart: Chart, axis: int, derivative: int) -> tuple:
    """The STENCILS row of the chart's order along one axis as (index,
    weight) terms in table order, with its divisor den h or den h h."""
    weights, den = STENCILS[chart.fd_order, derivative]
    n, h = chart.shape[axis], chart.spacings[axis]
    plan = (tuple((_shifted(axis, o, n), w) for o, w in weights),
            den * h if derivative == 1 else den * h * h)
    chart.plans["stencil", axis, derivative] = plan
    return plan


def _weighted(ext: np.ndarray, axis: int, chart: Chart, derivative: int, out=None) -> np.ndarray:
    """The STENCILS row of this chart's order over values padded along axis,
    into out if given, else into a fresh array.

    Terms are summed in table order. Every row's first weight is +-1 and its
    second has the opposite sign, so the first two make one difference in
    out; the others accumulate into it (a weight of +-1 adds or subtracts its
    slice) and the divisor divides it in place.
    """
    terms, divisor = (chart.plans.get(("stencil", axis, derivative))
                      or _stencil_plan(chart, axis, derivative))
    (i0, w0), (i1, w1) = terms[:2]
    a, b = ext[i0], ext[i1]
    if abs(w1) != 1:
        b = np.multiply(abs(w1), b, out=out)
    acc = np.subtract(a, b, out=out) if w0 > 0 else np.subtract(b, a, out=out)
    for i, w in terms[2:]:
        x = ext[i]
        if w == 1:
            acc += x
        elif w == -1:
            acc -= x
        else:
            acc += w * x   # acc + (-c) x rounds as acc - c x
    acc /= divisor
    return acc


def diff1(values: np.ndarray, axis: int, chart: Chart, parity=1.0, out=None) -> np.ndarray:
    """First derivative along one grid axis (central, fd_order accurate)."""
    return _weighted(_pad(values, axis, chart, parity), axis, chart, 1, out)


def diff2(values: np.ndarray, axis: int, chart: Chart, parity=1.0, out=None) -> np.ndarray:
    """Second derivative along one grid axis (compact central stencil)."""
    return _weighted(_pad(values, axis, chart, parity), axis, chart, 2, out)


def diff_mixed(values, axis_a: int, axis_b: int, chart: Chart, parity=1.0, out=None) -> np.ndarray:
    """Mixed second derivative: the later axis's first derivative of the
    earlier axis's first derivative, the outer one into out if given.

    The axes are sorted first, so swapping them is bit-exact. Only axis 0 of
    a chart can be a pole axis, so the outer derivative always runs along a
    periodic axis, reads no pole ghost and needs no parity flip; the stencils
    commute, also across the antipodal ghosts, so the other order would give
    the same operator up to rounding.
    """
    if axis_a == axis_b:
        raise UsageError("diff_mixed requires two distinct axes")
    a, b = sorted((axis_a, axis_b))
    return diff1(diff1(values, a, chart, parity), b, chart, parity, out)


def roll_axes(a: np.ndarray, k: int) -> np.ndarray:
    """View of a with its first k axes moved last (k < 0: its last -k first)."""
    return a.transpose(_ROLLED[a.ndim, k % a.ndim])


_ROLLED = {(n, k): tuple(range(k, n)) + tuple(range(k)) for n in range(1, 33) for k in range(n)}


def partials(values: np.ndarray, chart: Chart, parity=1.0):
    """First and second partials, shapes chart.shape + (m,) + trailing and
    + (m, m) + trailing, from one ghost pad per axis; bit-identical to diff1,
    diff2 and diff_mixed, whose composition the mixed partials reuse d1 for.
    Both are node-major views of index-major storage (the node axes last)."""
    m, t = chart.m, values.ndim - chart.m
    d1 = roll_axes(np.empty((m,) + values.shape[m:] + chart.shape), t + 1)
    d2 = roll_axes(np.empty((m, m) + values.shape[m:] + chart.shape), t + 2)
    nodes = (slice(None),) * m
    for a in range(m):
        ext = _pad(values, a, chart, parity)
        d1[nodes + (a,)] = _weighted(ext, a, chart, 1)
        d2[nodes + (a, a)] = _weighted(ext, a, chart, 2)
        for b in range(a):   # d_b d_a: the a-derivative of d_b
            ext = _pad(d1[nodes + (b,)], a, chart, parity)
            d2[nodes + (a, b)] = d2[nodes + (b, a)] = _weighted(ext, a, chart, 1)
    return d1, d2


def integrate_values(values: np.ndarray, density: np.ndarray, chart: Chart) -> float:
    """Quadrature sum(values * density * cell) over all nodes.

    density is the metric volume density (sqrt det g); the coordinate cell
    measure (product of spacings) is supplied by the chart. The reduction
    is the fixed C-order numpy sum for reproducibility.
    """
    return float(np.sum(values * density) * chart.cell_measure())


def neighbor_maps(chart: Chart, axis: int) -> dict[int, np.ndarray]:
    """Flat node-index maps node -> stencil neighbor along one axis, for
    offsets -_PAD.._PAD.

    The maps are read off the node indices padded by _pad, so they follow the
    stencils' ghost rules by construction (scalar fields: even pole parity),
    and matrices assembled from them act as the matrix-free operators do.
    """
    idx = np.arange(chart.node_count).reshape(chart.shape)
    ext = _pad(idx, axis, chart, 1)
    return {o: _slice_axis(ext, axis, o).ravel() for o in range(-_PAD, _PAD + 1)}
