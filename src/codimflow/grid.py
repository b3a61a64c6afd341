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

    @property
    def m(self) -> int:
        return len(self.coords)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.spec.resolution

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def fd_order(self) -> int:
        return self.spec.fd_order

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
# diff1/diff2 sum the terms in the order listed here; the step matrix
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
    kind = chart.axis_kinds[axis]
    lead = (slice(None),) * axis   # index along axis itself: no moveaxis copy
    if kind is AxisKind.PERIODIC:
        top, bot = values[lead + (slice(-_PAD, None),)], values[lead + (slice(_PAD),)]
    elif kind is AxisKind.POLE:
        # a pole axis is always axis 0, and phi is the grid axis after it
        K = chart.shape[1]
        top = parity * np.roll(values[_PAD - 1 :: -1], K // 2, axis=1)
        bot = parity * np.roll(values[: -_PAD - 1 : -1], K // 2, axis=1)
    else:  # REFLECT: even extension about the staggered boundary
        top = values[lead + (slice(_PAD - 1, None, -1),)]
        bot = values[lead + (slice(None, -_PAD - 1, -1),)]
    return np.concatenate([top, values, bot], axis=axis)


def _slice_axis(ext: np.ndarray, axis: int, offset: int) -> np.ndarray:
    """Undo padding with an index offset: offset 0 recovers the original."""
    n = ext.shape[axis] - 2 * _PAD
    if axis == 0:
        return ext[_PAD + offset : _PAD + offset + n]
    idx = [slice(None)] * ext.ndim
    idx[axis] = slice(_PAD + offset, _PAD + offset + n)
    return ext[tuple(idx)]


def _stencil(values, axis: int, chart: Chart, parity, derivative: int) -> np.ndarray:
    """Apply the STENCILS row of this chart's order along one axis.

    Terms are summed in table order, and a weight of +-1 (every row's first)
    adds or subtracts its slice. The first two terms make one fresh array;
    the others accumulate into it and the divisor divides it in place.
    """
    weights, den = STENCILS[chart.fd_order, derivative]
    ext = _pad(values, axis, chart, parity)
    (o0, w0), (o1, w1) = weights[:2]
    a = _slice_axis(ext, axis, o0)
    b = _slice_axis(ext, axis, o1)
    if abs(w1) != 1:
        b = abs(w1) * b
    if w0 > 0:
        acc = a - b if w1 < 0 else a + b
    else:
        acc = -a - b if w1 < 0 else b - a
    for o, w in weights[2:]:
        x = _slice_axis(ext, axis, o)
        if w == 1:
            acc += x
        elif w == -1:
            acc -= x
        else:
            acc += w * x   # acc + (-c) x rounds as acc - c x
    h = chart.spacings[axis]
    acc /= den * h if derivative == 1 else den * h * h
    return acc


def diff1(values: np.ndarray, axis: int, chart: Chart, parity=1.0) -> np.ndarray:
    """First derivative along one grid axis (central, fd_order accurate)."""
    return _stencil(values, axis, chart, parity, 1)


def diff2(values: np.ndarray, axis: int, chart: Chart, parity=1.0) -> np.ndarray:
    """Second derivative along one grid axis (compact central stencil)."""
    return _stencil(values, axis, chart, parity, 2)


def diff_mixed(values, axis_a: int, axis_b: int, chart: Chart, parity=1.0) -> np.ndarray:
    """Mixed second derivative: the later axis's first derivative of the
    earlier axis's first derivative.

    The axes are sorted first, so swapping them is bit-exact. Only axis 0 of
    a chart can be a pole axis, so the outer derivative always runs along a
    periodic axis, reads no pole ghost and needs no parity flip; the stencils
    commute, also across the antipodal ghosts, so the other order would give
    the same operator up to rounding.
    """
    if axis_a == axis_b:
        raise UsageError("diff_mixed requires two distinct axes")
    a, b = sorted((axis_a, axis_b))
    return diff1(diff1(values, a, chart, parity), b, chart, parity)


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
