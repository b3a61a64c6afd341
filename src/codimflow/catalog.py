"""Closed-form example immersions used as flow initial data and soliton
test cases.

Each constructor returns a valid Immersion. Resolutions and stencil orders
are free parameters with defaults chosen so each example resolves its
curvature scale; sphere-chart examples default to fourth-order stencils
because the pole-adjacent rings of the staggered chart lose accuracy faster
under second-order differencing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .geometry import Immersion, graph_immersion
from .grid import ChartSpec, Domain, GridField, make_chart


def circle(radius: float = 1.0, n: int = 256, fd_order: int = 2,
           ambient_dim: int = 2) -> Immersion:
    """Round circle of the given radius, optionally embedded in R^n, n > 2."""
    if radius <= 0:
        raise ConfigError("circle radius must be positive")
    if ambient_dim < 2:
        raise ConfigError("circle needs ambient dimension >= 2")
    ch = make_chart(ChartSpec(Domain.CIRCLE, (n,), fd_order=fd_order))
    th = ch.coords[0]
    vals = np.zeros((n, ambient_dim))
    vals[:, 0] = radius * np.cos(th)
    vals[:, 1] = radius * np.sin(th)
    return Immersion(ch, vals)


def ellipse(a: float = 1.0, b: float = 0.8, n: int = 256, fd_order: int = 2) -> Immersion:
    if a <= 0 or b <= 0:
        raise ConfigError("ellipse semi-axes must be positive")
    ch = make_chart(ChartSpec(Domain.CIRCLE, (n,), fd_order=fd_order))
    th = ch.coords[0]
    return Immersion(ch, np.stack([a * np.cos(th), b * np.sin(th)], axis=-1))


def cardioid(n: int = 257, scale: float = 1.0, loop: float = 1.0,
             fd_order: int = 2) -> Immersion:
    """Cardioid-family curve r(phi) = scale (1 + loop * cos phi).

    loop = 1 is the literal cardioid, whose cusp the discrete curve-shortening
    flow immediately smooths (the curve is then embedded and contracts to a
    round point). loop > 1 adds the small self-intersecting inner loop of the
    limacon family; the loop contracts to a cusp in finite time while the
    outer curve survives, which is the classical fast (Type II) blow-up.

    Odd node counts keep phi = pi between grid nodes, so the loop = 1 cusp
    stays above the metric degeneracy floor.
    """
    if n % 2 == 0:
        raise ConfigError("cardioid needs an odd node count (cusp between nodes)")
    if loop < 1.0:
        raise ConfigError("loop factor must be >= 1 (no blow-up structure below)")
    ch = make_chart(ChartSpec(Domain.CIRCLE, (n,), fd_order=fd_order))
    phi = ch.coords[0]
    r = scale * (1.0 + loop * np.cos(phi))
    return Immersion(ch, np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1))


def sphere(radius: float = 1.0, J: int = 48, K: int = 96, fd_order: int = 4) -> Immersion:
    """Round sphere of dimension 2 in R^3 on the staggered chart."""
    if radius <= 0:
        raise ConfigError("sphere radius must be positive")
    ch = make_chart(ChartSpec(Domain.SPHERE, (J, K), fd_order=fd_order))
    TH, PH = np.meshgrid(*ch.coords, indexing="ij")
    vals = radius * np.stack(
        [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
    )
    return Immersion(ch, vals)


def clifford_torus(r1: float = 1.0, r2: float = 1.0, n1: int = 64, n2: int = 64,
                   fd_order: int = 2) -> Immersion:
    """Product of circles S^1(r1) x S^1(r2) in R^4; with unit radii this is
    minimal in the round 3-sphere of radius sqrt(2) and hence a self-shrinker."""
    if r1 <= 0 or r2 <= 0:
        raise ConfigError("torus radii must be positive")
    ch = make_chart(ChartSpec(Domain.TORUS, (n1, n2), fd_order=fd_order))
    T1, T2 = np.meshgrid(*ch.coords, indexing="ij")
    vals = np.stack(
        [r1 * np.cos(T1), r1 * np.sin(T1), r2 * np.cos(T2), r2 * np.sin(T2)], axis=-1
    )
    return Immersion(ch, vals)


def whitney_sphere(radius: float = 1.0, m: int = 2, J: int = 48, K: int = 96,
                   n: int = 256, fd_order: int = 4) -> Immersion:
    """Lagrangian Whitney immersion of S^m into C^m:

        F(x) = radius (1 + i x^{m+1}) / (1 + (x^{m+1})^2) (x^1, ..., x^m)

    restricted to the unit sphere, with ambient ordering (Re z, Im z). The
    equality case of the Lagrangian pinching inequality: |A|^2 equals
    3/(m+2) |H|^2 pointwise.
    """
    if radius <= 0:
        raise ConfigError("whitney radius must be positive")
    if m == 2:
        ch = make_chart(ChartSpec(Domain.SPHERE, (J, K), fd_order=fd_order))
        TH, PH = np.meshgrid(*ch.coords, indexing="ij")
        x = [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH)]
        s = np.cos(TH)
    elif m == 1:
        ch = make_chart(ChartSpec(Domain.CIRCLE, (n,), fd_order=fd_order))
        th = ch.coords[0]
        x = [np.cos(th)]
        s = np.sin(th)
    else:
        raise ConfigError("whitney sphere implemented for m = 1 and m = 2")
    fac = radius / (1.0 + s**2)
    comps = [fac * xi for xi in x] + [fac * s * xi for xi in x]
    return Immersion(ch, np.stack(comps, axis=-1))


def grim_reaper(delta: float = 0.05, n: int = 512, fd_order: int = 4) -> Immersion:
    """Truncated grim reaper y = -log cos x on x in [-pi/2 + delta, pi/2 - delta].

    A translating soliton with velocity (0, 1). The curve is non-compact;
    the interval chart reflects at the truncation ends, and a node mask
    excludes the contaminated margin from residual norms.
    """
    if not 0 < delta < math.pi / 4:
        raise ConfigError("grim reaper truncation delta must lie in (0, pi/4)")
    a, b = -math.pi / 2 + delta, math.pi / 2 - delta
    ch = make_chart(ChartSpec(Domain.INTERVAL, (n,), fd_order=fd_order,
                              interval_bounds=(a, b)))
    x = ch.coords[0]
    vals = np.stack([x, -np.log(np.cos(x))], axis=-1)
    affine = (np.array([[1.0], [0.0]]), np.zeros(2))  # x-part is exactly affine
    mask = np.ones(n, dtype=bool)
    margin = max(ch.spec.fd_order, n // 16)
    mask[:margin] = False
    mask[-margin:] = False
    return Immersion(ch, vals, affine=affine, norm_mask=mask)


def flat_torus_graph(m: int = 2, n_per_axis: int = 32, k: int = 1,
                     fd_order: int = 2) -> Immersion:
    """Graph of the zero map over the flat torus: the product of unit
    circles in R^{2m} with k constant extra coordinates. Intrinsically flat
    with |A|^2 = m; the m = 2, k = 0 geometry coincides with the Clifford
    torus."""
    ch = make_chart(ChartSpec(Domain.TORUS, (n_per_axis,) * m, fd_order=fd_order))
    f = GridField(ch, np.zeros(ch.shape + (k,)))
    return graph_immersion(f)


def planar_graph(n: int = 64, amplitude: float = 0.0, fd_order: int = 2) -> Immersion:
    """Periodic graph (cos x, sin x, amplitude sin x) in R^3; with zero
    amplitude this is a planar unit circle sitting in R^3."""
    ch = make_chart(ChartSpec(Domain.CIRCLE, (n,), fd_order=fd_order))
    f = GridField(ch, amplitude * np.sin(ch.coords[0])[:, None])
    return graph_immersion(f)


_CONSTRUCTORS = {
    "circle": circle,
    "ellipse": ellipse,
    "cardioid": cardioid,
    "sphere": sphere,
    "clifford_torus": clifford_torus,
    "whitney": whitney_sphere,
    "grim_reaper": grim_reaper,
    "flat_torus_graph": flat_torus_graph,
    "planar_graph": planar_graph,
}


def catalog_names() -> list[str]:
    return sorted(_CONSTRUCTORS)


def make_example(name: str, **params) -> Immersion:
    """Build a named catalog immersion. A whole-number float given for an int
    parameter becomes that int; unknown names, non-finite numbers, fractional
    counts and other invalid parameters raise a configuration error."""
    try:
        ctor = _CONSTRUCTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown catalog example {name!r}; known: {', '.join(catalog_names())}"
        ) from None
    for key, value in params.items():
        whole = ctor.__annotations__.get(key) == "int"
        if isinstance(value, float) and not (value.is_integer() if whole else math.isfinite(value)):
            raise ConfigError(f"catalog parameter {key} of {name!r} must be "
                              f"{'a whole number' if whole else 'finite'}, got {value}")
        if whole and isinstance(value, float):
            params[key] = int(value)
    try:
        return ctor(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for catalog example {name!r}: {exc}") from None

