"""Chart construction, stencil accuracy, quadrature, and exact symmetries."""

import numpy as np
import pytest

from codimflow.errors import ConfigError
from codimflow.geometry import d1_tensor, d2_tensor
from codimflow.grid import (
    _PAD, STENCILS, AxisKind, ChartSpec, Domain, _pad, diff1, diff2, diff_mixed,
    integrate_values, make_chart, neighbor_maps,
)
from conftest import roll_field


def circle_chart(n=64, order=2):
    return make_chart(ChartSpec(Domain.CIRCLE, (n,), fd_order=order))


class TestMakeChart:
    def test_circle_nodes(self):
        ch = circle_chart(8)
        assert np.allclose(ch.coords[0], np.arange(8) * np.pi / 4)
        assert ch.spacings[0] == pytest.approx(np.pi / 4)
        assert ch.axis_kinds[0] is AxisKind.PERIODIC

    def test_sphere_staggered(self):
        ch = make_chart(ChartSpec(Domain.SPHERE, (8, 8)))
        theta = ch.coords[0]
        assert np.allclose(theta, (np.arange(8) + 0.5) * np.pi / 8)
        assert theta.min() > 0 and theta.max() < np.pi  # no pole nodes
        ch4 = make_chart(ChartSpec(Domain.SPHERE, (8, 8)))
        assert np.allclose(
            make_chart(ChartSpec(Domain.SPHERE, (8, 8))).coords[0][:4],
            [np.pi / 16, 3 * np.pi / 16, 5 * np.pi / 16, 7 * np.pi / 16],
        )

    def test_torus_spacings(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 32)))
        assert ch.spacings == pytest.approx((np.pi / 8, np.pi / 16))

    def test_resolution_floor(self):
        with pytest.raises(ConfigError, match="below minimum"):
            ChartSpec(Domain.CIRCLE, (4,))

    def test_sphere_needs_even_longitude(self):
        with pytest.raises(ConfigError):
            ChartSpec(Domain.SPHERE, (8, 9))

    def test_interval_needs_bounds(self):
        with pytest.raises(ConfigError):
            ChartSpec(Domain.INTERVAL, (16,))


class TestPartials:
    def test_sin_first_derivative(self):
        # central difference of sin: error = (1 - sin h / h) cos(theta); the
        # analytic bound at N=64 is h^2/6 = 1.606e-3
        ch = circle_chart(64)
        th = ch.coords[0]
        h = ch.spacings[0]
        d1 = d1_tensor(np.sin(th), ch)
        err = np.abs(d1[:, 0] - np.cos(th)).max()
        assert err < h * h / 6 * 1.01
        assert err == pytest.approx((1 - np.sin(h) / h), rel=1e-10)

    def test_sin_second_derivative(self):
        ch = circle_chart(64)
        th = ch.coords[0]
        d2 = d2_tensor(np.sin(th), ch)
        assert np.abs(d2[:, 0, 0] + np.sin(th)).max() < 3e-3

    def test_constant_field_exact_zero(self):
        ch = circle_chart(32)
        f = np.full((32, 1), 2.75)
        assert np.all(d1_tensor(f, ch) == 0.0)
        assert np.all(d2_tensor(f, ch) == 0.0)

    def test_consistency_order(self):
        # halving h cuts the error by >= 3.5 at fd_order 2
        errs = []
        for n in (64, 128):
            ch = circle_chart(n)
            th = ch.coords[0]
            d1 = d1_tensor(np.exp(np.sin(th)), ch)
            exact = np.cos(th) * np.exp(np.sin(th))
            errs.append(np.abs(d1[:, 0] - exact).max())
        assert errs[0] / errs[1] >= 3.5

    def test_mixed_partials_bit_symmetric(self):
        rng = np.random.default_rng(7)
        for domain, shape, tensor_axes in (
            (Domain.TORUS, (16, 16), ()),
            (Domain.SPHERE, (16, 32), (0,)),   # a pole-odd theta component
        ):
            ch = make_chart(ChartSpec(domain, shape))
            vals = d2_tensor(rng.normal(size=shape + (2,)), ch, tensor_axes)
            assert np.array_equal(vals[..., 0, 1, :], vals[..., 1, 0, :])
            assert np.array_equal(diff_mixed(vals[..., 0, 0, :], 0, 1, ch),
                                  diff_mixed(vals[..., 0, 0, :], 1, 0, ch))

    @pytest.mark.parametrize("domain, shape, tensor_axes, a, b", [
        (Domain.TORUS, (16, 24), (), 0, 1),
        (Domain.SPHERE, (16, 32), (0,), 0, 1),
        (Domain.TORUS, (8, 10, 12), (), 1, 2),
    ])
    def test_mixed_partial_is_one_composition(self, domain, shape, tensor_axes, a, b):
        # d_a d_b f for a < b is the later-axis derivative of the
        # earlier-axis derivative, with the field's parity on both passes
        ch = make_chart(ChartSpec(domain, shape))
        m = len(shape)
        v = np.random.default_rng(5).normal(size=shape + (m,))
        par = np.array([-1.0, 1.0]) if tensor_axes else 1.0  # T_theta, T_phi
        composed = diff1(diff1(v, a, ch, par), b, ch, par)
        out = d2_tensor(v, ch, tensor_axes)
        assert np.array_equal(out[..., a, b, :], composed)
        assert np.array_equal(out[..., b, a, :], composed)

    def test_mixed_partial_of_pole_odd_component_converges(self):
        # T = df for f = sin(theta) cos(theta) cos(phi): the pole-odd
        # component T_theta = cos(2 theta) cos(phi) has the mixed partial
        # d_theta d_phi T_theta = 2 sin(2 theta) sin(phi)
        errs = []
        for J in (32, 64):
            ch = make_chart(ChartSpec(Domain.SPHERE, (J, 2 * J), fd_order=4))
            TH, PH = ch.mesh()
            T = np.stack([np.cos(2 * TH) * np.cos(PH),
                          -np.sin(TH) * np.cos(TH) * np.sin(PH)], axis=-1)
            mixed = d2_tensor(T, ch, tensor_axes=(0,))[..., 0, 1, 0]
            err = np.abs(mixed - 2 * np.sin(2 * TH) * np.sin(PH))
            errs.append(err[2:-2].max())   # away from the pole rings
        assert np.log2(errs[0] / errs[1]) >= 3.5

    def test_shift_equivariance_bit_exact(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 24)))
        rng = np.random.default_rng(3)
        v = rng.normal(size=(16, 24))
        for axis, shift in ((0, 5), (1, 11)):
            a = diff1(roll_field(v, axis, shift), axis, ch)
            b = roll_field(diff1(v, axis, ch), axis, shift)
            assert np.array_equal(a, b)
            a2 = diff2(roll_field(v, axis, shift), axis, ch)
            b2 = roll_field(diff2(v, axis, ch), axis, shift)
            assert np.array_equal(a2, b2)

    def test_sphere_pole_crossing_scalar(self):
        # a smooth sphere function differentiates cleanly through the poles
        ch = make_chart(ChartSpec(Domain.SPHERE, (32, 64), fd_order=4))
        TH, PH = np.meshgrid(*ch.coords, indexing="ij")
        f = np.sin(TH) * np.cos(PH)  # = x-coordinate, analytic on the sphere
        d = diff1(f, 0, ch)
        assert np.abs(d - np.cos(TH) * np.cos(PH)).max() < 1e-5

    def test_fourth_order_is_more_accurate(self):
        th2 = circle_chart(64, order=2)
        th4 = circle_chart(64, order=4)
        e2 = np.abs(d1_tensor(np.sin(th2.coords[0]), th2)[:, 0] - np.cos(th2.coords[0])).max()
        e4 = np.abs(d1_tensor(np.sin(th4.coords[0]), th4)[:, 0] - np.cos(th4.coords[0])).max()
        assert e4 < e2 / 50


class TestStencilDefinition:
    """The one stencil table and the one ghost rule, pinned from outside."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_first_derivative_moments(self, order):
        weights, den = STENCILS[order, 1]
        moment = lambda k: sum(w * o**k for o, w in weights)
        assert moment(0) == 0
        assert moment(1) == den
        assert [moment(k) for k in range(2, order + 1)] == [0] * (order - 1)

    @pytest.mark.parametrize("order", [2, 4])
    def test_second_derivative_moments(self, order):
        weights, den = STENCILS[order, 2]
        moment = lambda k: sum(w * o**k for o, w in weights)
        assert moment(2) == 2 * den
        assert [moment(k) for k in (0, 1, *range(3, order + 2))] == [0] * (order + 1)

    def test_table_covers_every_order(self):
        assert set(STENCILS) == {(o, k) for o in (2, 4) for k in (1, 2)}

    def test_every_row_starts_with_unit_weight(self):
        # diff1/diff2 take the first slice unscaled
        assert all(abs(weights[0][1]) == 1 for weights, _ in STENCILS.values())

    def test_sphere_pole_ghosts(self):
        ch = make_chart(ChartSpec(Domain.SPHERE, (8, 8)))
        maps = {o: v.reshape(8, 8) for o, v in neighbor_maps(ch, 0).items()}
        k = np.arange(8)
        half = (k + 4) % 8
        assert np.array_equal(maps[-1][0], 0 * 8 + half)
        assert np.array_equal(maps[-2][0], 1 * 8 + half)
        assert np.array_equal(maps[1][7], 7 * 8 + half)
        assert np.array_equal(maps[2][7], 6 * 8 + half)
        assert np.array_equal(maps[1][3], 4 * 8 + k)  # interior: plain shift
        assert np.array_equal(maps[0].ravel(), np.arange(64))

    def test_interval_reflect_ghosts(self):
        ch = make_chart(ChartSpec(Domain.INTERVAL, (16,), interval_bounds=(0.0, 1.0)))
        maps = neighbor_maps(ch, 0)
        assert (maps[-1][0], maps[-2][0], maps[-2][1]) == (0, 1, 0)
        assert (maps[1][15], maps[2][15], maps[2][14]) == (15, 14, 15)
        assert np.array_equal(maps[1][:15], np.arange(1, 16))

    def test_periodic_wrap(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (8, 10)))
        nodes = np.arange(80).reshape(8, 10)
        for axis in (0, 1):
            for o, v in neighbor_maps(ch, axis).items():
                assert np.array_equal(v, np.roll(nodes, -o, axis=axis).ravel())
        sphere = make_chart(ChartSpec(Domain.SPHERE, (8, 8)))
        assert neighbor_maps(sphere, 1)[1].reshape(8, 8)[2, 7] == 2 * 8 + 0
        assert neighbor_maps(sphere, 1)[-2].reshape(8, 8)[5, 1] == 5 * 8 + 7


def moveaxis_pad(values, axis, chart, parity):
    """_pad's ghost rule written with a moveaxis round trip: the reference."""
    v = np.moveaxis(values, axis, 0)
    kind = chart.axis_kinds[axis]
    if kind is AxisKind.PERIODIC:
        ext = np.concatenate([v[-_PAD:], v, v[:_PAD]], axis=0)
    elif kind is AxisKind.POLE:
        K = chart.shape[1]
        top = np.roll(v[_PAD - 1 :: -1], K // 2, axis=1)
        bot = np.roll(v[: -_PAD - 1 : -1], K // 2, axis=1)
        ext = np.concatenate([parity * top, v, parity * bot], axis=0)
    else:
        ext = np.concatenate([v[_PAD - 1 :: -1], v, v[: -_PAD - 1 : -1]], axis=0)
    return np.moveaxis(ext, 0, axis)


PAD_CASES = [
    (ChartSpec(Domain.TORUS, (8, 10, 12)), axis) for axis in (0, 1, 2)
] + [
    (ChartSpec(Domain.SPHERE, (8, 12)), axis) for axis in (0, 1)
] + [(ChartSpec(Domain.INTERVAL, (16,), interval_bounds=(0.0, 1.0)), 0)]


class TestGhostLayout:
    """Ghosts are padded along their own axis, and stencils keep C order."""

    @pytest.mark.parametrize("spec, axis", PAD_CASES)
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 2, 4)])
    def test_pad_matches_moveaxis_reference(self, spec, axis, trailing):
        ch = make_chart(spec)
        rng = np.random.default_rng(axis + len(trailing))
        v = rng.standard_normal(ch.shape + trailing)
        parities = [1.0, -1.0]
        if trailing:   # per-component parity, as tensor fields on a sphere
            parities.append(rng.choice([-1.0, 1.0], size=trailing))
        for parity in parities:
            ext = _pad(v, axis, ch, parity)
            assert ext.flags.c_contiguous
            assert np.array_equal(ext, moveaxis_pad(v, axis, ch, parity))

    @pytest.mark.parametrize("spec, axis", PAD_CASES)
    @pytest.mark.parametrize("order", [2, 4])
    def test_stencils_return_c_contiguous(self, spec, axis, order):
        spec = ChartSpec(spec.domain, spec.resolution, fd_order=order,
                         interval_bounds=spec.interval_bounds)
        ch = make_chart(spec)
        v = np.random.default_rng(order).standard_normal(ch.shape + (3,))
        for diff in (diff1, diff2):
            assert diff(v, axis, ch).flags.c_contiguous


class TestIntegrate:
    def test_unit_circle_length(self):
        ch = circle_chart(32)
        one = np.ones(32)
        assert integrate_values(one, one, ch) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_sphere_area(self):
        ch = make_chart(ChartSpec(Domain.SPHERE, (48, 96)))
        area = integrate_values(np.ones(ch.shape), np.sin(ch.mesh()[0]), ch)
        assert abs(area - 4 * np.pi) / (4 * np.pi) < 1e-3

    def test_zero_scalar(self):
        ch = circle_chart(16)
        assert integrate_values(np.zeros(16), np.ones(16), ch) == 0.0

    def test_chart_mismatch(self):
        # fields sampled on different charts do not broadcast
        with pytest.raises(ValueError):
            integrate_values(np.ones(16), np.ones(32), circle_chart(16))

    def test_periodic_constant_exact(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        one = np.ones(ch.shape)
        assert integrate_values(one, one, ch) == pytest.approx(4 * np.pi**2, rel=1e-15)
