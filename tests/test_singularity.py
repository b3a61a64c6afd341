"""Gaussian-density monotonicity, rescaling procedures, blow-up
classification, soliton residuals, and the example catalog."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from codimflow import catalog, cli
from codimflow.errors import ConfigError, UsageError
from codimflow.flow import (
    FlowConfig, FlowState, FlowTrace, Integrator, Termination, TraceRecord,
    estimate_singular_time, run,
)
from codimflow.geometry import build_bundle
from codimflow.grid import ChartSpec, Domain, GridField, make_chart
from codimflow.lagrangian import Potential, lag_immersion
from codimflow.singularity import (
    BlowupClass, DensityParams, SolitonKind, classify_blowup,
    hamilton_rescale, huisken_functional, monotone_verdict, monotonicity_check,
    monotonicity_defect, soliton_residual, type1_rescale,
)

CIRCLE_DENSITY = math.sqrt(2 * math.pi) * math.exp(-0.5)  # closed form at r=1, t0-t=1/2


@pytest.fixture(scope="module")
def circle_trace():
    cfg = FlowConfig(cfl_sigma=0.5, record_every=25, snapshot_every=4,
                     stop_t_max=0.45)
    return run(catalog.circle(radius=1.0, n=256), cfg,
               huisken_params=DensityParams(q=np.zeros(2), t0=0.5))


class TestHuiskenFunctional:
    def test_unit_circle_closed_form(self):
        st = FlowState.initial(catalog.circle(radius=1.0, n=256))
        v = huisken_functional(st, DensityParams(q=np.zeros(2), t0=0.5))
        assert v == pytest.approx(CIRCLE_DENSITY, abs=1e-3)

    def test_constant_along_shrinking_circle(self, circle_trace):
        trace, _ = circle_trace
        vals = [r.huisken for r in trace.records if r.huisken is not None]
        assert max(vals) - min(vals) < 1e-3
        assert vals[0] == pytest.approx(CIRCLE_DENSITY, abs=1e-3)

    def test_kernel_decay(self):
        st = FlowState.initial(catalog.circle(radius=1.0, n=64))
        # closed form: 2 pi (4 pi tau)^{-1/2} e^{-1/(4 tau)} ~ sqrt(pi/tau)
        v6 = huisken_functional(st, DensityParams(q=np.zeros(2), t0=1e6))
        v8 = huisken_functional(st, DensityParams(q=np.zeros(2), t0=1e8))
        # closed form up to the discrete-length factor sin(h)/h = 1 - 1.6e-3
        assert v6 == pytest.approx(math.sqrt(math.pi / 1e6), rel=3e-3)
        assert v8 < 1e-3
        assert v6 / v8 == pytest.approx(10.0, rel=1e-3)  # tau^{-1/2} scaling

    def test_rejects_past_reference_time(self):
        st = FlowState.initial(catalog.circle(n=64))
        with pytest.raises(UsageError):
            huisken_functional(
                FlowState(t=1.0, imm=st.imm, bundle=st.bundle),
                DensityParams(q=np.zeros(2), t0=0.5),
            )

    def test_parabolic_scaling_covariance(self):
        # F -> lam F, t0 - t -> lam^2 (t0 - t), q -> lam q leaves the value
        # invariant to rounding
        imm = catalog.ellipse(a=1.0, b=0.7, n=128)
        st = FlowState.initial(imm)
        q = np.array([0.1, -0.2])
        base = huisken_functional(st, DensityParams(q=q, t0=0.8))
        lam = 1.7
        imm2 = catalog.ellipse(a=1.0, b=0.7, n=128)
        imm2 = imm2.transformed(lam * np.eye(2))
        st2 = FlowState.initial(imm2)
        scaled = huisken_functional(st2, DensityParams(q=lam * q, t0=lam**2 * 0.8))
        assert scaled == pytest.approx(base, rel=1e-10)


class TestMonotonicity:
    def test_centered_circle_constant(self, circle_trace):
        trace, _ = circle_trace
        chk = monotonicity_check(trace, DensityParams(q=np.zeros(2), t0=0.5))
        assert chk.is_nonincreasing
        assert np.abs(chk.values - chk.values[0]).max() < 1e-3

    def test_off_center_strictly_decreasing(self, circle_trace):
        trace, _ = circle_trace
        chk = monotonicity_check(trace, DensityParams(q=np.array([0.3, 0.0]), t0=0.5))
        assert chk.is_nonincreasing
        assert np.all(np.diff(chk.values) < 0)
        assert np.all(chk.defects > 0)

    def test_rate_matches_defect_integral(self, circle_trace):
        # d/dt of the functional equals minus the defect integral
        trace, _ = circle_trace
        chk = monotonicity_check(trace, DensityParams(q=np.array([0.3, 0.0]), t0=0.5))
        mid_rate = (chk.values[2:] - chk.values[:-2]) / (chk.times[2:] - chk.times[:-2])
        assert np.abs(mid_rate + chk.defects[1:-1]).max() < 2e-2 * chk.defects.max()

    def test_stationary_graph_decreasing(self):
        # stationary flat line with the density centered off the line: the
        # defect |F^perp/(2 tau)|^2 is positive and the value decays like
        # exp(-d^2 / (4 tau)). The reference time keeps the kernel well
        # inside one periodic window of the chart, where the window integral
        # agrees with the complete-line one to exponential accuracy.
        from codimflow.grid import ChartSpec, Domain, GridField, make_chart
        from codimflow.lagrangian import Potential, lag_immersion

        ch = make_chart(ChartSpec(Domain.TORUS, (64,), fd_order=2))
        imm = lag_immersion(Potential(np.zeros((1, 1)),
                                      GridField(ch, np.zeros((64, 1)))))
        assert imm.n == 2
        cfg = FlowConfig(stop_t_max=0.08, fixed_dt=0.01, record_every=1,
                         snapshot_every=1)
        trace, _ = run(imm, cfg)
        params = DensityParams(q=np.array([np.pi, 0.3]), t0=0.12)
        chk = monotonicity_check(trace, params)
        assert np.all(np.diff(chk.values) < 0)
        assert np.all(chk.defects > 0)
        taus = 0.12 - chk.times
        expect = np.exp(-0.09 / (4 * taus))
        assert np.abs(chk.values - expect).max() < 2e-3


    def test_verdict_needs_three_values(self):
        with pytest.raises(UsageError, match="needs at least 3 values before t0, got 2"):
            monotone_verdict([1.0, 0.9])

class TestType1Rescale:
    def test_shrinking_circle_rescales_to_unit(self, circle_trace):
        trace, _ = circle_trace
        rec = [r for r in trace.records if r.snapshot is not None and r.t > 0.35][-1]
        st = FlowState(t=rec.t, imm=rec.snapshot, bundle=build_bundle(rec.snapshot))
        resc, s = type1_rescale(st, np.zeros(2), 0.5)
        radius = np.sqrt((resc.values**2).sum(-1))
        assert np.abs(radius - 1.0).max() < 1e-3
        assert s == pytest.approx(-0.5 * math.log(0.5 - rec.t))

    def test_scale_factor_formula(self):
        st = FlowState.initial(catalog.circle(radius=1.0, n=64))
        st = FlowState(t=0.5 - 1e-12, imm=st.imm, bundle=st.bundle)
        _, s = type1_rescale(st, np.zeros(2), 0.5)
        assert s == pytest.approx(-0.5 * math.log(1e-12), rel=1e-6)

    def test_rescaled_shrinker_residual_shrinks(self, circle_trace):
        # flowing then rescaling returns to the shrinker: residual stays small
        trace, _ = circle_trace
        rec = [r for r in trace.records if r.snapshot is not None and r.t > 0.3][0]
        st = FlowState(t=rec.t, imm=rec.snapshot, bundle=build_bundle(rec.snapshot))
        resc, _ = type1_rescale(st, np.zeros(2), 0.5)
        rep = soliton_residual(resc, SolitonKind.SHRINKER)
        assert rep.linf < 5e-3

    def test_requires_future_T(self):
        st = FlowState.initial(catalog.circle(n=64))
        with pytest.raises(UsageError):
            type1_rescale(FlowState(t=1.0, imm=st.imm, bundle=st.bundle),
                          np.zeros(2), 0.5)


class TestRescaleAffine:
    """Both rescalings scale a graph's periodic part by their factor: the
    centre only moves the affine offset."""

    @pytest.fixture(scope="class")
    def graph(self):
        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        x, y = ch.mesh()
        phi = 0.1 * np.sin(x) * np.cos(y)
        return lag_immersion(Potential(np.diag([0.5, 0.8]), GridField(ch, phi[..., None])))

    def test_type1(self, graph):
        st = FlowState(t=0.1, imm=graph, bundle=build_bundle(graph))
        resc, _ = type1_rescale(st, np.array([0.3, -0.2, 0.1, 0.5]), 0.5)
        lam = 0.8 ** -0.5
        assert np.abs(resc.periodic_values() - lam * graph.periodic_values()).max() < 1e-12

    def test_hamilton(self, graph):
        trace = FlowTrace(termination=Termination.CURVATURE_CAP)
        trace.records = [
            TraceRecord(t=t, dt=0.0, max_A2=a, max_A2_trusted=a, max_H2=a, volume=1.0,
                        min_detg=1.0, argmax_node=3, snapshot=graph)
            for t, a in ((0.0, 1.0), (0.1, 4.0), (0.2, 9.0))
        ]
        ham = hamilton_rescale(trace, 1.0, 2)
        assert ham.L_k == 3.0 and len(ham.rescaled) == 3
        for _, imm in ham.rescaled:
            assert np.abs(imm.periodic_values() - 3.0 * graph.periodic_values()).max() < 1e-12


def sphere_chart_trace(T=0.25, n_records=150):
    """Records of a unit sphere shrinking on the 48x96 chart toward T = 1/4,
    every record 3.2% closer to T. The trusted maximum follows the round
    value 2/r^2 = 1/(2(T - t)); the full maximum, set on a pole ring, outgrows
    it by up to 10x over the last decade of T - t, as the pole rings do in
    the semi-implicit sphere fixture."""
    gaps = T * 0.968 ** np.arange(n_records)
    trusted = 1.0 / (2.0 * gaps)
    full = trusted * np.maximum(1.0, 10.0 * gaps[-1] / gaps)
    trace = FlowTrace(termination=Termination.CURVATURE_CAP)
    trace.records = [
        TraceRecord(t=T - g, dt=0.0, max_A2=f, max_A2_trusted=a, max_H2=2.0 * a,
                    volume=16.0 * math.pi * g, min_detg=0.0, argmax_node=0,
                    step_index=2 * i)
        for i, (g, a, f) in enumerate(zip(gaps, trusted, full))
    ]
    return trace


class TestClassify:
    def test_sphere_chart_fits_trusted_maximum(self):
        trace = sphere_chart_trace()
        est = estimate_singular_time(trace)
        assert est.reliable and est.t_hat == pytest.approx(0.25, rel=1e-9)
        rep = classify_blowup(trace)
        assert rep.classification is BlowupClass.TYPE_I
        assert rep.c_hat == pytest.approx(0.5, rel=1e-6)
        assert rep.lower_rate == pytest.approx(0.5, rel=1e-6)
        # the same records read through the full maximum grow like Type II
        full = FlowTrace(termination=trace.termination)
        full.records = [replace(r, max_A2_trusted=r.max_A2) for r in trace.records]
        assert classify_blowup(full, t_hat=0.25).classification is BlowupClass.TYPE_II
        assert classify_blowup(full).classification is not BlowupClass.TYPE_I

    def test_circle_type1(self, circle_trace):
        cfg = FlowConfig(cfl_sigma=0.5, record_every=50)
        trace, _ = run(catalog.circle(radius=1.0, n=256), cfg)
        rep = classify_blowup(trace)
        assert rep.classification is BlowupClass.TYPE_I
        assert rep.c_hat == pytest.approx(0.5, abs=0.05)
        assert rep.lower_rate >= 0.1

    @staticmethod
    def power_law_trace(ratio, n, p):
        """n records toward T = 1 with gaps ratio^k and max|A|^2 = gap^-p."""
        gaps = ratio ** np.arange(n)
        trace = FlowTrace(termination=Termination.CURVATURE_CAP)
        trace.records = [
            TraceRecord(t=1.0 - g, dt=0.0, max_A2=a, max_A2_trusted=a, max_H2=a,
                        volume=1.0, min_detg=1.0, argmax_node=0)
            for g, a in zip(gaps, gaps ** -p)
        ]
        return trace

    def test_no_type1_from_a_single_record(self):
        # y = max|A|^2 (T - t) grows like gap^-0.6: the window of the refitted
        # T_hat holds fewer than 5 records, whose y shows no growth
        rep = classify_blowup(self.power_law_trace(0.7, 12, 1.6))
        assert rep.classification is BlowupClass.INCONCLUSIVE
        assert "fewer than 5 records" in rep.detail

    def test_refit_window_widens_to_100x(self):
        # within 10x of the smallest gap lie 4 halving gaps, too few; 100x
        # holds 7, before and after the refit
        rep = classify_blowup(self.power_law_trace(0.5, 30, 1.0))
        assert rep.detail == "window of 7 records"
        assert rep.classification is BlowupClass.TYPE_I

    def test_every_classification_reads_at_least_5_records(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            trace = self.power_law_trace(rng.uniform(0.5, 0.95), int(rng.integers(12, 40)),
                                         rng.uniform(0.5, 2.5))
            for t_hat in (None, 1.0):
                rep = classify_blowup(trace, t_hat=t_hat)
                if rep.detail.startswith("window of"):
                    assert int(rep.detail.split()[2]) >= 5
                else:
                    assert rep.classification is BlowupClass.INCONCLUSIVE

    def test_given_estimate_classifies_as_the_internal_fit(self):
        # the estimate is refitted over the window as the internal one is,
        # so the report is repr-equal; an unreliable one stays inconclusive
        rng = np.random.default_rng(1)
        traces = [sphere_chart_trace()] + [
            self.power_law_trace(rng.uniform(0.5, 0.95), int(rng.integers(12, 40)),
                                 rng.uniform(0.5, 2.5)) for _ in range(50)]
        for trace in traces:
            est = estimate_singular_time(trace)
            assert repr(classify_blowup(trace, est=est)) == repr(classify_blowup(trace))
        est = replace(estimate_singular_time(traces[0]), reliable=False, detail="stub")
        rep = classify_blowup(traces[0], est=est)
        assert rep.classification is BlowupClass.INCONCLUSIVE and rep.detail.endswith("stub")

    def test_time_reached_is_inconclusive(self, circle_trace):
        trace, _ = circle_trace  # stopped at t = 0.45, no singularity signal
        rep = classify_blowup(trace)
        assert rep.classification is BlowupClass.INCONCLUSIVE


class TestHamilton:
    # a 64-node circle run to the curvature cap, recorded every 25 steps with
    # a snapshot every 2 records: for k = 50, T_hat - 1/k lies before the
    # second snapshot, so the Hamilton record is the first one, at t = 0
    def test_alpha_is_positive_zero_at_the_first_record(self):
        trace, _ = run(catalog.circle(radius=1.0, n=64),
                       FlowConfig(record_every=25, snapshot_every=2))
        ham = hamilton_rescale(trace, estimate_singular_time(trace).t_hat, k=50)
        assert ham.record_index == 0 and ham.t_k == 0.0
        assert ham.alpha_k == 0.0 and math.copysign(1.0, ham.alpha_k) == 1.0

    def test_alpha_printed_without_a_sign_at_the_first_record(self, tmp_path, capsys):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                        "flow.record_every = 25\nflow.snapshot_every = 2\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["rescale", str(cfgp), "--mode", "type2", "--k", "50"]) == 2
        line, = [s for s in capsys.readouterr().out.splitlines() if "type2 rescale" in s]
        assert " alpha_k=0 " in line, line

    def test_normalization_and_range(self, circle_trace):
        trace, _ = circle_trace
        ham = hamilton_rescale(trace, 0.5, k=10)
        tau0, imm0 = min(ham.rescaled, key=lambda p: abs(p[0]))
        b = build_bundle(imm0)
        assert math.sqrt(b.normA2[ham.node]) == pytest.approx(1.0, abs=1e-6)
        assert ham.omega_k >= 0.0
        assert all(ham.alpha_k - 1e-9 <= tau <= ham.omega_k + 1e-9
                   for tau, _ in ham.rescaled)

    def test_selection_maximality(self, circle_trace):
        # rescaled curvature over stored snapshots stays <= 1 + tol for tau <= 0
        trace, _ = circle_trace
        ham = hamilton_rescale(trace, 0.5, k=100)
        for tau, imm in ham.rescaled:
            if tau <= 1e-12:
                b = build_bundle(imm)
                assert math.sqrt(b.normA2.max()) <= 1.0 + 1e-3

    def test_k_below_one_rejected(self, circle_trace):
        trace, _ = circle_trace
        with pytest.raises(UsageError, match="k must be a positive integer"):
            hamilton_rescale(trace, 0.5, k=0)

    def test_k_beyond_records_rejected(self, circle_trace):
        trace, _ = circle_trace
        with pytest.raises(UsageError):
            # T_hat - 1/k lies before every stored record
            hamilton_rescale(trace, 0.5, k=1)


class TestSolitonResiduals:
    def test_unit_circle_shrinker(self):
        rep = soliton_residual(catalog.circle(radius=1.0, n=256), SolitonKind.SHRINKER)
        assert rep.linf < 1e-3

    def test_sphere_sqrt2_shrinker(self):
        rep = soliton_residual(catalog.sphere(radius=math.sqrt(2.0)), SolitonKind.SHRINKER)
        assert rep.linf < 1e-2

    def test_clifford_shrinker(self):
        rep = soliton_residual(catalog.clifford_torus(n1=64, n2=64), SolitonKind.SHRINKER)
        assert rep.linf < 1e-2

    def test_unit_sphere_not_a_shrinker(self):
        rep = soliton_residual(catalog.sphere(radius=1.0), SolitonKind.SHRINKER)
        assert rep.linf == pytest.approx(1.0, abs=1e-3)  # |H + F| = |2 - 1|

    def test_expander_residual(self):
        # the unit circle has H - F^perp = -2 F: residual 2 everywhere
        rep = soliton_residual(catalog.circle(radius=1.0, n=128), SolitonKind.EXPANDER)
        assert rep.linf == pytest.approx(2.0, abs=1e-3)
        assert rep.l2 == pytest.approx(2.0, abs=1e-3)

    def test_circle_translator_closed_form(self):
        # |-F - V^perp| peaks at 2 at the top point theta = pi/2
        rep = soliton_residual(catalog.circle(radius=1.0, n=256),
                               SolitonKind.TRANSLATOR, V=np.array([0.0, 1.0]))
        assert rep.linf == pytest.approx(2.0, abs=1e-2)
        assert rep.worst_node == (64,)  # theta = pi/2 at n = 256

    def test_grim_reaper_translator(self):
        rep = soliton_residual(catalog.grim_reaper(delta=0.05, n=512),
                               SolitonKind.TRANSLATOR, V=np.array([0.0, 1.0]))
        assert rep.linf < 1e-3

    def test_translator_requires_V(self):
        with pytest.raises(UsageError):
            soliton_residual(catalog.circle(n=64), SolitonKind.TRANSLATOR)

    def test_residual_convergence_order(self):
        # soliton residuals on analytic members drop at order >= 1.8
        pairs = [
            (catalog.circle(radius=1.0, n=128), catalog.circle(radius=1.0, n=256),
             SolitonKind.SHRINKER, None),
            (catalog.grim_reaper(delta=0.05, n=256), catalog.grim_reaper(delta=0.05, n=512),
             SolitonKind.TRANSLATOR, np.array([0.0, 1.0])),
        ]
        for coarse, fine, kind, V in pairs:
            rc = soliton_residual(coarse, kind, V=V)
            rf = soliton_residual(fine, kind, V=V)
            assert math.log2(rc.linf / rf.linf) >= 1.8

    def test_sphere_shrinker_l2_convergence(self):
        rc = soliton_residual(catalog.sphere(radius=math.sqrt(2), J=24, K=48),
                              SolitonKind.SHRINKER)
        rf = soliton_residual(catalog.sphere(radius=math.sqrt(2), J=48, K=96),
                              SolitonKind.SHRINKER)
        assert math.log2(rc.l2 / rf.l2) >= 1.8


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            catalog.make_example("klein_bottle")

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            catalog.make_example("circle", radius=-1.0)
        with pytest.raises(ConfigError):
            catalog.make_example("circle", bogus=3)

    @pytest.mark.parametrize("name, params, message", [
        ("circle", {"ambient_dim": 1}, "circle needs ambient dimension >= 2"),
        ("ellipse", {"b": 0.0}, "ellipse semi-axes must be positive"),
        ("cardioid", {"loop": 0.5}, "loop factor must be >= 1"),
        ("sphere", {"radius": -1.0}, "sphere radius must be positive"),
        ("clifford_torus", {"r2": 0.0}, "torus radii must be positive"),
        ("whitney", {"radius": 0.0}, "whitney radius must be positive"),
        ("whitney", {"m": 3}, "whitney sphere implemented for m = 1 and m = 2"),
        ("grim_reaper", {"delta": 1.0}, "grim reaper truncation delta must lie in (0, pi/4)"),
    ])
    def test_parameter_guards(self, name, params, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            catalog.make_example(name, **params)

    @pytest.mark.parametrize("name, key, value", [
        ("circle", "n", 128), ("flat_torus_graph", "m", 2), ("grim_reaper", "n", 64),
    ])
    def test_whole_number_float_parameters(self, name, key, value):
        # a count written as a whole-number float builds the same immersion
        a = catalog.make_example(name, **{key: value})
        b = catalog.make_example(name, **{key: float(value)})
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.norm_mask, b.norm_mask)
        with pytest.raises(ConfigError,
                           match=rf"parameter {key} of '{name}' must be a whole number, "
                                 rf"got {value}\.5"):
            catalog.make_example(name, **{key: value + 0.5})

    def test_whitney_pinching(self):
        imm = catalog.whitney_sphere(radius=1.0, m=2)
        b = build_bundle(imm)
        ratio = b.normA2 / b.normH2
        assert np.abs(ratio - 0.75).max() < 1e-2

    def test_whitney_m1(self):
        imm = catalog.whitney_sphere(radius=1.0, m=1, n=256)
        assert imm.n == 2 and imm.m == 1
        build_bundle(imm)  # valid immersion

    def test_sphere_sqrt_m_shrinker(self):
        rep = soliton_residual(catalog.sphere(radius=math.sqrt(2.0)), SolitonKind.SHRINKER)
        assert rep.linf < 1e-2

    def test_cardioid_literal_is_valid_immersion(self):
        imm = catalog.cardioid(n=129, loop=1.0)
        b = build_bundle(imm)
        assert b.normA2.max() > 100  # near-cusp curvature spike (~ (3 n / 4 pi)^2)

    def test_cardioid_needs_odd_n(self):
        with pytest.raises(ConfigError):
            catalog.cardioid(n=128)
