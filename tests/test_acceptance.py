"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The expensive flows (circle extinction, two-phase
sphere extinction, the potential flows) are session fixtures shared by the
criteria that consume them.

Criterion 11 checks the potential-flow Hessian and mean curvature against
1e-3 at t = 10. The horizon comes from the flow's own slowest decay mode:
the cos x2 component of the potential decays at rate 1/(1 + 0.8^2) = 1/1.64,
so its bound 0.1 exp(-t/1.64) falls below 1e-3 only once t > 1.64 ln 100
= 7.6, and at t = 10 it is 2.2e-4. At t = 5 it is still 4.7e-3, so no
correct flow meets the 1e-3 thresholds there.
"""

import math
import time

import numpy as np
import pytest

from codimflow import catalog
from codimflow.flow import (
    FlowConfig, FlowState, Integrator, Termination, estimate_singular_time,
    evolution_residuals, run, step_explicit,
)
from codimflow.geometry import Immersion, build_bundle, structure_residuals
from codimflow.grid import ChartSpec, Domain, GridField, make_chart
from codimflow.lagrangian import (
    Potential, PotentialFlowConfig, lag_immersion, lagrangian_angle,
    lagrangian_residual, ma_run, mean_curvature_form, pinching_gap,
)
from codimflow.singularity import (
    BlowupClass, DensityParams, SolitonKind, classify_blowup,
    monotonicity_check, soliton_residual, type1_rescale,
)
from codimflow.snapshots import (
    read_checkpoint, resume_run, write_checkpoint,
)
from conftest import roll_field

ROUNDING_FLOOR = 1e-6  # residuals below this at both resolutions are at
                       # rounding level and cannot exhibit a convergence order


def report(num: int, name: str, checks):
    """Print one PASS/FAIL line for a criterion and assert its checks."""
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}")
    for label, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    assert not failed, f"criterion {num} failed: {failed}"


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def circle_run():
    """Unit circle, N = 256, adaptive dt, run to the curvature cap with the
    Gaussian density recorded at (q, t0) = (0, 1/2)."""
    t0 = time.time()
    cfg = FlowConfig(cfl_sigma=0.5, record_every=25, snapshot_every=8)
    trace, final = run(catalog.circle(radius=1.0, n=256), cfg,
                       huisken_params=DensityParams(q=np.zeros(2), t0=0.5))
    return trace, final, time.time() - t0


@pytest.fixture(scope="session")
def sphere_run():
    """Unit 2-sphere on the 48x96 staggered chart, semi-implicit two-phase:
    a fine curvature brake to t = 0.2 for the radius track, then a looser
    brake to the curvature cap for the extinction estimate."""
    t0 = time.time()
    cfgA = FlowConfig(integrator=Integrator.SEMI_IMPLICIT,
                      curvature_cap_rho=0.004, stop_t_max=0.2,
                      record_every=2, snapshot_every=8)
    trA, stA = run(catalog.sphere(radius=1.0, J=48, K=96), cfgA)
    cfgB = FlowConfig(integrator=Integrator.SEMI_IMPLICIT,
                      curvature_cap_rho=0.008, stop_max_A2=1e6,
                      record_every=2, snapshot_every=8)
    trB, stB = resume_run(stA, trA, cfgB)
    return trA, trB, stB, time.time() - t0


@pytest.fixture(scope="session")
def ma_flow_128():
    """Potential flow for the Lagrangian identity suite at 128^2."""
    ch = make_chart(ChartSpec(Domain.TORUS, (128, 128)))
    mesh = ch.mesh()
    phi = 0.1 * (np.sin(mesh[0]) + np.cos(mesh[1]))
    p0 = Potential(np.zeros((2, 2)), GridField(ch, phi[..., None]))
    tr = ma_run(p0, PotentialFlowConfig(stop_t_max=1.0, record_every=50))
    return p0, tr


def circle_radius_series(trace):
    """Radius from the recorded length L = 2 pi r."""
    return np.array([r.volume / (2 * np.pi) for r in trace.records])


def sphere_radius_series(trace):
    """Radius from the recorded area A = 4 pi r^2."""
    return np.array([math.sqrt(r.volume / (4 * np.pi)) for r in trace.records])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_circle_extinction(circle_run):
    trace, final, wall = circle_run
    t = trace.times
    r_num = circle_radius_series(trace)
    sel = t <= 0.45
    err = np.abs(r_num[sel] - np.sqrt(1.0 - 2.0 * t[sel])).max()
    est = estimate_singular_time(trace)
    report(1, "circle extinction: radius sqrt(1-2t), T_hat = 0.5", [
        ("radius error for t <= 0.45", err < 1e-3, f"{err:.2e} < 1e-3"),
        ("T_hat", est.reliable and abs(est.t_hat - 0.5) < 0.01,
         f"{est.t_hat:.5f} = 0.5 +- 0.01"),
        ("terminated at curvature cap",
         trace.termination is Termination.CURVATURE_CAP, trace.termination),
        ("runtime", wall < 30.0, f"{wall:.1f}s < 30s"),
    ])


def test_criterion_2_sphere_extinction(sphere_run):
    trA, trB, stB, wall = sphere_run
    t = trA.times
    r_num = sphere_radius_series(trA)
    sel = t <= 0.2
    err = np.abs(r_num[sel] - np.sqrt(1.0 - 4.0 * t[sel])).max()
    est = estimate_singular_time(trB)
    report(2, "sphere extinction: radius sqrt(1-4t), T_hat = 0.25", [
        ("radius error for t <= 0.2", err < 1e-2, f"{err:.2e} < 1e-2"),
        ("T_hat", est.reliable and abs(est.t_hat - 0.25) < 0.01,
         f"{est.t_hat:.5f} = 0.25 +- 0.01"),
        ("terminated at curvature cap",
         trB.termination is Termination.CURVATURE_CAP, trB.termination),
        ("runtime", wall < 300.0, f"{wall:.1f}s < 5min"),
    ])


def test_criterion_3_evolution_residual_suite():
    def suite(n, dt):
        st = FlowState.initial(catalog.circle(radius=1.0, n=n))
        for _ in range(100):
            st = step_explicit(st, dt)
        s1 = step_explicit(st, dt)
        s2 = step_explicit(s1, dt)
        rep = evolution_residuals(st, s2, mid=s1)
        return {k: v.linf for k, v in rep.as_dict().items()}

    coarse = suite(256, 1e-5)
    fine = suite(512, 2.5e-6)
    checks = []
    for name, val in coarse.items():
        checks.append((f"{name} Linf", val < 1e-2, f"{val:.2e} < 1e-2"))
    for name in coarse:
        c, f = coarse[name], fine[name]
        if c < ROUNDING_FLOOR and f < ROUNDING_FLOOR:
            checks.append((f"{name} refinement", True,
                           f"at rounding level ({c:.1e}, {f:.1e})"))
        else:
            checks.append((f"{name} refinement", c / f >= 3.0,
                           f"factor {c / f:.2f} >= 3 under h/2, dt/4"))
    report(3, "evolution-equation residuals on the shrinking circle", checks)


def test_criterion_4_structure_equation_suite():
    cases = {
        "round sphere": lambda J: catalog.sphere(radius=1.0, J=J, K=2 * J),
        "clifford torus": lambda J: catalog.clifford_torus(n1=J, n2=J, fd_order=4),
        "whitney sphere": lambda J: catalog.whitney_sphere(radius=1.0, m=2, J=J, K=2 * J),
    }
    fine_res = {"round sphere": 48, "clifford torus": 64, "whitney sphere": 48}
    names = ("gauss", "codazzi", "ricci", "simons", "simons2")
    checks = []
    for label, mk in cases.items():
        J = fine_res[label]
        rep_f = structure_residuals(mk(J))
        rep_c = structure_residuals(mk(J // 2))
        for nm in names:
            f, c = getattr(rep_f, nm), getattr(rep_c, nm)
            checks.append((f"{label} {nm}", f.l2_rel < 1e-2,
                           f"relative L2 {f.l2_rel:.2e} < 1e-2"))
            if c.l2 < ROUNDING_FLOOR and f.l2 < ROUNDING_FLOOR:
                checks.append((f"{label} {nm} order", True, "at rounding level"))
            else:
                order = math.log2(c.l2_rel / f.l2_rel)
                checks.append((f"{label} {nm} order", order >= 1.8,
                               f"{order:.2f} >= 1.8"))
    report(4, "structure-equation residuals and convergence", checks)


def test_criterion_5_monotonicity(circle_run):
    trace, _, _ = circle_run
    # the centered value is a constant of the exact flow; the comparison
    # range t <= 0.45 keeps the kernel scale away from the terminal phase
    # where (t0 - t) -> 0 amplifies any numerical radius deviation
    vals = np.array([r.huisken for r in trace.records
                     if r.huisken is not None and r.t <= 0.45])
    target = math.sqrt(2 * math.pi) * math.exp(-0.5)
    centered_drift = np.abs(vals - target).max()
    chk = monotonicity_check(trace, DensityParams(q=np.array([0.3, 0.0]), t0=0.5))
    strictly = bool(np.all(np.diff(chk.values) < 0))
    report(5, "Gaussian-density monotonicity along the circle flow", [
        ("centered value constant at sqrt(2 pi) e^{-1/2}",
         centered_drift < 1e-3, f"max drift {centered_drift:.2e} < 1e-3"),
        ("off-center strictly decreasing", strictly,
         f"{len(chk.values)} snapshots, max jump {chk.max_positive_jump:.2e}"),
    ])


def test_criterion_6_soliton_residuals():
    checks = []
    # thresholds at the stated resolutions
    r_circle = soliton_residual(catalog.circle(radius=1.0, n=256), SolitonKind.SHRINKER)
    checks.append(("circle shrinker Linf", r_circle.linf < 1e-2,
                   f"{r_circle.linf:.2e} < 1e-2"))
    r_sphere = soliton_residual(catalog.sphere(radius=math.sqrt(2), J=48, K=96),
                                SolitonKind.SHRINKER)
    checks.append(("sphere(sqrt 2) shrinker Linf", r_sphere.linf < 1e-2,
                   f"{r_sphere.linf:.2e} < 1e-2"))
    r_cliff = soliton_residual(catalog.clifford_torus(n1=64, n2=64), SolitonKind.SHRINKER)
    checks.append(("clifford shrinker Linf", r_cliff.linf < 1e-2,
                   f"{r_cliff.linf:.2e} < 1e-2"))
    V = np.array([0.0, 1.0])
    r_gr = soliton_residual(catalog.grim_reaper(delta=0.05, n=512),
                            SolitonKind.TRANSLATOR, V=V)
    checks.append(("grim reaper translator Linf", r_gr.linf < 1e-3,
                   f"{r_gr.linf:.2e} < 1e-3"))
    # convergence order >= 1.8 under grid refinement
    pairs = [
        ("circle", SolitonKind.SHRINKER, None,
         catalog.circle(radius=1.0, n=128), catalog.circle(radius=1.0, n=256)),
        ("sphere(sqrt 2)", SolitonKind.SHRINKER, None,
         catalog.sphere(radius=math.sqrt(2), J=24, K=48),
         catalog.sphere(radius=math.sqrt(2), J=48, K=96)),
        ("clifford", SolitonKind.SHRINKER, None,
         catalog.clifford_torus(n1=32, n2=32), catalog.clifford_torus(n1=64, n2=64)),
        ("grim reaper", SolitonKind.TRANSLATOR, V,
         catalog.grim_reaper(delta=0.05, n=256), catalog.grim_reaper(delta=0.05, n=512)),
    ]
    for label, kind, vel, coarse, fine in pairs:
        rc = soliton_residual(coarse, kind, V=vel)
        rf = soliton_residual(fine, kind, V=vel)
        order = math.log2(rc.linf / rf.linf)
        checks.append((f"{label} order", order >= 1.8, f"{order:.2f} >= 1.8"))
    report(6, "soliton residuals and their convergence", checks)


def test_criterion_7_type_classification(circle_run, sphere_run):
    circle_trace, _, _ = circle_run
    _, sphere_trace, _, _ = sphere_run
    rep_c = classify_blowup(circle_trace)
    rep_s = classify_blowup(sphere_trace)
    t0 = time.time()
    card = catalog.cardioid(n=257, loop=1.5)
    cfg = FlowConfig(cfl_sigma=0.5, stop_max_A2=1e6, record_every=20, stop_t_max=1.0)
    card_trace, _ = run(card, cfg)
    rep_k = classify_blowup(card_trace)
    card_wall = time.time() - t0
    report(7, "Type I / Type II classification", [
        ("circle Type I", rep_c.classification is BlowupClass.TYPE_I,
         rep_c.classification),
        ("circle c_hat", abs(rep_c.c_hat - 0.5) < 0.05, f"{rep_c.c_hat:.4f} = 0.5 +- 0.05"),
        ("sphere Type I", rep_s.classification is BlowupClass.TYPE_I,
         rep_s.classification),
        ("sphere c_hat", abs(rep_s.c_hat - 0.5) < 0.05, f"{rep_s.c_hat:.4f} = 0.5 +- 0.05"),
        ("lower blow-up rate >= 0.1",
         rep_c.lower_rate >= 0.1 and rep_s.lower_rate >= 0.1,
         f"{rep_c.lower_rate:.3f}, {rep_s.lower_rate:.3f}"),
        ("looped cardioid Type II", rep_k.classification is BlowupClass.TYPE_II,
         f"{rep_k.classification} growth {rep_k.growth:.1f} ({card_wall:.0f}s)"),
    ])


def test_criterion_8_type1_rescaling(sphere_run):
    _, trB, _, _ = sphere_run
    est = estimate_singular_time(trB)
    snaps = [(r.t, r.snapshot) for r in trB.records
             if r.snapshot is not None and est.t_hat - r.t > 1e-8]
    s_vals, radii = [], []
    for t, imm in snaps:
        st = FlowState(t=t, imm=imm, bundle=build_bundle(imm))
        resc, s = type1_rescale(st, np.zeros(3), est.t_hat)
        s_vals.append(s)
        radii.append(float(np.sqrt((resc.values**2).sum(-1)).mean()))
    s_vals = np.array(s_vals)
    radii = np.array(radii)
    s0 = s_vals.min()
    window = (s_vals >= s0) & (s_vals <= s0 + 2.0)
    err = np.abs(radii[window] - math.sqrt(2.0)).max()
    report(8, "Type I rescaling of the shrinking sphere", [
        ("rescaled radius sqrt(2) over s in [s0, s0+2]", err < 1e-2,
         f"max deviation {err:.2e} < 1e-2 across {int(window.sum())} snapshots"),
        ("window coverage", window.sum() >= 5, f"{int(window.sum())} snapshots"),
    ])


def test_sphere_pole_rings_track_the_interior(sphere_run):
    # the semi-implicit step's reference connection keeps the pole-adjacent
    # rings from degenerating: at the fixture's last record the full
    # max|A|^2, which the brake and the cap read, is the trusted one's
    _, trB, _, _ = sphere_run
    last = trB.records[-1]
    ratio = last.max_A2 / last.max_A2_trusted
    assert ratio < 1.05, f"max_A2 / max_A2_trusted = {ratio:.3f} at t = {last.t:.6g}"


def test_criterion_9_lagrangian_identity_suite(ma_flow_128):
    p0, tr = ma_flow_128
    imm = lag_immersion(p0)
    bundle = build_bundle(imm)
    lag_res = lagrangian_residual(imm, bundle)
    alpha, angle_defect = lagrangian_angle(p0)
    rep = mean_curvature_form(imm, bundle, alpha=alpha)
    amax = np.array([r.alpha_max for r in tr.records])
    amin = np.array([r.alpha_min for r in tr.records])
    report(9, "Lagrangian identity suite at 128^2", [
        ("Lagrangian residual", lag_res < 1e-10, f"{lag_res:.2e} < 1e-10"),
        ("angle identity det(I + i Hess u) = e^{i a} sqrt(det g)",
         angle_defect < 1e-8, f"{angle_defect:.2e} < 1e-8"),
        ("|d alpha - H|", rep.dalpha_minus_H_residual.linf < 1e-3,
         f"{rep.dalpha_minus_H_residual.linf:.2e} < 1e-3"),
        ("|dH|", rep.dH_residual.linf < 1e-3,
         f"{rep.dH_residual.linf:.2e} < 1e-3"),
        ("max alpha non-increasing", bool(np.all(np.diff(amax) <= 1e-13)),
         f"over {len(amax)} records"),
        ("min alpha non-decreasing", bool(np.all(np.diff(amin) >= -1e-13)),
         f"over {len(amin)} records"),
    ])


def test_criterion_10_whitney_pinching():
    imm = catalog.whitney_sphere(radius=1.0, m=2, J=48, K=96)
    b = build_bundle(imm)
    ratio = b.normA2 / b.normH2
    ratio_err = np.abs(ratio - 0.75).max()
    ch = make_chart(ChartSpec(Domain.TORUS, (64, 64)))
    mesh = ch.mesh()
    p = Potential(np.zeros((2, 2)),
                  GridField(ch, (0.1 * np.sin(mesh[0]) * np.sin(mesh[1]))[..., None]))
    imm_g = lag_immersion(p)
    bg = build_bundle(imm_g)
    gap, identity = pinching_gap(imm_g, bg)
    active = bg.normH2 > 1e-8
    report(10, "Whitney pinching equality and the generic gap", [
        ("Whitney |A|^2/|H|^2 = 0.750 +- 0.01", ratio_err < 0.01,
         f"max deviation {ratio_err:.2e}"),
        ("generic graph gap strictly positive", float(gap[active].min()) > 0,
         f"min over active nodes {float(gap[active].min()):.3e}"),
        ("pinching identity is algebra", identity < 1e-8, f"{identity:.2e} < 1e-8"),
    ])


def test_criterion_11_convex_potential_convergence():
    # S = diag(0.5, 0.8), phi0 = 0.1 (sin x1 + cos x2), 64^2; require
    # |Hess phi| monotone and both |Hess phi| and |H| < 1e-3 at the horizon.
    # The slowest mode (cos x2, rate 1/(1 + 0.8^2) = 1/1.64) bounds both by
    # 0.1 e^{-t/1.64}, which drops below 1e-3 only after t = 1.64 ln 100
    # = 7.6; the horizon t = 10, where the bound is 2.2e-4, clears it.
    horizon = 10.0
    t0 = time.time()
    ch = make_chart(ChartSpec(Domain.TORUS, (64, 64)))
    mesh = ch.mesh()
    phi = 0.1 * (np.sin(mesh[0]) + np.cos(mesh[1]))
    p0 = Potential(np.diag([0.5, 0.8]), GridField(ch, phi[..., None]))
    tr = ma_run(p0, PotentialFlowConfig(stop_t_max=horizon, record_every=100))
    wall = time.time() - t0
    h = np.array([r.hess_phi_inf for r in tr.records])
    monotone = bool(np.all(np.diff(h) < 0))
    h_end = float(h[-1])
    H_end = float(tr.records[-1].H_inf)
    predicted = 0.1 * math.exp(-horizon / 1.64)
    report(11, "convex-potential convergence to the flat torus", [
        ("|Hess phi| decreasing in t", monotone, f"over {len(h)} records"),
        (f"|Hess phi({horizon:g})| < 1e-3", h_end < 1e-3,
         f"{h_end:.2e} (slowest-mode bound 0.1 e^{{-{horizon:g}/1.64}} = {predicted:.2e})"),
        (f"|H({horizon:g})| < 1e-3", H_end < 1e-3, f"{H_end:.2e}"),
        ("runtime", wall < 300.0, f"{wall:.1f}s < 5min"),
    ])


def test_criterion_12_symmetry_suite(tmp_path):
    checks = []
    # isometry equivariance of a full run
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    b = rng.normal(size=2)
    cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.05, record_every=10)
    imm = catalog.ellipse(a=1.0, b=0.8, n=64)
    tr1, f1 = run(imm, cfg)
    tr2, f2 = run(imm.transformed(Q, b), cfg)
    rec_ok = len(tr1.records) == len(tr2.records) and all(
        abs(a.volume - c.volume) <= 1e-10 * abs(a.volume)
        and abs(a.t - c.t) <= 1e-10 * max(a.t, 1e-30)
        for a, c in zip(tr1.records, tr2.records)
    )
    moved = f1.imm.values @ Q.T + b
    field_ok = np.abs(moved - f2.imm.values).max() < 1e-10 * np.abs(moved).max()
    checks.append(("isometry equivariance of runs", rec_ok and field_ok,
                   "records and final positions within 1e-10 relative"))
    # planarity preservation in R^3
    imm3 = catalog.circle(radius=1.0, n=64, ambient_dim=3)
    cfg3 = FlowConfig(cfl_sigma=0.5, stop_t_max=0.3, record_every=50)
    _, f3 = run(imm3, cfg3)
    out_of_plane = float(np.abs(f3.imm.values[..., 2]).max())
    checks.append(("planarity preservation", out_of_plane < 1e-10,
                   f"max |z| = {out_of_plane:.2e}"))
    # periodic index-shift equivariance, bit-exact
    imm_t = catalog.clifford_torus(n1=16, n2=16)
    bt = build_bundle(imm_t)
    shifted = Immersion(imm_t.chart, roll_field(imm_t.values, 0, 5))
    bs = build_bundle(shifted)
    shift_ok = (np.array_equal(bs.g, roll_field(bt.g, 0, 5))
                and np.array_equal(bs.H, roll_field(bt.H, 0, 5))
                and np.array_equal(bs.normA2, roll_field(bt.normA2, 0, 5)))
    checks.append(("index-shift equivariance bit-exact", shift_ok, "g, H, |A|^2"))
    # determinism and checkpoint resume, bit-exact
    cfg_d = FlowConfig(cfl_sigma=0.5, stop_t_max=0.1, record_every=10)
    tra, fa = run(catalog.ellipse(n=64), cfg_d)
    trb, fb = run(catalog.ellipse(n=64), cfg_d)
    det_ok = np.array_equal(fa.imm.values, fb.imm.values) and all(
        (x.t, x.dt, x.volume) == (y.t, y.dt, y.volume)
        for x, y in zip(tra.records, trb.records)
    )
    checks.append(("determinism bit-exact", det_ok, "rerun identical"))
    trh, fh = run(catalog.ellipse(n=64), cfg_d, max_steps=23)
    ck = tmp_path / "sym.ckpt"
    write_checkpoint(str(ck), fh, trh, "sym")
    state, saved = read_checkpoint(str(ck), scenario_text="sym")
    trr, fr = resume_run(state, saved, cfg_d)
    res_ok = np.array_equal(fa.imm.values, fr.imm.values) and len(tra.records) == len(trr.records) and all(
        (x.t, x.dt, x.volume, x.max_A2, x.max_A2_trusted)
        == (y.t, y.dt, y.volume, y.max_A2, y.max_A2_trusted)
        for x, y in zip(tra.records, trr.records)
    )
    checks.append(("checkpoint-resume bit-exact", res_ok, "stitched records identical"))
    report(12, "symmetry, determinism, and resume suite", checks)
