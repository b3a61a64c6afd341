"""Command-line interface: scenario runs, residual verification, soliton
checks, singularity rescaling, Lagrangian reports, and catalog snapshots.

Exit codes: 0 success; 2 the run stopped at a singularity signal (curvature
cap or time-step underflow - an expected scientific outcome); 3 numerical
failure (degenerate metric, non-finite values, solver breakdown); 4
configuration or usage error. Every error path prints one machine-parseable
line `error: <kind>: <reason>` on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import catalog
from .config import Scenario, coerce_scalar, evaluate_phi, parse_config
from .errors import CodimflowError, ConfigError, UsageError
from .flow import (SINGULARITY_SIGNALS, FlowState, FlowTrace, Integrator,
                   SingularTimeEstimate, Termination, estimate_singular_time,
                   evolution_residuals, run, tangential_velocity, trajectory)
from .geometry import Immersion, build_bundle, structure_residuals
from .grid import ChartSpec, Domain, GridField, integrate_values, make_chart
from .lagrangian import (Potential, PotentialFlowConfig, PotentialTrace, lag_immersion,
                         lagrangian_angle, ma_run, mean_curvature_form)
from .singularity import (DensityParams, SolitonKind, classify_blowup,
                          hamilton_rescale, monotone_verdict, soliton_residual,
                          type1_rescale)
from .snapshots import (read_checkpoint, read_snapshot, read_text,
                        write_checkpoint, write_diagnostics, write_snapshot)

EXIT_OK = 0
EXIT_SINGULARITY = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


def _fail(kind: str, message: str) -> int:
    first_line = str(message).splitlines()[0] if str(message) else kind
    print(f"error: {kind}: {first_line}", file=sys.stderr)
    rest = str(message).splitlines()[1:]
    for line in rest:
        print(f"  {line}", file=sys.stderr)
    if kind in ("ConfigError", "UsageError"):
        return EXIT_CONFIG
    return EXIT_NUMERICAL


def build_initial(scenario: Scenario) -> Immersion:
    if scenario.initial_kind == "catalog":
        return catalog.make_example(scenario.catalog_name, **scenario.catalog_params)
    if scenario.initial_kind == "snapshot":
        imm, _ = read_snapshot(scenario.snapshot_path)
        return imm
    return lag_immersion(build_potential(scenario))


def build_potential(scenario: Scenario) -> Potential:
    ps = scenario.potential
    spec = ChartSpec(Domain.TORUS, ps.resolution, fd_order=ps.fd_order)
    chart = make_chart(spec)
    phi = evaluate_phi(ps, chart.mesh())
    return Potential(ps.S, GridField(chart, phi[..., None]))


def _density_params(scenario: Scenario, n: int) -> DensityParams | None:
    """The monotonicity analysis's density parameters in R^n, q the origin
    unless set. Raises, before any step, on an analysis vector (q, V) without
    n finite entries or on a t0 that is not finite and positive."""
    density = None
    for a in scenario.analyses:
        for key in ("q", "V"):
            v = a.params.get(key)
            if v is not None and not (len(v) == n and np.all(np.isfinite(v))):
                raise ConfigError(f"analysis.{a.kind}.{key} needs {n} finite entries "
                                  f"(ambient dimension n = {n}), got {v}")
        if a.kind == "monotonicity":
            t0 = a.params["t0"]
            if not (math.isfinite(t0) and t0 > 0):
                raise ConfigError(f"analysis.monotonicity.t0 must be finite and positive, got {t0}")
            density = DensityParams(q=np.array(a.params.get("q", np.zeros(n))), t0=t0)
    return density


def _termination_exit(trace: FlowTrace | PotentialTrace) -> int:
    if trace.termination in SINGULARITY_SIGNALS:
        return EXIT_SINGULARITY
    if trace.termination is Termination.DEGENERATE:
        return EXIT_NUMERICAL
    return EXIT_OK


def _run_one(config_path: str, resume: str | None = None) -> int:
    text = read_text(config_path)
    scenario = parse_config(text)
    if resume is not None:
        state, saved = read_checkpoint(resume, scenario_text=text)
        records = saved.records
    else:
        state, records = FlowState.initial(build_initial(scenario)), None
    n = state.imm.n
    if n % 2 and any(a.kind == "lagrangian_report" for a in scenario.analyses):
        raise ConfigError(f"lagrangian_report requires even ambient dimension, got n = {n}")
    params = _density_params(scenario, n)
    trace, final = run(state.imm, scenario.flow, huisken_params=params,
                       initial_state=state, records=records)

    base = os.path.join(scenario.output_dir, scenario.name)
    write_diagnostics(trace, base + ".csv")
    write_snapshot(final, base + "-final.snap")
    write_checkpoint(base + ".ckpt", final, trace, text)
    print(f"run {scenario.name}: {trace.termination.value} ({trace.termination_detail})")
    print(f"  records={len(trace.records)} t_end={final.t:.9g} "
          f"volume_end={trace.records[-1].volume:.9g}")

    est = estimate_singular_time(trace)
    if est.reliable:
        print(f"  T_hat={est.t_hat:.6g} fit_rms={est.fit_rms:.3g}")
    for a in scenario.analyses:
        if a.kind == "monotonicity":
            # the series run recorded at (q, t0); a checkpoint keeps it
            ok, jump = monotone_verdict(
                [r.huisken for r in trace.records if r.huisken is not None])
            print(f"  monotonicity: nonincreasing={ok} max_jump={jump:.3e}")
        elif a.kind == "soliton":
            kind = SolitonKind(a.params["kind"])
            if kind is SolitonKind.SHRINKER:
                # the shrinker is the Type I blow-up limit, not the final state
                _, imm, _ = _type1_rescaled(trace, _singular_time(est))
                rep = soliton_residual(imm, kind)
            else:
                V = np.array(a.params["V"]) if "V" in a.params else None
                rep = soliton_residual(final.imm, kind, V=V, bundle=final.bundle)
            print(f"  soliton[{kind.value}]: Linf={rep.linf:.6e} L2={rep.l2:.6e}")
        elif a.kind == "classify":
            rep = classify_blowup(trace, est=est)
            print(f"  blowup: {rep.classification.value} c_hat={rep.c_hat:.4g} "
                  f"lower={rep.lower_rate:.4g} spread={rep.spread:.3g} "
                  f"growth={rep.growth:.3g}")
        elif a.kind == "rescale":
            _do_rescale(trace, est, a.params, base)
        elif a.kind == "lagrangian_report":
            rep = mean_curvature_form(final.imm, final.bundle)
            print(f"  lagrangian: residual={rep.lagrangian_residual:.3e} "
                  f"|dH|={rep.dH_residual.linf:.3e} gap_min={rep.pinching_gap_min:.3e}")
    return _termination_exit(trace)


def _singular_time(est: SingularTimeEstimate) -> float:
    if not est.reliable:
        raise UsageError(f"cannot rescale: unreliable singular time ({est.detail})")
    return est.t_hat


def _type1_rescaled(trace: FlowTrace, t_hat: float):
    """The last snapshot before t_hat, Type I rescaled about its
    volume-weighted centroid (the singular point of a shrinking flow):
    returns its time, the rescaled immersion and the rescaled time s."""
    rec = [r for r in trace.records if r.snapshot is not None and r.t < t_hat][-1]
    snap, bundle = rec.snapshot, build_bundle(rec.snapshot)
    q = np.array([integrate_values(snap.values[..., a], bundle.sqrt_det_g, snap.chart)
                  for a in range(snap.n)]) / bundle.total_volume()
    imm, s = type1_rescale(FlowState(t=rec.t, imm=snap, bundle=bundle), q=q, T=t_hat)
    return rec.t, imm, s


def _do_rescale(trace: FlowTrace, est: SingularTimeEstimate, params: dict, base: str):
    t_hat = _singular_time(est)
    if params["mode"] == "type1":
        t, imm, s = _type1_rescaled(trace, t_hat)
        path = base + "-rescaled.snap"
        write_snapshot(imm, path, t=s)
        print(f"  type1 rescale at t={t:.6g}: s={s:.4f} -> {path}")
    else:
        k = params["k"]
        ham = hamilton_rescale(trace, t_hat, k)
        zero = min(ham.rescaled, key=lambda pair: abs(pair[0]))
        path = base + f"-hamilton-k{k}.snap"
        write_snapshot(zero[1], path, t=zero[0])
        print(f"  type2 rescale k={k}: L_k={ham.L_k:.6g} alpha_k={ham.alpha_k:.6g} "
              f"omega_k={ham.omega_k:.6g} -> {path}")


def cmd_run(args) -> int:
    if args.resume and len(args.configs) > 1:
        raise UsageError("--resume applies to a single config")
    code = EXIT_OK
    for c in args.configs:
        code = max(code, _run_one(c, resume=args.resume))
    return code


def cmd_verify(args) -> int:
    if args.checks < 1:
        raise UsageError("--checks must be a positive integer")
    scenario = parse_config(read_text(args.config))
    initial = build_initial(scenario)
    cfg = scenario.flow
    state = FlowState.initial(initial)
    evolution = ("metric", "christoffel", "volume_form", "second_fundamental",
                 "mean_sq", "a_sq", "heat", "volume_total")
    structure = ("gauss", "codazzi", "ricci", "simons", "simons2")
    rows = []
    print(f"t  evolution residuals (Linf): {' '.join(evolution)} | "
          f"structure (L2/scale): {' '.join(structure)}")
    steps = trajectory(state, cfg)
    states = (st for st, _ in steps)
    while len(rows) < args.checks:
        # advance to the next check instant, then form a consecutive triple
        window = [state, *itertools.islice(states, cfg.record_every + 1)]
        if len(window) < cfg.record_every + 2:
            break
        s0, s1, s2 = window[-3:]
        if cfg.integrator is Integrator.SEMI_IMPLICIT:
            # the step moves tangentially too; the Christoffel and A checks,
            # which have no Lie terms, are skipped
            rep = evolution_residuals(s0, s2, mid=s1, V=tangential_velocity(s1.bundle))
        else:
            rep = evolution_residuals(s0, s2, mid=s1)
        cur = structure_residuals(s1.imm, s1.bundle)
        d = rep.as_dict()
        print(f"{s1.t:.6g}  " +
              " ".join(f"{d[k].linf:.2e}" if k in d else "skipped" for k in evolution) +
              " | " + " ".join(f"{getattr(cur, k).l2_rel:.2e}" for k in structure))
        rows.append(d)
        state = s2
    if steps.error is not None:
        raise steps.error
    worst = max((d[k].linf for d in rows for k in evolution if k in d), default=math.nan)
    print(f"verify: {len(rows)} checks, worst evolution residual Linf = {worst:.3e}")
    return EXIT_OK


def cmd_soliton(args) -> int:
    imm, _ = read_snapshot(args.snapshot)
    kind = SolitonKind(args.kind)
    try:
        V = np.array([float(x) for x in args.V.split(",")]) if args.V else None
    except ValueError:
        V = np.array([np.nan])   # reported below, with the non-finite values
    if V is not None and not np.all(np.isfinite(V)):
        raise UsageError(f"--V must be comma-separated finite numbers, got {args.V!r}")
    rep = soliton_residual(imm, kind, V=V)
    print(f"soliton[{kind.value}]: Linf={rep.linf:.9e} L2={rep.l2:.9e} "
          f"worst_node={rep.worst_node}")
    return EXIT_OK


def cmd_rescale(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be a positive integer")
    scenario = parse_config(read_text(args.config))
    initial = build_initial(scenario)
    _density_params(scenario, initial.n)   # its checks only: no density is read here
    trace, _ = run(initial, scenario.flow)
    base = os.path.join(scenario.output_dir, scenario.name)
    _do_rescale(trace, estimate_singular_time(trace), {"mode": args.mode, "k": args.k}, base)
    return _termination_exit(trace)


def cmd_lagrangian(args) -> int:
    scenario = parse_config(read_text(args.config), flow_type=PotentialFlowConfig,
                            flow_sources=("potential",))
    if scenario.initial_kind == "potential":
        tr = ma_run(build_potential(scenario), scenario.flow)
        base = os.path.join(scenario.output_dir, scenario.name)
        write_diagnostics(tr, base + ".csv")
        print(f"lagrangian {scenario.name}: {tr.termination.value} ({tr.termination_detail})")
        p = tr.final
        alpha, angle_defect = lagrangian_angle(p)
        imm = lag_immersion(p)
        rep = mean_curvature_form(imm, alpha=alpha)
        last = tr.records[-1]
        print(f"potential flow to t={last.t:.6g}: |Hess phi|={last.hess_phi_inf:.6e} "
              f"|H|={last.H_inf:.6e}")
        print(f"  angle identity defect={angle_defect:.3e} "
              f"lagrangian residual={rep.lagrangian_residual:.3e}")
        print(f"  |dalpha - H|={rep.dalpha_minus_H_residual.linf:.3e} "
              f"|dH|={rep.dH_residual.linf:.3e} min cos(alpha)={rep.calibration_min:.6f}")
        print(f"  pinching gap min={rep.pinching_gap_min:.3e} "
              f"identity defect={rep.pinching_identity_defect:.3e}")
        return _termination_exit(tr)
    rep = mean_curvature_form(build_initial(scenario))
    print(f"lagrangian residual={rep.lagrangian_residual:.3e} "
          f"h symmetry defect={rep.h_symmetry_defect:.3e}")
    print(f"  |dH|={rep.dH_residual.linf:.3e} pinching gap min={rep.pinching_gap_min:.3e} "
          f"identity defect={rep.pinching_identity_defect:.3e}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    params = {}
    rest = list(args.params)
    while rest:
        key = rest.pop(0)
        if not key.startswith("--") or not rest:
            raise UsageError(f"catalog parameters must be --name value pairs, got {key!r}")
        params[key[2:].replace("-", "_")] = coerce_scalar(rest.pop(0))
    imm = catalog.make_example(args.name, **params)
    write_snapshot(imm, args.output)
    b = build_bundle(imm)
    print(f"catalog {args.name}: nodes={imm.chart.node_count} n={imm.n} "
          f"max|A|^2={float(b.normA2.max()):.6g} -> {args.output}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, so they reach the
    one error line; its subparsers share the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="codimflow",
        description="Mean curvature flow engine for immersions of arbitrary "
                    "codimension in flat Euclidean space.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one or more flow scenarios")
    p.add_argument("configs", nargs="+")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run a flow and emit evolution/structure residual series")
    p.add_argument("config")
    p.add_argument("--checks", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("soliton", help="soliton residual of a snapshot")
    p.add_argument("snapshot")
    p.add_argument("--kind", required=True, choices=[k.value for k in SolitonKind])
    p.add_argument("--V", help="translator velocity, comma-separated")
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("rescale", help="run a scenario and rescale at the singularity")
    p.add_argument("config")
    p.add_argument("--mode", choices=["type1", "type2"], default="type1")
    p.add_argument("--k", type=int, default=10, help="Hamilton sequence index (type2)")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("lagrangian", help="Lagrangian identities / potential flow")
    p.add_argument("config")
    p.set_defaults(func=cmd_lagrangian)

    p = sub.add_parser("catalog", help="write a catalog immersion snapshot")
    p.add_argument("name")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    try:
        args, extras = make_parser().parse_known_args(argv)
        if args.command == "catalog":
            args.params = extras
        elif extras:
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
        # an overflowing input ends in a NonFiniteError with its node; numpy's
        # own overflow and NaN warnings would print before that error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SystemExit:   # argparse exits only after printing -h's help
        return EXIT_OK
    except CodimflowError as exc:
        return _fail(type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail("UsageError", str(exc))


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
