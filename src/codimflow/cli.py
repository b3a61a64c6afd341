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
import concurrent.futures
import math
import os
import sys

import numpy as np

from . import catalog
from .config import Scenario, evaluate_phi, parse_config
from .errors import (CodimflowError, ConfigError, DegenerateImmersion,
                     NonFiniteError, SolverError, UsageError)
from .flow import (FlowConfig, FlowState, FlowTrace, Termination,
                   estimate_singular_time, evolution_residuals, run)
from .geometry import Immersion, build_bundle, structure_residuals
from .grid import ChartSpec, Domain, GridField, make_chart
from .lagrangian import (Potential, PotentialFlowConfig, lag_immersion,
                         lagrangian_angle, ma_run, mean_curvature_form)
from .singularity import (DensityParams, SolitonKind, classify_blowup,
                          hamilton_rescale, huisken_functional,
                          monotonicity_check, soliton_residual, type1_rescale)
from .snapshots import (read_checkpoint, read_snapshot, resume_run,
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
    if ps is None:
        raise ConfigError("scenario has no potential initial data")
    spec = ChartSpec(Domain.TORUS, ps.resolution, fd_order=ps.fd_order)
    chart = make_chart(spec)
    phi = evaluate_phi(ps, chart.mesh())
    return Potential(ps.S, GridField(chart, phi[..., None]))


def _density_params(scenario: Scenario) -> DensityParams | None:
    for a in scenario.analyses:
        if a.kind == "monotonicity":
            return DensityParams(q=np.array(a.params["q"]), t0=a.params["t0"])
    return None


def _termination_exit(trace: FlowTrace) -> int:
    if trace.termination in (Termination.CURVATURE_CAP, Termination.DT_UNDERFLOW):
        return EXIT_SINGULARITY
    if trace.termination is Termination.DEGENERATE:
        return EXIT_NUMERICAL
    return EXIT_OK


def _run_one(config_path: str, resume: str | None = None) -> int:
    with open(config_path) as f:
        text = f.read()
    scenario = parse_config(text)
    out = scenario.output_dir
    os.makedirs(out, exist_ok=True)
    params = _density_params(scenario)

    if scenario.initial_kind == "potential" and any(
        a.kind == "lagrangian_report" for a in scenario.analyses
    ) and not math.isfinite(scenario.flow.stop_t_max):
        raise ConfigError("potential runs need flow.stop_t_max")

    if resume is not None:
        state, saved = read_checkpoint(resume, scenario_text=text)
        trace, final = resume_run(state, saved, scenario.flow, huisken_params=params)
    else:
        initial = build_initial(scenario)
        trace, final = run(initial, scenario.flow, huisken_params=params)

    base = os.path.join(out, scenario.name)
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
            chk = monotonicity_check(trace, params)
            print(f"  monotonicity: nonincreasing={chk.is_nonincreasing} "
                  f"max_jump={chk.max_positive_jump:.3e}")
        elif a.kind == "soliton":
            kind = SolitonKind(a.params["kind"])
            V = np.array(a.params["V"]) if "V" in a.params else None
            rep = soliton_residual(final.imm, kind, V=V, bundle=final.bundle)
            print(f"  soliton[{kind.value}]: Linf={rep.linf:.6e} L2={rep.l2:.6e}")
        elif a.kind == "classify":
            rep = classify_blowup(trace)
            print(f"  blowup: {rep.classification.value} c_hat={rep.c_hat:.4g} "
                  f"lower={rep.lower_rate:.4g} spread={rep.spread:.3g} "
                  f"growth={rep.growth:.3g}")
        elif a.kind == "rescale":
            _do_rescale(trace, final, a.params, base)
        elif a.kind == "lagrangian_report":
            rep = mean_curvature_form(final.imm, final.bundle)
            print(f"  lagrangian: residual={rep.lagrangian_residual:.3e} "
                  f"|dH|={rep.dH_residual.linf:.3e} gap_min={rep.pinching_gap_min:.3e}")
    return _termination_exit(trace)


def _do_rescale(trace: FlowTrace, final: FlowState, params: dict, base: str):
    est = estimate_singular_time(trace)
    if not est.reliable:
        raise UsageError(f"cannot rescale: unreliable singular time ({est.detail})")
    if params.get("mode", "type1") == "type1":
        snaps = [r for r in trace.records if r.snapshot is not None and r.t < est.t_hat]
        if not snaps:
            raise UsageError("no snapshots before T_hat for rescaling")
        rec = snaps[-1]
        imm, s = type1_rescale(
            FlowState(t=rec.t, imm=rec.snapshot, bundle=build_bundle(rec.snapshot)),
            q=np.zeros(rec.snapshot.n), T=est.t_hat)
        path = base + "-rescaled.snap"
        write_snapshot(imm, path, t=s)
        print(f"  type1 rescale at t={rec.t:.6g}: s={s:.4f} -> {path}")
    else:
        k = int(params.get("k", 10))
        ham = hamilton_rescale(trace, est.t_hat, k)
        zero = min(ham.rescaled, key=lambda pair: abs(pair[0]))
        path = base + f"-hamilton-k{k}.snap"
        write_snapshot(zero[1], path, t=zero[0])
        print(f"  type2 rescale k={k}: L_k={ham.L_k:.6g} alpha_k={ham.alpha_k:.6g} "
              f"omega_k={ham.omega_k:.6g} -> {path}")


def cmd_run(args) -> int:
    workers_env = os.environ.get("CODIMFLOW_THREADS", "0")
    try:
        workers = max(0, int(workers_env))
    except ValueError:
        raise ConfigError(f"CODIMFLOW_THREADS must be an integer, got {workers_env!r}")
    configs = args.configs
    if len(configs) == 1 or workers <= 1:
        code = 0
        for c in configs:
            code = max(code, _run_one(c, resume=args.resume))
        return code
    if args.resume:
        raise UsageError("--resume applies to a single config")
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        codes = list(pool.map(_run_one, configs))
    return max(codes)


def cmd_verify(args) -> int:
    with open(args.config) as f:
        text = f.read()
    scenario = parse_config(text)
    initial = build_initial(scenario)
    cfg = scenario.flow
    state = FlowState.initial(initial)
    rows = []
    print("t  evolution residuals (Linf): metric christoffel volume_form "
          "second_fundamental mean_sq a_sq heat | structure (L2/scale): "
          "gauss codazzi ricci simons simons2")
    from .flow import _step, adaptive_dt

    def advance(st):
        return _step(st, adaptive_dt(st, cfg), cfg)

    checks = 0
    while checks < args.checks:
        # advance to the next check instant, then form a consecutive triple
        for _ in range(max(0, cfg.record_every - 1)):
            state = advance(state)
        s0 = state
        s1 = advance(s0)
        s2 = advance(s1)
        rep = evolution_residuals(s0, s2, mid=s1)
        cur = structure_residuals(s1.imm, s1.bundle)
        d = rep.as_dict()
        print(f"{s1.t:.6g}  " +
              " ".join(f"{d[k].linf:.2e}" for k in
                       ("metric", "christoffel", "volume_form",
                        "second_fundamental", "mean_sq", "a_sq", "heat")) +
              " | " +
              " ".join(f"{getattr(cur, k).l2_rel:.2e}" for k in
                       ("gauss", "codazzi", "ricci", "simons", "simons2")))
        rows.append((s1.t, rep, cur))
        state = s2
        checks += 1
        if state.t >= cfg.stop_t_max * (1 - 1e-14):
            break
        if float(state.bundle.normA2.max()) >= cfg.stop_max_A2:
            break
    worst = max(max(v.linf for v in r.as_dict().values()) for _, r, _ in rows)
    print(f"verify: {len(rows)} checks, worst evolution residual Linf = {worst:.3e}")
    return EXIT_OK


def cmd_soliton(args) -> int:
    imm, _ = read_snapshot(args.snapshot)
    kind = SolitonKind(args.kind)
    V = np.array([float(x) for x in args.V.split(",")]) if args.V else None
    rep = soliton_residual(imm, kind, V=V)
    print(f"soliton[{kind.value}]: Linf={rep.linf:.9e} L2={rep.l2:.9e} "
          f"worst_node={rep.worst_node}")
    return EXIT_OK


def cmd_rescale(args) -> int:
    with open(args.config) as f:
        scenario = parse_config(f.read())
    initial = build_initial(scenario)
    trace, final = run(initial, scenario.flow,
                       huisken_params=_density_params(scenario))
    os.makedirs(scenario.output_dir, exist_ok=True)
    base = os.path.join(scenario.output_dir, scenario.name)
    _do_rescale(trace, final, {"mode": args.mode, "k": args.k}, base)
    return _termination_exit(trace)


def cmd_lagrangian(args) -> int:
    with open(args.config) as f:
        scenario = parse_config(f.read())
    if scenario.initial_kind == "potential":
        p0 = build_potential(scenario)
        t_max = scenario.flow.stop_t_max
        if not math.isfinite(t_max):
            raise ConfigError("potential runs need flow.stop_t_max")
        cfg = PotentialFlowConfig(
            cfl_sigma=scenario.flow.cfl_sigma,
            stop_t_max=t_max,
            record_every=scenario.flow.record_every,
            snapshot_every=scenario.flow.snapshot_every,
        )
        tr = ma_run(p0, cfg)
        os.makedirs(scenario.output_dir, exist_ok=True)
        base = os.path.join(scenario.output_dir, scenario.name)
        write_diagnostics(tr, base + ".csv")
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
        return EXIT_OK
    imm = build_initial(scenario)
    if imm.n % 2 != 0:
        raise UsageError("lagrangian report requires even ambient dimension")
    rep = mean_curvature_form(imm)
    print(f"lagrangian residual={rep.lagrangian_residual:.3e} "
          f"h symmetry defect={rep.h_symmetry_defect:.3e}")
    print(f"  |dH|={rep.dH_residual.linf:.3e} pinching gap min={rep.pinching_gap_min:.3e} "
          f"identity defect={rep.pinching_identity_defect:.3e}")
    return EXIT_OK


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def cmd_catalog(args) -> int:
    params = {}
    rest = list(args.params)
    while rest:
        key = rest.pop(0)
        if not key.startswith("--") or not rest:
            raise UsageError(f"catalog parameters must be --name value pairs, got {key!r}")
        params[key[2:].replace("-", "_")] = _coerce(rest.pop(0))
    if "m" in params:
        # dimension is implied by each family; accept and check the obvious ones
        m = params.pop("m")
        implied = {"sphere": 2, "clifford_torus": 2}.get(args.name)
        if args.name == "whitney":
            params["m"] = m
        elif implied is not None and m != implied:
            raise ConfigError(f"{args.name} has dimension {implied}, got m={m}")
    imm = catalog.make_example(args.name, **params)
    write_snapshot(imm, args.output)
    b = build_bundle(imm)
    print(f"catalog {args.name}: nodes={imm.chart.node_count} n={imm.n} "
          f"max|A|^2={float(b.normA2.max()):.6g} -> {args.output}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    ap = make_parser()
    try:
        args, extras = ap.parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    if args.command == "catalog":
        args.params = extras
    elif extras:
        return _fail("UsageError", f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        return _fail(type(exc).__name__, str(exc))
    except (DegenerateImmersion, NonFiniteError, SolverError) as exc:
        return _fail(type(exc).__name__, str(exc))
    except FileNotFoundError as exc:
        return _fail("UsageError", str(exc))
    except CodimflowError as exc:
        return _fail(type(exc).__name__, str(exc))


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
