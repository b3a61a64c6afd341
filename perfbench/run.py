"""codimflow benchmark: time to solution, accuracy and per-layer self time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n>

Run from the root of a checkout; the program is imported from its `src/`.
A run builds the workload's inputs from the seed, then runs as many timed
episodes as fit in --seconds at the workload's typical episode time on a
2-core machine (always at least one). With --trace 0 it reports the
end-to-end metrics, with set-up timed in fresh processes; with --trace 1 it
runs one untraced episode and then traced ones, and reports the per-layer
metrics. Every episode's outputs are checked against the acceptance suite's
thresholds. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--workload all` runs each workload of BENCHMARK.json, untraced and traced,
one at a time in fresh processes, and prints one table. `sphere-to-cap` is
the sphere fixture run to the curvature cap (130-250 s); it is not one of
the timed workloads and is run by name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# end-to-end metrics of an untraced run, with their units
END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("steps", "count"),
    ("us_per_step_ref", "us"),
    ("rel_err", "ratio"),
    ("peak_rss_mib", "MiB"),
]


def _cap_threads():
    """Keep BLAS/OpenMP pools within the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        if val.isdigit() and int(val) > nproc:
            os.environ[var] = str(nproc)


def _git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    import numpy
    import scipy

    rev = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        rev = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_revision": rev, "git_dirty": dirty, "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _setup_times(name: str, seed: int, small: bool, probes: int) -> list[float]:
    cmd = [sys.executable, os.path.join(BENCH, "setup_probe.py"), name, str(seed)]
    if small:
        cmd.append("--small")
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _episodes(wl, inp, workdir, count, tracers=None):
    """Run `count` episodes. With `tracers`, each runs traced by a fresh
    Tracer appended to that list; without, under a SpeedSampler that sets
    its ref_s."""
    import speed
    import tracing

    eps = []
    for _ in range(count):
        if tracers is None:
            with speed.SpeedSampler() as sampler:
                ep = wl.episode(inp, workdir)
            ep.ref_s = sampler.to_reference(ep.start, ep.end)
        else:
            tracers.append(tracing.Tracer())
            with tracers[-1].install():
                ep = wl.episode(inp, workdir)
        eps.append(ep)
    return eps


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object plus details."""
    import workloads

    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    samples = {}
    try:
        setup = [] if trace else _setup_times(name, seed, small, probes)
        inp = wl.prepare(seed, small)
        # a fixed episode count for a given --seconds, so that every run of a
        # workload has the same structure (the first episode runs slower)
        count = max(1, int(seconds // wl.episode_s))
        if not trace:
            eps = _episodes(wl, inp, workdir, count)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_ref_s": statistics.median(e.ref_s for e in eps),
                "steps": statistics.median(e.steps for e in eps),
                "us_per_step_ref": statistics.median(e.ref_s / e.steps * 1e6 for e in eps),
                "rel_err": statistics.median(e.rel_err for e in eps),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            samples = {"setup_s": len(setup), "episodes": len(eps)}
        else:
            import tracing

            ref = wl.episode(inp, workdir)
            tracers = []
            eps = _episodes(wl, inp, workdir, max(1, count - 1), tracers)
            per_ep = []
            for ep, tr in zip(eps, tracers):
                m = tr.metrics(ep.wall_s)
                m["trace.overhead_frac"] = ep.wall_s / ref.wall_s - 1.0
                per_ep.append(m)
                same = ep.final.shape == ref.final.shape and bool((ep.final == ref.final).all())
                ep.checks.append(("traced run ends on bit-identical positions", same,
                                  "final positions vs the untraced episode"))
            metrics = {k: statistics.median(m[k] for m in per_ep) for k, _ in tracing.PER_LAYER}
            units = dict(tracing.PER_LAYER)
            samples = {"episodes": len(eps), **tracers[-1].samples}
        raw_wall = statistics.median(e.wall_s for e in eps)
        if trace:
            eps = [ref] + eps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    checks = [c for ep in eps for c in ep.checks]
    failed = [c for c in checks if not c[1]]
    return {
        "result": {
            "correct": not any(c[0] not in workloads.EXPECTED_RED for c in failed),
            "attempted": len(checks),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "checks": checks,
        "figures": {**eps[-1].figures, "wall_s (raw, median)": raw_wall},
        "samples": samples,
    }


def _report(name, seed, trace, out, prov):
    res = out["result"]
    print(f"workload {name} seed {seed} trace {int(trace)}")
    latest = {}
    for label, ok, detail in out["checks"]:
        prev = latest.get(label, (True, ""))
        latest[label] = (prev[0] and ok, detail)
    for label, (ok, detail) in latest.items():
        print(f"  check [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    for key, val in out["figures"].items():
        print(f"  figure {key} = {val:.6g}")
    for key, m in res["metrics"].items():
        print(f"  metric {key} = {m['value']:.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"  checks_failed_frac = {frac:.6g} ({res['failed']}/{res['attempted']})")
    print("provenance " + json.dumps({**prov, "workload": name, "seed": seed,
                                      "trace": int(trace), "samples": out["samples"]}))


def _run_all(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stdout.write(out.stdout)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            res = json.loads(out.stdout.strip().splitlines()[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for key, m in res["metrics"].items():
                total["metrics"][f"{name}/{key}"] = m
                rows.append((name, key, m["value"], m["unit"]))
    print(f"\n{'workload':<22} {'metric':<46} {'value':>14} unit")
    for name, key, val, unit in rows:
        print(f"{name:<22} {key:<46} {val:>14.6g} {unit}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "codimflow", "__init__.py")):
        print(f"error: no codimflow sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    _cap_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    prov = provenance()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, args.seed, bool(args.trace), out, prov)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
