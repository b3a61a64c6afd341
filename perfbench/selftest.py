"""Self-test of the benchmark harness at reduced sizes.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs untraced and traced on small grids (the acceptance
thresholds are sized for the full grids, so check outcomes are not asserted
here). The tests assert that every metric BENCHMARK.json names is reported
with its unit, that the traced episodes end on the untraced episode's
positions bit for bit, and that the per-layer self times plus the
unattributed share account for the traced wall time.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def test_metric_lists_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == dict(run.END_TO_END)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == dict(tracing.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(name):
    plain = run.run_workload(name, seed=3, seconds=0.0, trace=False, small=True, probes=1)
    res = plain["result"]
    assert res["attempted"] >= 1
    assert res["metrics"] == {
        k: {"value": res["metrics"][k]["value"], "unit": u} for k, u in run.END_TO_END}
    assert all(res["metrics"][k]["value"] > 0 for k, _ in run.END_TO_END)

    traced = run.run_workload(name, seed=3, seconds=0.0, trace=True, small=True)
    res = traced["result"]
    assert res["metrics"] == {
        k: {"value": res["metrics"][k]["value"], "unit": u} for k, u in tracing.PER_LAYER}
    identical = [ok for label, ok, _ in traced["checks"]
                 if label == "traced run ends on bit-identical positions"]
    assert identical and all(identical)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_self_times_account_for_traced_wall(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inp = wl.prepare(3, small=True)
    tracer = tracing.Tracer()
    with tracer.install():
        ep = wl.episode(inp, str(tmp_path))
    m = tracer.metrics(ep.wall_s)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers > 0.0
    assert 0.0 <= m["trace.unattributed_frac"] < 0.5
    assert layers + m["trace.unattributed_frac"] * ep.wall_s == pytest.approx(ep.wall_s, rel=1e-9)
    # the wrappers are gone once the block ends
    assert not hasattr(workloads.flow.run, "__wrapped__")
    assert not hasattr(workloads.geometry.build_bundle, "__wrapped__")
