"""Plain-text persistence: immersion snapshots, diagnostics CSV, checkpoints.

Snapshots are diff-able text with a fixed header and one row per node in
lexicographic index order; floats are printed with 17 significant digits so
a read-back reproduces the positions bit-exactly. All writes are whole-file
atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import ConfigError, UsageError
from .flow import FlowConfig, FlowState, FlowTrace, Termination, TraceRecord
from .geometry import Immersion
from .grid import ChartSpec, Domain, make_chart

SNAPSHOT_SCHEMA = "codimflow.snapshot.v1"
CHECKPOINT_SCHEMA = "codimflow.checkpoint.v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def write_snapshot(state: FlowState | Immersion, path: str, t: float | None = None):
    """Write an immersion (or flow state) as a text snapshot."""
    if isinstance(state, Immersion):
        imm, t = state, (0.0 if t is None else t)
    else:
        imm, t = state.imm, state.t
    chart = imm.chart
    spec = chart.spec
    lines = [f"# schema={SNAPSHOT_SCHEMA}"]
    res = "x".join(str(r) for r in spec.resolution)
    lines.append(f"# t={_fmt(t)} m={imm.m} n={imm.n} domain={spec.domain.value} resolution={res}")
    lines.append(f"# fd_order={spec.fd_order}")
    if spec.interval_bounds is not None:
        a, b = spec.interval_bounds
        lines.append(f"# interval={_fmt(a)},{_fmt(b)}")
    if imm.affine is not None:
        mat, off = imm.affine
        flat = ",".join(_fmt(x) for x in list(mat.ravel()) + list(off))
        lines.append(f"# affine={flat}")
    if imm.norm_mask is not None:
        packed = "".join("1" if v else "0" for v in imm.norm_mask.ravel())
        lines.append(f"# norm_mask={packed}")
    mesh = chart.mesh()
    vals = imm.values
    for idx in np.ndindex(chart.shape):
        cols = [str(i) for i in idx]
        cols += [_fmt(mesh[a][idx]) for a in range(chart.m)]
        cols += [_fmt(vals[idx + (c,)]) for c in range(imm.n)]
        lines.append(" ".join(cols))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_snapshot(path: str) -> tuple[Immersion, float]:
    """Read a snapshot; returns the immersion and its flow time."""
    with open(path, "r") as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != f"# schema={SNAPSHOT_SCHEMA}":
        raise ConfigError(f"{path}: not a {SNAPSHOT_SCHEMA} file")
    meta: dict[str, str] = {}
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        for tok in line[1:].strip().split():
            if "=" in tok:
                k, v = tok.split("=", 1)
                meta[k] = v
    else:
        body_start = len(lines)
    try:
        t = float(meta["t"])
        m = int(meta["m"])
        n = int(meta["n"])
        domain = Domain(meta["domain"])
        resolution = tuple(int(x) for x in meta["resolution"].split("x"))
        fd_order = int(meta.get("fd_order", "2"))
        bounds = None
        if "interval" in meta:
            a, b = meta["interval"].split(",")
            bounds = (float(a), float(b))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed snapshot header ({exc})") from None
    spec = ChartSpec(domain, resolution, fd_order=fd_order, interval_bounds=bounds)
    chart = make_chart(spec)
    if chart.m != m:
        raise ConfigError(f"{path}: header m={m} conflicts with domain/resolution")
    rows = [l for l in lines[body_start:] if l.strip()]
    expected = chart.node_count
    if len(rows) != expected:
        raise ConfigError(f"{path}: row-count mismatch: expected {expected} data rows, found {len(rows)}")
    try:
        table = np.loadtxt(rows, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed data rows ({exc})") from None
    ncols = m + m + n
    if table.shape[1] != ncols:
        raise ConfigError(f"{path}: bad rows ({table.shape[1]} columns, expected {ncols})")
    vals = _place_rows(path, table, chart, n)
    affine = None
    if "affine" in meta:
        nums = [float(x) for x in meta["affine"].split(",")]
        mat = np.array(nums[: n * m]).reshape(n, m)
        off = np.array(nums[n * m:])
        affine = (mat, off)
    mask = None
    if "norm_mask" in meta:
        flat = np.array([c == "1" for c in meta["norm_mask"]], dtype=bool)
        mask = flat.reshape(chart.shape)
    return Immersion(chart, vals, affine=affine, norm_mask=mask), t


def _place_rows(path: str, table: np.ndarray, chart, n: int) -> np.ndarray:
    """Node values from snapshot rows (index, coordinate and value columns).

    Every node must appear exactly once, and each row's coordinates must be
    the chart's coordinates of its node.
    """
    m = chart.m
    idx = table[:, :m]
    shape = np.array(chart.shape)
    bad = np.flatnonzero(((idx != np.round(idx)) | (idx < 0) | (idx >= shape)).any(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: data row {bad[0] + 1} has node index "
                          f"{tuple(float(i) for i in idx[bad[0]])}, not a node "
                          f"of the chart {chart.shape}")
    idx = idx.astype(np.int64)
    flat = np.ravel_multi_index(tuple(idx.T), chart.shape)
    count = np.bincount(flat, minlength=chart.node_count)
    if np.any(count != 1):
        dup = int(np.argmax(count > 1))
        node = lambda i: tuple(int(j) for j in np.unravel_index(i, chart.shape))
        raise ConfigError(f"{path}: node {node(dup)} appears {count[dup]} times "
                          f"and node {node(int(np.argmax(count == 0)))} is missing")
    coords = np.stack([c[i] for c, i in zip(chart.coords, idx.T)], axis=1)
    off = ~(np.abs(table[:, m:2 * m] - coords) <= 1e-12 * (1.0 + np.abs(coords)))
    bad = np.flatnonzero(off.any(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: data row {bad[0] + 1} gives coordinates "
                          f"{tuple(float(x) for x in table[bad[0], m:2 * m])} "
                          f"for node {tuple(int(i) for i in idx[bad[0]])}, whose "
                          f"chart coordinates are "
                          f"{tuple(float(x) for x in coords[bad[0]])}")
    vals = np.empty((chart.node_count, n))
    vals[flat] = table[:, 2 * m:]
    return vals.reshape(chart.shape + (n,))


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

def write_diagnostics(trace, path: str):
    """One CSV row per trace record, full double precision, LF endings.

    Works for both flow traces (t, dt, max_A2, max_H2, volume, min_detg and
    optionally huisken) and potential-flow traces (alpha and Hessian
    columns)."""
    records = trace.records
    is_potential = bool(records) and hasattr(records[0], "alpha_min")
    if is_potential:
        header = ["t", "dt", "alpha_min", "alpha_max", "hess_phi_inf", "H_inf"]
        rows = [
            [r.t, r.dt, r.alpha_min, r.alpha_max, r.hess_phi_inf, r.H_inf]
            for r in records
        ]
    else:
        with_h = any(r.huisken is not None for r in records)
        header = ["t", "dt", "max_A2", "max_H2", "volume", "min_detg"]
        if with_h:
            header.append("huisken")
        rows = []
        for r in records:
            row = [r.t, r.dt, r.max_A2, r.max_H2, r.volume, r.min_detg]
            if with_h:
                row.append(math.nan if r.huisken is None else r.huisken)
            rows.append(row)
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _imm_to_json(imm: Immersion) -> dict:
    spec = imm.chart.spec
    d = {
        "domain": spec.domain.value,
        "resolution": list(spec.resolution),
        "fd_order": spec.fd_order,
        "n": imm.n,
        "values": [float(x) for x in imm.values.ravel()],
    }
    if spec.interval_bounds is not None:
        d["interval_bounds"] = list(spec.interval_bounds)
    if imm.affine is not None:
        d["affine_matrix"] = [float(x) for x in imm.affine[0].ravel()]
        d["affine_offset"] = [float(x) for x in imm.affine[1]]
    if imm.norm_mask is not None:
        d["norm_mask"] = "".join("1" if v else "0" for v in imm.norm_mask.ravel())
    return d


def _imm_from_json(d: dict) -> Immersion:
    bounds = tuple(d["interval_bounds"]) if "interval_bounds" in d else None
    spec = ChartSpec(Domain(d["domain"]), tuple(d["resolution"]),
                     fd_order=d["fd_order"], interval_bounds=bounds)
    chart = make_chart(spec)
    vals = np.array(d["values"]).reshape(chart.shape + (d["n"],))
    affine = None
    if "affine_matrix" in d:
        mat = np.array(d["affine_matrix"]).reshape(d["n"], chart.m)
        affine = (mat, np.array(d["affine_offset"]))
    mask = None
    if "norm_mask" in d:
        mask = np.array([c == "1" for c in d["norm_mask"]], dtype=bool).reshape(chart.shape)
    return Immersion(chart, vals, affine=affine, norm_mask=mask)


def _record_to_json(r: TraceRecord) -> dict:
    return {
        "t": r.t, "dt": r.dt, "max_A2": r.max_A2,
        "max_A2_trusted": r.max_A2_trusted, "max_H2": r.max_H2,
        "volume": r.volume, "min_detg": r.min_detg,
        "argmax_node": r.argmax_node, "step_index": r.step_index,
        "huisken": r.huisken,
    }


def write_checkpoint(path: str, state: FlowState, trace: FlowTrace,
                     scenario_text: str):
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "scenario_hash": scenario_hash(scenario_text),
        "t": state.t,
        "step_index": state.step_index,
        "immersion": _imm_to_json(state.imm),
        "records": [_record_to_json(r) for r in trace.records],
        "chart_shape": list(trace.chart_shape),
    }
    _atomic_write(path, json.dumps(doc))


def read_checkpoint(path: str, scenario_text: str | None = None) -> tuple[FlowState, FlowTrace]:
    with open(path, "r") as f:
        doc = json.load(f)
    if doc.get("schema") != CHECKPOINT_SCHEMA:
        raise ConfigError(f"{path}: not a {CHECKPOINT_SCHEMA} file")
    if scenario_text is not None and doc["scenario_hash"] != scenario_hash(scenario_text):
        raise UsageError(
            f"{path}: checkpoint belongs to a different scenario "
            f"(hash {doc['scenario_hash']})")
    imm = _imm_from_json(doc["immersion"])
    from .geometry import build_bundle

    state = FlowState(t=doc["t"], imm=imm, bundle=build_bundle(imm),
                      step_index=doc["step_index"])
    trace = FlowTrace(chart_shape=tuple(doc["chart_shape"]))
    for i, rd in enumerate(doc["records"]):
        if "max_A2_trusted" not in rd:
            # no fallback to max_A2: the fit and the classification of a
            # resumed run must read the same series as an uninterrupted one
            raise ConfigError(f"{path}: record {i} lacks the field max_A2_trusted")
        trace.records.append(TraceRecord(
            t=rd["t"], dt=rd["dt"], max_A2=rd["max_A2"],
            max_A2_trusted=rd["max_A2_trusted"], max_H2=rd["max_H2"],
            volume=rd["volume"], min_detg=rd["min_detg"],
            argmax_node=rd["argmax_node"], step_index=rd.get("step_index", 0),
            huisken=rd["huisken"],
        ))
    return state, trace


def resume_run(state: FlowState, saved: FlowTrace, config: FlowConfig,
               huisken_params=None) -> tuple[FlowTrace, FlowState]:
    """Continue a checkpointed run; the stitched trace matches an
    uninterrupted run record-for-record.

    The saved trace's trailing record is dropped when it was forced at the
    interruption point off the record cadence; the resumed trace's leading
    record duplicates the checkpointed state and is always dropped.
    """
    from .flow import run

    new_trace, final = run(state.imm, config, huisken_params=huisken_params,
                           initial_state=state)
    stitched = FlowTrace(chart_shape=saved.chart_shape)
    kept = list(saved.records)
    advanced = len(new_trace.records) > 1
    if advanced and kept and kept[-1].step_index % config.record_every != 0 \
            and kept[-1].step_index != 0:
        kept = kept[:-1]
    stitched.records = kept + new_trace.records[1:]
    stitched.termination = new_trace.termination
    stitched.termination_detail = new_trace.termination_detail
    return stitched, final
