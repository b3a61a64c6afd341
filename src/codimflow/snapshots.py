"""Plain-text persistence: immersion snapshots, diagnostics CSV, checkpoints.

Snapshots are diff-able text with a fixed header and one row per node in
lexicographic index order; floats are printed with 17 significant digits so
a read-back reproduces the positions bit-exactly; one writer and one reader
serve both snapshot files and checkpoints. A checkpoint is a JSON object
holding its state as snapshot text and the trace's records field by field.
All writes are whole-file atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import fields
from functools import lru_cache

import numpy as np

from .errors import CodimflowError, ConfigError, UsageError
from .flow import FlowConfig, FlowState, FlowTrace, TraceRecord, run
from .geometry import Immersion, build_bundle
from .grid import ChartSpec, Domain, make_chart

SNAPSHOT_SCHEMA = "codimflow.snapshot.v1"
CHECKPOINT_SCHEMA = "codimflow.checkpoint.v2"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def read_text(path: str) -> str:
    """The text of a UTF-8 file; undecodable bytes raise ConfigError naming
    the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


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

def _snapshot_text(imm: Immersion, t: float) -> str:
    """The snapshot of an immersion at flow time t, as text."""
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
    body = _rows_template(spec, imm.n) % tuple(imm.values.ravel().tolist())
    return "\n".join(lines) + "\n" + body


@lru_cache(maxsize=16)
def _rows_template(spec: ChartSpec, n: int) -> str:
    """The snapshot rows of a chart, one per node in lexicographic order:
    index and coordinate columns formatted, the n value columns left as
    %.17g fields to fill with one % from the C-order values."""
    chart = make_chart(spec)
    table = np.concatenate([np.indices(chart.shape).reshape(chart.m, -1).T,
                            np.stack([c.ravel() for c in chart.mesh()], axis=1)], axis=1)
    row = " ".join(["%d"] * chart.m + ["%.17g"] * chart.m) + " %%.17g" * n + "\n"
    return "".join(row % tuple(r) for r in table.tolist())


def _parse_snapshot(text: str, source: str) -> tuple[Immersion, float]:
    """The immersion and flow time of snapshot text; any defect raises
    ConfigError naming source."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != f"# schema={SNAPSHOT_SCHEMA}":
        raise ConfigError(f"{source}: not a {SNAPSHOT_SCHEMA} file")
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
        if not math.isfinite(t):
            raise ValueError(f"t={meta['t']} is not finite")
        m = int(meta["m"])
        n = int(meta["n"])
        domain = Domain(meta["domain"])
        resolution = tuple(int(x) for x in meta["resolution"].split("x"))
        fd_order = int(meta.get("fd_order", "2"))
        bounds = None
        if "interval" in meta:
            a, b = meta["interval"].split(",")
            bounds = (float(a), float(b))
        affine = None
        if "affine" in meta:
            nums = [float(x) for x in meta["affine"].split(",")]
            if len(nums) != n * m + n:
                raise ValueError(f"affine has {len(nums)} entries, expected {n * m + n}")
            affine = (np.array(nums[: n * m]).reshape(n, m), np.array(nums[n * m:]))
        chart = make_chart(ChartSpec(domain, resolution, fd_order=fd_order,
                                     interval_bounds=bounds))
        mask = None
        if "norm_mask" in meta:
            packed = meta["norm_mask"]
            if len(packed) != chart.node_count or set(packed) - {"0", "1"}:
                raise ValueError(f"norm_mask is not {chart.node_count} digits 0 or 1")
            mask = np.array([c == "1" for c in packed]).reshape(chart.shape)
    except (KeyError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{source}: malformed snapshot header ({exc})") from None
    if chart.m != m:
        raise ConfigError(f"{source}: header m={m} conflicts with domain/resolution")
    rows = [l for l in lines[body_start:] if l.strip()]
    expected = chart.node_count
    if len(rows) != expected:
        raise ConfigError(f"{source}: row-count mismatch: expected {expected} data rows, found {len(rows)}")
    try:
        table = np.loadtxt(rows, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{source}: malformed data rows ({exc})") from None
    ncols = m + m + n
    if table.shape[1] != ncols:
        raise ConfigError(f"{source}: bad rows ({table.shape[1]} columns, expected {ncols})")
    vals = _place_rows(source, table, chart, n)
    try:
        return Immersion(chart, vals, affine=affine, norm_mask=mask), t
    except CodimflowError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def write_snapshot(state: FlowState | Immersion, path: str, t: float | None = None):
    """Write an immersion (or flow state) as a text snapshot."""
    if isinstance(state, Immersion):
        imm, t = state, (0.0 if t is None else t)
    else:
        imm, t = state.imm, state.t
    _atomic_write(path, _snapshot_text(imm, t))


def read_snapshot(path: str) -> tuple[Immersion, float]:
    """Read a snapshot; returns the immersion and its flow time."""
    return _parse_snapshot(read_text(path), path)


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

    The columns are the trace's CSV_COLUMNS (flow traces: t, dt, max_A2,
    max_H2, volume, min_detg; potential-flow traces: alpha and Hessian
    columns), then huisken when any record has a Huisken value; a record
    without one writes nan there."""
    records = trace.records
    header = trace.CSV_COLUMNS
    if any(getattr(r, "huisken", None) is not None for r in records):
        header += ("huisken",)
    lines = [",".join(header)]
    for r in records:
        row = (getattr(r, c) for c in header)
        lines.append(",".join(_fmt(math.nan if x is None else x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# JSON types of the record fields, by annotation; a record is written and
# read field by field, so TraceRecord is the one statement of its schema
_JSON_TYPES = {"int": (int,), "float": (float, int), "float | None": (float, int, type(None))}
_RECORD_FIELDS = {f.name: _JSON_TYPES[f.type] for f in fields(TraceRecord)
                  if f.name != "snapshot"}
_CHECKPOINT_FIELDS = {"schema": (str,), "scenario_hash": (str,), "step_index": (int,),
                      "snapshot": (str,), "records": (list,)}


def _checked(path: str, what: str, doc, spec: dict) -> dict:
    """doc, when it is a JSON object with exactly the fields of spec, each
    of one of its types; ConfigError otherwise."""
    if type(doc) is not dict:
        raise ConfigError(f"{path}: {what} is not a JSON object")
    for name, types in spec.items():
        if name not in doc:
            raise ConfigError(f"{path}: {what} lacks the field {name}")
        if type(doc[name]) not in types:
            raise ConfigError(f"{path}: {what} field {name} is a {type(doc[name]).__name__}")
    unknown = [name for name in doc if name not in spec]
    if unknown:
        raise ConfigError(f"{path}: {what} has the unknown field {unknown[0]}")
    return doc


def write_checkpoint(path: str, state: FlowState, trace: FlowTrace,
                     scenario_text: str):
    """The state as a snapshot, and the trace's records without theirs."""
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "scenario_hash": scenario_hash(scenario_text),
        "step_index": state.step_index,
        "snapshot": _snapshot_text(state.imm, state.t),
        "records": [{name: getattr(r, name) for name in _RECORD_FIELDS}
                    for r in trace.records],
    }
    _atomic_write(path, json.dumps(doc))


def _refuse_constant(name: str):
    raise ValueError(f"the non-finite number {name}")


def read_checkpoint(path: str, scenario_text: str | None = None) -> tuple[FlowState, FlowTrace]:
    """The state and trace of a checkpoint; a malformed file raises
    ConfigError, one of another scenario UsageError. NaN and +-Infinity are
    malformed: a run records none, as a step whose state is not finite ends
    it as Degenerate."""
    try:
        doc = json.loads(read_text(path), parse_constant=_refuse_constant)
    except ValueError as exc:
        raise ConfigError(f"{path}: not JSON ({exc})") from None
    if type(doc) is not dict or doc.get("schema") != CHECKPOINT_SCHEMA:
        raise ConfigError(f"{path}: not a {CHECKPOINT_SCHEMA} file")
    _checked(path, "the checkpoint", doc, _CHECKPOINT_FIELDS)
    if scenario_text is not None and doc["scenario_hash"] != scenario_hash(scenario_text):
        raise UsageError(
            f"{path}: checkpoint belongs to a different scenario "
            f"(hash {doc['scenario_hash']})")
    # no fallback for a record that lacks max_A2_trusted: the fit and the
    # classification of a resumed run must read the same series as an
    # uninterrupted one
    records = [TraceRecord(**_checked(path, f"record {i}", rd, _RECORD_FIELDS))
               for i, rd in enumerate(doc["records"])]
    imm, t = _parse_snapshot(doc["snapshot"], f"{path}: snapshot")
    # the resumed run continues the record cadence from the state's own record
    if not records or (records[-1].step_index, records[-1].t) != (doc["step_index"], t):
        raise ConfigError(f"{path}: the last record is not the checkpointed state's "
                          f"(step_index {doc['step_index']}, t = {t!r})")
    state = FlowState(t=t, imm=imm, bundle=build_bundle(imm), step_index=doc["step_index"])
    return state, FlowTrace(records=records)


def resume_run(state: FlowState, saved: FlowTrace, config: FlowConfig) -> tuple[FlowTrace, FlowState]:
    """Continue a checkpointed run; the trace matches an uninterrupted run
    record for record, and its snapshots from the checkpointed state on.

    The saved trace's last record is the checkpointed state's. run continues
    the record and snapshot cadence of the saved records: it drops that last
    record when the state is off the record cadence and the run steps on,
    and otherwise makes it again, with its snapshot when one is due and
    always when the state is final.
    """
    return run(state.imm, config, initial_state=state, records=saved.records)
