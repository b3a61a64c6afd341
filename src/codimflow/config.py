"""Scenario configuration: flat dotted-key text files -> validated Scenario.

Format: one `key = value` per line, `#` starts a comment, arrays are
comma-separated. Parsing collects every error (with line numbers) instead of
stopping at the first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .catalog import catalog_names, resolution_params
from .errors import ConfigError
from .flow import FlowConfig, Integrator
from .grid import MIN_RESOLUTION


@dataclass(frozen=True)
class AnalysisSpec:
    kind: str                      # monotonicity | soliton | rescale | classify | lagrangian_report
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PotentialSpec:
    S: np.ndarray
    phi_terms: list          # [(coef, [(fn, k, axis), ...]), ...]
    resolution: tuple[int, ...]
    fd_order: int = 2


@dataclass(frozen=True)
class Scenario:
    name: str
    initial_kind: str              # catalog | potential | snapshot
    catalog_name: str | None
    catalog_params: dict
    potential: PotentialSpec | None
    snapshot_path: str | None
    flow: FlowConfig
    analyses: list[AnalysisSpec]
    output_dir: str


_PHI_TERM = re.compile(
    r"^\s*(?P<coef>[-+]?[\d.eE+-]+)\s*(?P<factors>(\*\s*(sin|cos)\(\s*(\d+\s*\*\s*)?x\d\s*\))+)\s*$"
)
_PHI_FACTOR = re.compile(r"\*\s*(?P<fn>sin|cos)\(\s*(?:(?P<k>\d+)\s*\*\s*)?x(?P<ax>\d)\s*\)")


def parse_phi_term(text: str):
    """Parse one Fourier product term like `0.1*sin(x1)*cos(2*x2)`."""
    m = _PHI_TERM.match(text)
    if not m:
        raise ValueError(f"bad phi term {text!r}; expected like 0.1*sin(x1)*cos(2*x2)")
    coef = float(m.group("coef"))
    factors = []
    for fm in _PHI_FACTOR.finditer(m.group("factors")):
        k = int(fm.group("k") or 1)
        factors.append((fm.group("fn"), k, int(fm.group("ax")) - 1))
    return coef, factors


def coerce_scalar(raw: str):
    """raw as an int, else as a float, else the string itself."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def evaluate_phi(spec: PotentialSpec, mesh: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(mesh[0].shape)
    for coef, factors in spec.phi_terms:
        term = np.full(mesh[0].shape, coef)
        for fn, k, ax in factors:
            if ax >= len(mesh):
                raise ConfigError(f"phi term references axis x{ax + 1} beyond dimension")
            f = np.sin if fn == "sin" else np.cos
            term = term * f(k * mesh[ax])
        out += term
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.errors: list[str] = []
        self.kv: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                self.errors.append(f"line {lineno}: expected 'key = value'")
                continue
            key, value = line.split("=", 1)
            key = key.strip()
            if key in self.kv:
                self.errors.append(f"line {lineno}: duplicate key {key!r}")
            self.kv[key] = (value.strip(), lineno)
        self.used: set[str] = set()

    def err(self, key: str, message: str):
        lineno = self.kv[key][1] if key in self.kv else 0
        where = f"line {lineno}: " if lineno else ""
        self.errors.append(f"{where}{message}")

    def get(self, key: str, default=None):
        self.used.add(key)
        if key not in self.kv:
            return default
        return self.kv[key][0]

    def get_typed(self, key: str, parse, default=None, what: str | None = None):
        """parse(value at key); default when unset, or when parse fails, which
        is reported with the expected form `what` (_EXPECTED[parse] unless given)."""
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return parse(raw)
        except (TypeError, ValueError):
            self.err(key, f"{key}: expected {what or _EXPECTED[parse]}, got {raw!r}")
            return default

    def floats(self, key: str, default=None):
        return self.get_typed(key, lambda raw: [float(x) for x in raw.split(",")], default,
                              "comma-separated numbers")

    def resolution(self, key: str):
        """The comma-separated node counts at key, None when unset or bad;
        each below MIN_RESOLUTION is reported."""
        res = self.get_typed(key, lambda raw: tuple(int(x) for x in raw.split(",")),
                             what="comma-separated integers")
        for r in res or ():
            if r < MIN_RESOLUTION:
                self.err(key, f"resolution below minimum {MIN_RESOLUTION}")
        return res

    def finish_unknown(self):
        for key, (_, lineno) in sorted(self.kv.items(), key=lambda it: it[1][1]):
            if key not in self.used:
                self.errors.append(f"line {lineno}: unknown key {key!r}")


_EXPECTED = {int: "integer", float: "number",
             Integrator: f"one of {[i.value for i in Integrator]}"}
_KNOWN_ANALYSES = ("monotonicity", "soliton", "rescale", "classify", "lagrangian_report")


def parse_config(text: str) -> Scenario:
    """Parse and validate a scenario; raises ConfigError listing every
    problem found (one line each, with line numbers)."""
    p = _Parser(text)

    name = p.get("name", "scenario")

    # --- initial data -----------------------------------------------------
    sources = []
    catalog_name = p.get("initial.catalog")
    if catalog_name is not None:
        sources.append("catalog")
    snapshot_path = p.get("initial.snapshot")
    if snapshot_path is not None:
        sources.append("snapshot")
    has_potential = any(k.startswith("initial.potential.") for k in p.kv)
    if has_potential:
        sources.append("potential")
    if len(sources) == 0:
        p.errors.append("no initial source: set initial.catalog, "
                        "initial.potential.*, or initial.snapshot")
    elif len(sources) > 1:
        p.errors.append(f"exactly one initial source required, got {sources}")
    initial_kind = sources[0] if len(sources) == 1 else "catalog"

    catalog_params: dict = {}
    if catalog_name is not None:
        if catalog_name not in catalog_names():
            p.err("initial.catalog",
                  f"unknown catalog example {catalog_name!r}; known: {', '.join(catalog_names())}")
        for key in list(p.kv):
            if key.startswith("initial.") and key not in (
                "initial.catalog", "initial.snapshot"
            ) and not key.startswith("initial.potential."):
                catalog_params[key.split(".", 1)[1]] = coerce_scalar(p.get(key))

    potential = None
    if has_potential:
        m = p.get_typed("initial.potential.m", int, 2)
        resolution = p.resolution("initial.potential.resolution") or (64,)
        if len(resolution) == 1:
            resolution = resolution * m
        svals = p.floats("initial.potential.S", [0.0] * (m * m))
        S = np.zeros((m, m))
        if not all(map(math.isfinite, svals)):
            p.err("initial.potential.S", "initial.potential.S: entries must be finite")
        elif len(svals) == m * m:
            S = np.array(svals).reshape(m, m)
        elif len(svals) == m:
            S = np.diag(svals)
        else:
            p.err("initial.potential.S",
                  f"S needs {m} (diagonal) or {m * m} (full) entries")
        phi_terms = []
        raw_phi = p.get("initial.potential.phi", "")
        if raw_phi:
            for term in raw_phi.split(","):
                try:
                    phi_terms.append(parse_phi_term(term))
                except ValueError as exc:
                    p.err("initial.potential.phi", str(exc))
        fd_order = p.get_typed("initial.potential.fd_order", int, 2)
        potential = PotentialSpec(S=S, phi_terms=phi_terms,
                                  resolution=resolution, fd_order=fd_order)

    # --- grid overrides: a catalog example's node counts and order ----------
    res = p.resolution("grid.resolution")
    fd = p.get_typed("grid.fd_order", int)
    if fd not in (None, 2, 4):
        p.err("grid.fd_order", "fd_order must be 2 or 4")
    for key, value in (("grid.resolution", res), ("grid.fd_order", fd)):
        if value is not None and catalog_name is None:
            p.err(key, f"{key} is read only with initial.catalog (a potential sets "
                       f"initial.potential.{key[5:]}, a snapshot keeps its own grid)")
    if res and catalog_name in catalog_names():
        own = resolution_params(catalog_name)
        names = {1: ("n",), 2: ("J", "K")}.get(len(res))
        if names and set(names) <= set(own):
            for k, r in zip(names, res):
                catalog_params.setdefault(k, r)
        else:
            p.err("grid.resolution",
                  f"grid.resolution: {len(res)} counts do not fit catalog example "
                  f"{catalog_name!r}; set {', '.join('initial.' + k for k in own)}")
    if fd in (2, 4) and catalog_name is not None:
        catalog_params.setdefault("fd_order", fd)

    # --- flow config: a flow.* key per FlowConfig field, parsed by the
    # field's annotation; FlowConfig holds the defaults
    flow_kwargs = {}
    for f in fields(FlowConfig):
        parse = {"int": int, "Integrator": Integrator}.get(f.type, float)
        value = p.get_typed(f"flow.{f.name}", parse)
        if value is not None:
            flow_kwargs[f.name] = value
    try:
        flow = FlowConfig(**flow_kwargs)
    except Exception as exc:
        p.errors.append(f"flow configuration invalid: {exc}")
        flow = FlowConfig()
    if has_potential and not math.isfinite(flow.stop_t_max):
        # no stop condition fires on a flattening graph
        p.errors.append("potential scenarios need flow.stop_t_max")

    # --- analyses ----------------------------------------------------------
    analyses: list[AnalysisSpec] = []
    raw = p.get("analyses", "")
    requested = [a.strip() for a in raw.split(",") if a.strip()] if raw else []
    for a in requested:
        if a not in _KNOWN_ANALYSES:
            p.err("analyses", f"unknown analysis {a!r}; known: {', '.join(_KNOWN_ANALYSES)}")
            continue
        params: dict = {}
        if a == "monotonicity":
            q = p.floats("analysis.monotonicity.q", [0.0, 0.0])
            t0 = p.get_typed("analysis.monotonicity.t0", float)
            if t0 is None:
                p.errors.append("analysis.monotonicity.t0 is required")
                t0 = 1.0
            params = {"q": q, "t0": t0}
        elif a == "soliton":
            kind = p.get("analysis.soliton.kind", "shrinker")
            if kind not in ("shrinker", "expander", "translator"):
                p.err("analysis.soliton.kind", f"bad soliton kind {kind!r}")
            params = {"kind": kind}
            V = p.floats("analysis.soliton.V")
            if V is not None:
                params["V"] = V
            elif kind == "translator":
                p.errors.append("analysis.soliton.V is required for translator")
        elif a == "rescale":
            mode = p.get("analysis.rescale.mode", "type1")
            if mode not in ("type1", "type2"):
                p.err("analysis.rescale.mode", f"mode must be type1 or type2, got {mode!r}")
            k = p.get_typed("analysis.rescale.k", int, 10)
            if k < 1:
                p.err("analysis.rescale.k", "analysis.rescale.k must be a positive integer")
            params = {"mode": mode, "k": k}
        analyses.append(AnalysisSpec(kind=a, params=params))

    output_dir = p.get("output.dir", "out")

    p.finish_unknown()
    if p.errors:
        raise ConfigError("configuration errors:\n  " + "\n  ".join(p.errors))
    return Scenario(
        name=name,
        initial_kind=initial_kind,
        catalog_name=catalog_name,
        catalog_params=catalog_params,
        potential=potential,
        snapshot_path=snapshot_path,
        flow=flow,
        analyses=analyses,
        output_dir=output_dir,
    )
