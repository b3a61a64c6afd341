"""Configuration parsing, persistence formats, checkpoint resume, and the
command-line surface with its exit-code contract."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from codimflow import catalog
from codimflow.config import parse_config
from codimflow.errors import ConfigError, UsageError
from codimflow.flow import FlowConfig, FlowState, Integrator, estimate_singular_time, run
from codimflow.geometry import build_bundle
from codimflow.grid import ChartSpec, Domain, GridField, make_chart
from codimflow.lagrangian import Potential, PotentialFlowConfig, lag_immersion
from codimflow.singularity import hamilton_rescale
from codimflow.snapshots import (
    _snapshot_text, read_checkpoint, read_snapshot, resume_run, write_checkpoint,
    write_diagnostics, write_snapshot,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*argv, cwd=None, env=None):
    """A fresh interpreter on argv, with the package's source on its path."""
    e = dict(os.environ)
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, e.get("PYTHONPATH")]))
    if env:
        e.update(env)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=e)


def run_cli(*args, cwd=None, env=None):
    return run_python("-m", "codimflow.cli", *args, cwd=cwd, env=env)


def readme_scenarios() -> list[str]:
    """The README's ini blocks, in order."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as f:
        return [b.split("```", 1)[0] for b in f.read().split("```ini\n")[1:]]


class TestParseConfig:
    def test_readme_scenarios_parse(self):
        # every ini block of the README is a scenario the parser accepts
        blocks = readme_scenarios()
        names = [parse_config(b).name for b in blocks]
        assert names == ["circle-extinction", "convex-torus"]

    def test_valid_sphere_scenario(self):
        s = parse_config(
            "initial.catalog = sphere\n"
            "initial.radius = 1.0\n"
            "flow.stop_t_max = 0.3\n"
        )
        assert s.catalog_name == "sphere"
        assert s.catalog_params["radius"] == 1.0
        assert s.flow.stop_t_max == 0.3

    def test_resolution_floor_reported_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2: resolution below minimum 8"):
            parse_config("initial.potential.m = 2\ninitial.potential.resolution = 4\n"
                         "flow.stop_t_max = 1\n")

    def test_missing_initial(self):
        with pytest.raises(ConfigError, match="no initial source"):
            parse_config("flow.stop_t_max = 1.0\n")

    def test_all_errors_collected(self):
        try:
            parse_config(
                "initial.catalog = nonexistent\n"
                "flow.integrator = warp\n"
                "flow.record_every = x\n"
                "mystery = 1\n"
            )
        except ConfigError as exc:
            text = str(exc)
            assert "nonexistent" in text
            assert "warp" in text
            assert "record_every" in text
            assert "mystery" in text
        else:
            pytest.fail("expected ConfigError")

    def test_two_sources_rejected(self):
        with pytest.raises(ConfigError, match="exactly one initial source"):
            parse_config("initial.catalog = circle\ninitial.snapshot = x.snap\n")

    def test_potential_parsing(self):
        s = parse_config(
            "initial.potential.m = 2\n"
            "initial.potential.resolution = 64\n"
            "initial.potential.S = 0.5,0.8\n"
            "initial.potential.phi = 0.1*sin(x1), 0.1*cos(x2)\n"
            "flow.stop_t_max = 5\n"
        )
        assert s.initial_kind == "potential"
        assert np.allclose(s.potential.S, np.diag([0.5, 0.8]))
        assert len(s.potential.phi_terms) == 2

    def test_phi_products_and_harmonics(self):
        s = parse_config(
            "initial.potential.m = 2\n"
            "initial.potential.phi = 0.2*sin(x1)*cos(2*x2)\n"
            "flow.stop_t_max = 1\n"
        )
        coef, factors = s.potential.phi_terms[0]
        assert coef == 0.2
        assert factors == [("sin", 1, 0), ("cos", 2, 1)]

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_potential_nonfinite_S_rejected(self, bad):
        with pytest.raises(ConfigError, match="initial.potential.S: entries must be finite"):
            parse_config("initial.potential.m = 2\n"
                         f"initial.potential.S = {bad},0,0,1\n"
                         "flow.stop_t_max = 1\n")

    def test_potential_needs_stop_t_max(self):
        # no stop condition fires on a flattening graph
        with pytest.raises(ConfigError, match="potential scenarios need flow.stop_t_max"):
            parse_config("initial.potential.m = 2\ninitial.potential.resolution = 16\n")

    @pytest.mark.parametrize("phi", ["0.1*sin(x0)", "0.1*cos(x1)*sin(2*x3)"])
    def test_phi_axis_outside_the_torus_rejected_with_line(self, phi):
        # the 2-torus has axes x1 and x2 only: x0 and x3 name none
        with pytest.raises(ConfigError, match=r"line 2: phi term .*: the 2-torus has axes x1..x2"):
            parse_config(f"initial.potential.m = 2\ninitial.potential.phi = {phi}\n"
                         "flow.stop_t_max = 1\n")

    @pytest.mark.parametrize("flow_type", [FlowConfig, PotentialFlowConfig],
                             ids=["run", "lagrangian"])
    def test_one_error_lists_every_unread_key(self, flow_type):
        # the keys set and never read follow the value errors, each with its line
        with pytest.raises(ConfigError) as exc:
            parse_config("initial.potential.m = 2\ninitial.potential.S = inf,0,0,1\n"
                         "grid.fd_order = 4\nflow.stop_t_max = 1\nanalyses = soliton\n"
                         "analysis.soliton.kind = shrinker\nanalysis.soliton.V = 0,1\n"
                         "flow.bogus = 3\n", flow_type)
        assert str(exc.value).splitlines() == [
            "configuration errors:",
            "  line 2: initial.potential.S: entries must be finite",
            "  line 3: unknown key 'grid.fd_order'",
            "  line 7: analysis.soliton.V is read only by kind translator, not 'shrinker'",
            "  line 8: unknown key 'flow.bogus'",
        ]

    def test_translator_requires_V(self):
        with pytest.raises(ConfigError, match="soliton.V"):
            parse_config(
                "initial.catalog = grim_reaper\n"
                "analyses = soliton\n"
                "analysis.soliton.kind = translator\n"
            )

    @pytest.mark.parametrize("kind", ["shrinker", "expander"])
    def test_soliton_V_refused_for_other_kinds(self, kind):
        # only the translator residual reads a velocity
        with pytest.raises(ConfigError, match="line 4: analysis.soliton.V is read only "
                                              "by kind translator, not '" + kind):
            parse_config("initial.catalog = circle\nanalyses = soliton\n"
                         f"analysis.soliton.kind = {kind}\nanalysis.soliton.V = 0,1\n")


class TestDiagnosticsCSV:
    def test_columns_and_precision(self, tmp_path):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.05, record_every=20)
        trace, _ = run(catalog.circle(n=64), cfg)
        path = tmp_path / "d.csv"
        write_diagnostics(trace, str(path))
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "t,dt,max_A2,max_H2,volume,min_detg"
        assert len(lines) == len(trace.records) + 1
        assert "\r" not in text
        # 17-significant-digit round trip
        val = float(lines[1].split(",")[4])
        assert val == trace.records[0].volume
        vols = np.array([float(l.split(",")[4]) for l in lines[1:]])
        assert np.all(np.diff(vols) < 0)

    def test_huisken_column(self, tmp_path):
        from codimflow.singularity import DensityParams

        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.05, record_every=20)
        trace, _ = run(catalog.circle(n=64), cfg,
                       huisken_params=DensityParams(q=np.zeros(2), t0=0.5))
        path = tmp_path / "d.csv"
        write_diagnostics(trace, str(path))
        assert path.read_text().splitlines()[0].endswith(",huisken")

    def test_empty_trace_header_only(self, tmp_path):
        from codimflow.flow import FlowTrace

        path = tmp_path / "e.csv"
        write_diagnostics(FlowTrace(), str(path))
        assert path.read_text() == "t,dt,max_A2,max_H2,volume,min_detg\n"

    def test_huisken_cells_from_t0_on_are_nan(self, tmp_path):
        from codimflow.singularity import DensityParams

        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.05, record_every=5)
        trace, _ = run(catalog.circle(n=64), cfg,
                       huisken_params=DensityParams(q=np.zeros(2), t0=0.02))
        path = tmp_path / "d.csv"
        write_diagnostics(trace, str(path))
        header, *rows = [l.split(",") for l in path.read_text().splitlines()]
        assert header[-1] == "huisken"
        assert len(rows) == len(trace.records)
        assert all(len(row) == len(header) for row in rows)
        assert any(r.t < 0.02 for r in trace.records)
        assert any(r.t >= 0.02 for r in trace.records)
        for r, row in zip(trace.records, rows):
            if r.t >= 0.02:
                assert row[-1] == "nan"
            else:
                assert float(row[-1]) == r.huisken

    def test_potential_trace_columns(self, tmp_path):
        from codimflow.grid import ChartSpec, Domain, GridField, make_chart
        from codimflow.lagrangian import Potential, PotentialFlowConfig, ma_run

        ch = make_chart(ChartSpec(Domain.TORUS, (16, 16)))
        mesh = ch.mesh()
        p = Potential(np.zeros((2, 2)),
                      GridField(ch, (0.05 * np.sin(mesh[0]))[..., None]))
        tr = ma_run(p, PotentialFlowConfig(stop_t_max=0.05, record_every=5))
        path = tmp_path / "p.csv"
        write_diagnostics(tr, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "t,dt,alpha_min,alpha_max,hess_phi_inf,H_inf"


class TestSnapshots:
    def test_format_shape(self, tmp_path):
        imm = catalog.circle(radius=1.0, n=8)
        path = tmp_path / "c.snap"
        write_snapshot(imm, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=codimflow.snapshot.v1"
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 8
        assert len(data[0].split()) == 1 + 1 + 2  # index, coordinate, position

    def test_roundtrip_bit_exact(self, tmp_path):
        for imm in (catalog.whitney_sphere(J=8, K=16),
                    catalog.grim_reaper(n=64),
                    catalog.clifford_torus(n1=8, n2=8)):
            path = tmp_path / "x.snap"
            write_snapshot(imm, str(path), t=0.125)
            back, t = read_snapshot(str(path))
            assert t == 0.125
            assert np.array_equal(back.values, imm.values)
            if imm.affine is not None:
                assert np.array_equal(back.affine[0], imm.affine[0])
            if imm.norm_mask is not None:
                assert np.array_equal(back.norm_mask, imm.norm_mask)

    def test_rows_equal_the_per_row_formatter(self):
        # the cached row template formats the index and coordinate columns
        # once per chart; the rows equal one "%d ... %.17g" per table row
        def per_row(imm):
            chart = imm.chart
            table = np.concatenate([np.indices(chart.shape).reshape(chart.m, -1).T,
                                    np.stack([c.ravel() for c in chart.mesh()], axis=1),
                                    imm.values.reshape(-1, imm.n)], axis=1)
            row = " ".join(["%d"] * chart.m + ["%.17g"] * (chart.m + imm.n))
            return "".join(row % tuple(r) + "\n" for r in table.tolist())

        ch = make_chart(ChartSpec(Domain.TORUS, (8, 12), fd_order=4))
        X, Y = ch.mesh()
        graph = lag_immersion(Potential(np.array([[0.5, 0.1], [0.1, 0.8]]),
                                        GridField(ch, (0.1 * np.sin(X) * np.cos(Y))[..., None])))
        rng = np.random.default_rng(5)
        for imm in (catalog.circle(n=256), catalog.sphere(J=12, K=24),
                    catalog.whitney_sphere(J=12, K=24),
                    catalog.clifford_torus(n1=16, n2=16, fd_order=4),
                    catalog.grim_reaper(n=64), graph):
            for values in (imm.values, imm.values * rng.uniform(-3, 3, imm.values.shape)):
                moved = replace(imm, values=values)
                text = _snapshot_text(moved, 0.375)
                body = per_row(moved)
                head = text[:len(text) - len(body)].splitlines()
                assert text.endswith(body)
                assert head[0] == "# schema=codimflow.snapshot.v1"
                assert all(line.startswith("# ") for line in head)

    def test_truncated_file_errors(self, tmp_path):
        imm = catalog.circle(n=16)
        path = tmp_path / "t.snap"
        write_snapshot(imm, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-4]) + "\n")
        with pytest.raises(ConfigError, match="row-count mismatch: expected 16"):
            read_snapshot(str(path))

    def test_header_only_snapshot_errors(self, tmp_path):
        p = tmp_path / "c.snap"
        write_snapshot(catalog.circle(n=16), str(p))
        p.write_text("".join(l for l in p.read_text().splitlines(True) if l.startswith("#")))
        with pytest.raises(ConfigError, match="row-count mismatch: expected 16 data rows, found 0"):
            read_snapshot(str(p))

    @pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
    def test_non_finite_time_errors(self, tmp_path, t):
        path = tmp_path / "c.snap"
        write_snapshot(catalog.circle(n=16), str(path), t=0.25)
        path.write_text(path.read_text().replace("# t=0.25 ", f"# t={t} ", 1))
        with pytest.raises(ConfigError, match=f"malformed snapshot header \\(t={t} is not finite\\)"):
            read_snapshot(str(path))

    def test_header_m_conflicts_with_chart(self, tmp_path):
        path = tmp_path / "c.snap"
        write_snapshot(catalog.circle(n=16), str(path))
        path.write_text(path.read_text().replace(" m=1 ", " m=2 ", 1))
        with pytest.raises(ConfigError, match="header m=2 conflicts with domain/resolution"):
            read_snapshot(str(path))

    @staticmethod
    def crafted(tmp_path, edit):
        """A snapshot of an 8x8 sphere whose data rows pass through edit."""
        path = tmp_path / "s.snap"
        write_snapshot(catalog.sphere(J=8, K=8), str(path))
        lines = path.read_text().splitlines()
        head = [l for l in lines if l.startswith("#")]
        rows = [l.split() for l in lines if not l.startswith("#")]
        edit(rows)
        path.write_text("\n".join(head + [" ".join(r) for r in rows]) + "\n")
        return str(path)

    def test_duplicate_and_missing_node_errors(self, tmp_path):
        def duplicate(rows):
            rows[5] = list(rows[4])      # node (0, 4) twice, node (0, 5) absent
        with pytest.raises(ConfigError, match=r"node \(0, 4\) appears 2 times "
                                              r"and node \(0, 5\) is missing"):
            read_snapshot(self.crafted(tmp_path, duplicate))

    def test_node_index_outside_chart_errors(self, tmp_path):
        def outside(rows):
            rows[3][1] = "8"
        with pytest.raises(ConfigError, match=r"data row 4 has node index \(0.0, 8.0\), not a node"):
            read_snapshot(self.crafted(tmp_path, outside))

        def fractional(rows):
            rows[3][1] = "2.5"
        with pytest.raises(ConfigError, match="data row 4"):
            read_snapshot(self.crafted(tmp_path, fractional))

    def test_coordinates_checked_against_chart(self, tmp_path):
        def swapped(rows):
            # exchange the index columns of two rows but keep their
            # coordinates: every node still appears once
            rows[1][:2], rows[2][:2] = rows[2][:2], rows[1][:2]
        with pytest.raises(ConfigError, match="data row 2 gives coordinates"):
            read_snapshot(self.crafted(tmp_path, swapped))

    def test_rows_in_any_order(self, tmp_path):
        imm = catalog.sphere(J=8, K=8)
        back, _ = read_snapshot(self.crafted(tmp_path, list.reverse))
        assert np.array_equal(back.values, imm.values)

    def test_malformed_rows_error(self, tmp_path):
        def word(rows):
            rows[0][-1] = "abc"
        with pytest.raises(ConfigError, match="malformed data rows"):
            read_snapshot(self.crafted(tmp_path, word))

        def short(rows):
            rows[6].pop()
        with pytest.raises(ConfigError, match="malformed data rows"):
            read_snapshot(self.crafted(tmp_path, short))

        def narrow(rows):
            for r in rows:
                r.pop()
        with pytest.raises(ConfigError, match=r"bad rows \(6 columns, expected 7\)"):
            read_snapshot(self.crafted(tmp_path, narrow))

    def test_malformed_header_errors(self, tmp_path):
        path = tmp_path / "h.snap"
        write_snapshot(catalog.grim_reaper(n=16), str(path))
        text = path.read_text()
        for old, new in (("# fd_order=4", "# fd_order=four"),
                         ("# interval=", "# interval=0.5;")):
            path.write_text(text.replace(old, new))
            with pytest.raises(ConfigError, match="malformed snapshot header"):
                read_snapshot(str(path))

    def test_malformed_affine_and_mask_error(self, tmp_path):
        # a header error, not a failed reshape or a silently wrong mask
        path = tmp_path / "h.snap"
        write_snapshot(catalog.grim_reaper(n=16), str(path))
        text = path.read_text()
        for old, new, message in (("# affine=1,0,0,0", "# affine=1,0,0", "affine has 3 entries"),
                                  ("=0000111111110000", "=000011111111000", "norm_mask is not 16"),
                                  ("=0000111111110000", "=000011111111000x", "norm_mask is not 16")):
            path.write_text(text.replace(old, new))
            with pytest.raises(ConfigError, match=f"malformed snapshot header \\({message}"):
                read_snapshot(str(path))

    def test_wrong_schema_errors(self, tmp_path):
        path = tmp_path / "w.snap"
        path.write_text("# schema=somethingelse.v9\n")
        with pytest.raises(ConfigError, match="not a codimflow.snapshot.v1"):
            read_snapshot(str(path))


LAST_RECORD_OFF = "the last record is not the checkpointed state's"


def _edit_doc(change):
    """An edit of checkpoint text that applies change to its JSON object."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


class TestCheckpointResume:
    def test_bit_exact_resume(self, tmp_path):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.15, record_every=10)
        tr_full, fin_full = run(catalog.circle(n=64), cfg)
        tr_half, fin_half = run(catalog.circle(n=64), cfg, max_steps=23)
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin_half, tr_half, "scenario")
        state, saved = read_checkpoint(str(ck), scenario_text="scenario")
        tr_res, fin_res = resume_run(state, saved, cfg)
        assert np.array_equal(fin_full.imm.values, fin_res.imm.values)
        assert len(tr_full.records) == len(tr_res.records)
        for a, b in zip(tr_full.records, tr_res.records):
            assert (a.t, a.dt, a.max_A2, a.max_A2_trusted, a.volume, a.step_index) == \
                   (b.t, b.dt, b.max_A2, b.max_A2_trusted, b.volume, b.step_index)

    def test_sphere_resume_keeps_trusted_series(self, tmp_path):
        # on a sphere chart the trusted maximum leaves out the pole rings and
        # differs from max_A2; a resumed run must carry the same series
        cfg = FlowConfig(integrator=Integrator.SEMI_IMPLICIT, curvature_cap_rho=0.02,
                         stop_t_max=0.1, record_every=2)
        tr_full, fin_full = run(catalog.sphere(radius=1.0, J=12, K=24), cfg)  # 13 steps
        tr_half, fin_half = run(catalog.sphere(radius=1.0, J=12, K=24), cfg, max_steps=5)
        ck = tmp_path / "s.ckpt"
        write_checkpoint(str(ck), fin_half, tr_half, "sphere")
        state, saved = read_checkpoint(str(ck), scenario_text="sphere")
        tr_res, fin_res = resume_run(state, saved, cfg)
        assert np.array_equal(fin_full.imm.values, fin_res.imm.values)
        assert any(r.max_A2_trusted != r.max_A2 for r in tr_full.records)
        assert np.array_equal(tr_full.max_A2_trusted_series, tr_res.max_A2_trusted_series)
        assert [r.max_A2 for r in tr_full.records] == [r.max_A2 for r in tr_res.records]

    def test_resume_continues_snapshot_cadence(self, tmp_path):
        # interrupted at step 5, off the record cadence; an uninterrupted run
        # snapshots steps 0, 6, 12 and 18 (every third record, and the last)
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.04, record_every=2, snapshot_every=3)
        tr_full, fin_full = run(catalog.circle(n=64), cfg)
        tr_half, fin_half = run(catalog.circle(n=64), cfg, max_steps=5)

        def snapshot_steps(trace):
            return [r.step_index for r in trace.records if r.snapshot is not None]

        def fields(trace):
            return [(r.t, r.dt, r.max_A2, r.max_A2_trusted, r.step_index)
                    for r in trace.records]

        assert snapshot_steps(tr_full) == [0, 6, 12, 18]
        tr_res, fin_res = resume_run(fin_half, tr_half, cfg)
        assert snapshot_steps(tr_res) == [0, 6, 12, 18]
        assert fields(tr_res) == fields(tr_full)
        assert np.array_equal(fin_res.imm.values, fin_full.imm.values)
        for a, b in zip(tr_full.records, tr_res.records):
            if a.snapshot is not None:
                assert np.array_equal(a.snapshot.values, b.snapshot.values)

        # checkpoint records carry no snapshots: from the resume point on,
        # the positions are the uninterrupted run's
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin_half, tr_half, "scenario")
        state, saved = read_checkpoint(str(ck), scenario_text="scenario")
        tr_ck, _ = resume_run(state, saved, cfg)
        assert fields(tr_ck) == fields(tr_full)
        assert snapshot_steps(tr_ck) == [s for s in snapshot_steps(tr_full) if s >= 5]

    def test_resumed_finished_run_keeps_final_snapshot(self, tmp_path):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.04, record_every=2, snapshot_every=3)
        tr, fin = run(catalog.circle(n=64), cfg)
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin, tr, "scenario")
        state, saved = read_checkpoint(str(ck), scenario_text="scenario")
        tr_res, fin_res = resume_run(state, saved, cfg)
        assert fin_res.step_index == fin.step_index    # no step taken
        assert tr_res.termination is tr.termination
        assert len(tr_res.records) == len(tr.records)
        assert np.array_equal(tr_res.records[-1].snapshot.values, state.imm.values)

    def test_type2_rescale_after_resume_names_the_missing_window(self, tmp_path):
        # checkpoint records keep no snapshots, so the Hamilton window, which
        # reaches back to t = 0, is not covered after a resume
        cfg = FlowConfig(cfl_sigma=0.5, record_every=25, snapshot_every=4)
        tr_full, _ = run(catalog.circle(n=64), cfg)
        t_hat = estimate_singular_time(tr_full).t_hat
        assert hamilton_rescale(tr_full, t_hat, 10).rescaled
        tr_half, fin_half = run(catalog.circle(n=64), cfg, max_steps=60)
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin_half, tr_half, "scenario")
        state, saved = read_checkpoint(str(ck), scenario_text="scenario")
        tr_res, _ = resume_run(state, saved, cfg)
        first = next(r.t for r in tr_res.records if r.snapshot is not None)
        assert first > 0.0
        with pytest.raises(UsageError, match=f"earliest kept snapshot is at t = {first:.6g} "):
            hamilton_rescale(tr_res, t_hat, 10)

    def test_record_without_trusted_max_errors(self, tmp_path):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.02, record_every=5)
        tr, fin = run(catalog.circle(n=64), cfg)
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin, tr, "scenario")
        doc = json.loads(ck.read_text())
        del doc["records"][1]["max_A2_trusted"]
        ck.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="record 1 lacks the field max_A2_trusted"):
            read_checkpoint(str(ck), scenario_text="scenario")

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text[: len(text) // 2], "not JSON"),
        (_edit_doc(lambda d: d.update(snapshot=d["snapshot"].rstrip("\n").rsplit("\n", 1)[0])),
         "snapshot: row-count mismatch: expected 64 data rows, found 63"),
        (_edit_doc(lambda d: d.pop("step_index")), "lacks the field step_index"),
        (_edit_doc(lambda d: d.update(schema="codimflow.checkpoint.v1")),
         "not a codimflow.checkpoint.v2 file"),
        (_edit_doc(lambda d: d["records"][0].update(argmax_value=1.0)),
         "record 0 has the unknown field argmax_value"),
        # a resumed run would continue the record cadence from the wrong step
        (_edit_doc(lambda d: d.update(step_index=3)), LAST_RECORD_OFF),
        (_edit_doc(lambda d: d["records"][-1].update(t=d["records"][-1]["t"] / 2)),
         LAST_RECORD_OFF),
        (_edit_doc(lambda d: d.update(records=[])), LAST_RECORD_OFF),
        (_edit_doc(lambda d: d["records"].__setitem__(0, [])), "record 0 is not a JSON object"),
        (_edit_doc(lambda d: d["records"][1].update(step_index="5")),
         "record 1 field step_index is a str"),
    ], ids=["not-json", "snapshot-row-lost", "no-step-index", "schema-v1", "unknown-record-field",
            "step-index-off", "record-time-off", "no-records", "record-not-object",
            "record-field-mistyped"])
    def test_malformed_checkpoint_errors(self, tmp_path, edit, message):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.02, record_every=5)
        tr, fin = run(catalog.circle(n=64), cfg)
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin, tr, "scenario")
        ck.write_text(edit(ck.read_text()))
        with pytest.raises(ConfigError, match=message):
            read_checkpoint(str(ck), scenario_text="scenario")

    @pytest.mark.parametrize("field, constant", [
        ("t", "Infinity"), ("max_A2_trusted", "Infinity"), ("volume", "-Infinity"), ("t", "NaN"),
    ])
    def test_non_finite_record_errors(self, tmp_path, field, constant):
        # a run never records one: a step whose state is not finite ends it
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.02, record_every=5)
        tr, fin = run(catalog.circle(n=64), cfg)
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin, tr, "scenario")
        doc = json.loads(ck.read_text())
        doc["records"][-1][field] = float(constant.lower().replace("infinity", "inf"))
        ck.write_text(json.dumps(doc))
        assert constant in ck.read_text()
        with pytest.raises(ConfigError, match=f"not JSON \\(the non-finite number {constant}\\)"):
            read_checkpoint(str(ck), scenario_text="scenario")

    def test_scenario_hash_guard(self, tmp_path):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.02, record_every=5)
        _, fin = run(catalog.circle(n=64), cfg)
        ck = tmp_path / "c.ckpt"
        from codimflow.flow import FlowTrace

        write_checkpoint(str(ck), fin, FlowTrace(), "original")
        with pytest.raises(UsageError, match="different scenario"):
            read_checkpoint(str(ck), scenario_text="tampered")


class TestCLI:
    def test_catalog_then_soliton(self, tmp_path):
        r = run_cli("catalog", "sphere", "--radius", "1.4142135623730951",
                    "-o", str(tmp_path / "s.snap"))
        assert r.returncode == 0, r.stderr
        r = run_cli("soliton", str(tmp_path / "s.snap"), "--kind", "shrinker")
        assert r.returncode == 0
        assert "Linf=" in r.stdout
        linf = float(r.stdout.split("Linf=")[1].split()[0])
        assert linf < 1e-2

    def test_run_circle_exit_2(self, tmp_path):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(
            "name = circ\n"
            "initial.catalog = circle\n"
            "initial.n = 128\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 50\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("run", str(cfgp))
        assert r.returncode == 2, (r.stdout, r.stderr)
        t_hat = float(r.stdout.split("T_hat=")[1].split()[0])
        assert t_hat == pytest.approx(0.5, abs=0.01)
        assert (tmp_path / "out" / "circ.csv").exists()
        assert (tmp_path / "out" / "circ-final.snap").exists()

    def test_run_flat_graph_exit_0(self, tmp_path):
        cfgp = tmp_path / "f.cfg"
        cfgp.write_text(
            "name = flat\n"
            "initial.potential.m = 2\n"
            "initial.potential.resolution = 16\n"
            "flow.stop_t_max = 0.01\n"
            "flow.fixed_dt = 0.002\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("run", str(cfgp))
        assert r.returncode == 0, (r.stdout, r.stderr)

    def test_bad_config_exit_4_single_line_reason(self, tmp_path):
        cfgp = tmp_path / "b.cfg"
        cfgp.write_text("grid.resolution = 4\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 4
        assert r.stderr.startswith("error: ConfigError:")

    def test_missing_file_exit_4(self):
        r = run_cli("run", "does-not-exist.cfg")
        assert r.returncode == 4
        assert r.stderr.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["run"], "codimflow run: the following arguments are required: configs"),
        (["verify", "x.cfg", "--checks", "abc"],
         "codimflow verify: argument --checks: invalid int value: 'abc'"),
        (["nosuch"], "codimflow: argument command: invalid choice: 'nosuch' (choose from "
                     "'run', 'verify', 'soliton', 'rescale', 'lagrangian', 'catalog')"),
        (["run", "a.cfg", "--bogus"], "unrecognized arguments: --bogus"),
        (["catalog", "circle", "-o", "{dir}/x.snap", "stray"],
         "catalog parameters must be --name value pairs, got 'stray'"),
    ], ids=["run-no-config", "checks-not-int", "unknown-command", "run-stray-flag",
            "catalog-stray-word"])
    def test_argument_error_prints_the_error_line(self, tmp_path, capsys, argv, message):
        from codimflow import cli

        assert cli.main([a.format(dir=tmp_path) for a in argv]) == 4
        assert capsys.readouterr() == ("", f"error: UsageError: {message}\n")
        assert not (tmp_path / "x.snap").exists()

    def test_help_exit_0(self, capsys):
        from codimflow import cli

        assert cli.main(["run", "-h"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: codimflow run") and err == ""

    def test_lagrangian_subcommand(self, tmp_path):
        cfgp = tmp_path / "l.cfg"
        cfgp.write_text(
            "name = lag\n"
            "initial.potential.m = 2\n"
            "initial.potential.resolution = 32\n"
            "initial.potential.S = 0.5,0.8\n"
            "initial.potential.phi = 0.05*sin(x1)\n"
            "flow.stop_t_max = 0.1\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("lagrangian", str(cfgp))
        assert r.returncode == 0, (r.stdout, r.stderr)
        assert "angle identity defect" in r.stdout
        assert (tmp_path / "out" / "lag.csv").exists()

    @pytest.mark.parametrize("command", ["run", "lagrangian"])
    def test_oversized_phi_is_a_non_finite_metric(self, tmp_path, command):
        # phi is finite, but its graph's metric overflows: one error line that
        # names the node and says why, with no numpy warning before it
        cfgp = tmp_path / "big.cfg"
        cfgp.write_text("name = big\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "initial.potential.phi = 1e200*sin(x1)\n"
                        "flow.stop_t_max = 0.01\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli(command, str(cfgp))
        assert r.returncode == 3, (r.stdout, r.stderr)
        assert r.stderr == ("error: NonFiniteError: induced metric is not finite: "
                            "det g = inf at node (0, 0)\n")

    @pytest.mark.parametrize("command", ["run", "lagrangian"])
    def test_overflowing_phi_mean_exit_3(self, tmp_path, command):
        # every value of phi is finite, but their sum overflows: the potential
        # is refused where it is built, with one error line and no output
        cfgp = tmp_path / "big.cfg"
        cfgp.write_text("name = big\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "initial.potential.phi = 1e308*sin(x1)\n"
                        "flow.stop_t_max = 0.01\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli(command, str(cfgp))
        assert r.returncode == 3, (r.stdout, r.stderr)
        assert r.stdout == "" and r.stderr == (
            "error: NonFiniteError: phi's mean overflows: its values are finite, "
            "their sum is not\n")
        assert not (tmp_path / "out").exists()

    def test_lagrangian_overflowing_angle_is_named(self, tmp_path):
        # phi is finite, but the m = 2 angle reads det H = inf - inf: the
        # step fails naming the angle and its first non-finite node; the
        # final potential's metric then overflows as well
        cfgp = tmp_path / "big.cfg"
        cfgp.write_text("name = big\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "initial.potential.phi = 1e200*sin(x1)*sin(x2)\n"
                        "flow.stop_t_max = 0.01\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("lagrangian", str(cfgp))
        assert r.returncode == 3, (r.stdout, r.stderr)
        assert r.stdout.splitlines() == [
            "lagrangian big: Degenerate (Lagrangian angle contains non-finite values: "
            "nan at node (1, 1))"]
        assert r.stderr == ("error: NonFiniteError: induced metric is not finite: "
                            "det g = inf at node (0, 0)\n")

    def test_lagrangian_failed_step_writes_csv_exit_3(self, tmp_path, monkeypatch, capsys):
        # a potential step that fails ends the flow as Degenerate: the CSV
        # holds the records before it, and the exit code is 3, as for run
        from codimflow import cli, lagrangian
        from codimflow.errors import NonFiniteError

        step = lagrangian.PotentialState.step

        def fail_third(state, dt, config):
            if state.step_index == 2:
                raise NonFiniteError("phi contains non-finite values")
            return step(state, dt, config)

        monkeypatch.setattr(lagrangian.PotentialState, "step", fail_third)
        cfgp = tmp_path / "l.cfg"
        cfgp.write_text("name = lag\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "initial.potential.phi = 0.05*sin(x1)\n"
                        "flow.stop_t_max = 0.1\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["lagrangian", str(cfgp)]) == 3
        out, _ = capsys.readouterr()
        assert out.splitlines()[0] == "lagrangian lag: Degenerate (phi contains non-finite values)"
        rows = (tmp_path / "out" / "lag.csv").read_text().splitlines()
        assert rows[0] == "t,dt,alpha_min,alpha_max,hess_phi_inf,H_inf" and len(rows) == 4

    def test_verify_subcommand(self, tmp_path):
        cfgp = tmp_path / "v.cfg"
        cfgp.write_text(
            "name = v\n"
            "initial.catalog = circle\n"
            "initial.n = 64\n"
            "flow.record_every = 5\n"
            "flow.stop_t_max = 0.1\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("verify", str(cfgp), "--checks", "3")
        assert r.returncode == 0, (r.stdout, r.stderr)
        assert "worst evolution residual" in r.stdout

    def test_verify_worst_is_a_printed_value(self, tmp_path, capsys):
        # the summary's worst residual is the largest evolution value of the
        # table, volume_total included
        from codimflow import cli

        cfgp = tmp_path / "v.cfg"
        cfgp.write_text("name = v\ninitial.catalog = circle\ninitial.n = 64\n"
                        f"flow.record_every = 5\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["verify", str(cfgp), "--checks", "3"]) == 0
        header, *rows, summary = capsys.readouterr().out.splitlines()
        assert header.split(" | ")[0].endswith(" heat volume_total") and len(rows) == 3
        printed = [float(v) for row in rows for v in row.split(" | ")[0].split()[1:]]
        assert len(printed) == 3 * 8
        worst = float(summary.split("Linf = ")[1])
        assert f"{worst:.2e}" == f"{max(printed):.2e}"

    def test_verify_honours_semi_implicit(self, tmp_path):
        cfgp = tmp_path / "v.cfg"
        cfgp.write_text(
            "name = v\n"
            "initial.catalog = circle\n"
            "initial.n = 64\n"
            "flow.integrator = semi_implicit\n"
            "flow.record_every = 2\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("verify", str(cfgp), "--checks", "1")
        assert r.returncode == 0, (r.stdout, r.stderr)
        # the check instant is the second step; its time follows the
        # semi-implicit law (brake only), not the explicit CFL
        cfg = parse_config(cfgp.read_text()).flow
        st = FlowState.initial(catalog.circle(n=64))
        for _ in range(2):
            st = st.step(st.dt(cfg), cfg)
        t_printed = float(r.stdout.splitlines()[1].split()[0])
        assert t_printed == pytest.approx(st.t, rel=1e-5)
        assert st.t > 0.05   # the explicit CFL would allow ~1e-3 per step

    @pytest.mark.parametrize("integrator", ["explicit", "semi_implicit"])
    def test_verify_lie_terms_on_semi_implicit_runs(self, tmp_path, monkeypatch,
                                                   capsys, integrator):
        # the semi-implicit flow moves tangentially: verify passes the middle
        # state's tangential velocity and prints the Christoffel and A
        # columns, which have no Lie terms, as skipped
        import argparse

        from codimflow import cli
        from codimflow.flow import tangential_velocity

        cfgp = tmp_path / "v.cfg"
        cfgp.write_text(
            "name = v\n"
            "initial.catalog = ellipse\n"
            "initial.n = 64\n"
            f"flow.integrator = {integrator}\n"
            "flow.record_every = 2\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        passed = []
        residuals = cli.evolution_residuals

        def spy(before, after, mid=None, V=None):
            passed.append((mid, V))
            return residuals(before, after, mid=mid, V=V)

        monkeypatch.setattr(cli, "evolution_residuals", spy)
        assert cli.cmd_verify(argparse.Namespace(config=str(cfgp), checks=1)) == 0
        (mid, V), = passed
        row = capsys.readouterr().out.splitlines()[1].split()
        if integrator == "explicit":
            assert V is None and "skipped" not in row
        else:
            assert np.array_equal(V, tangential_velocity(mid.bundle))
            assert row[2] == row[4] == "skipped"

    def test_verify_stops_at_the_horizon(self, tmp_path, monkeypatch, capsys):
        # verify steps as flow.run does: the last step is clipped onto
        # stop_t_max and no triple is formed past it
        import argparse

        from codimflow import cli

        cfgp = tmp_path / "v.cfg"
        cfgp.write_text(
            "name = v\n"
            "initial.catalog = circle\n"
            "initial.n = 64\n"
            "flow.integrator = semi_implicit\n"
            "flow.record_every = 2\n"
            "flow.stop_t_max = 0.1\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        triples = []
        residuals = cli.evolution_residuals

        def spy(before, after, mid=None, V=None):
            triples.append((before.t, mid.t, after.t))
            return residuals(before, after, mid=mid, V=V)

        monkeypatch.setattr(cli, "evolution_residuals", spy)
        assert cli.cmd_verify(argparse.Namespace(config=str(cfgp), checks=5)) == 0
        assert len(triples) == 1
        assert max(triples[0]) == 0.1
        assert "verify: 1 checks" in capsys.readouterr().out

    def test_verify_stops_at_the_curvature_cap(self, tmp_path, monkeypatch, capsys):
        # verify forms no triple past the state at which run stops
        import argparse

        from codimflow import cli
        from codimflow.flow import Termination

        cfgp = tmp_path / "v.cfg"
        cfgp.write_text(
            "name = v\n"
            "initial.catalog = circle\n"
            "initial.n = 64\n"
            "flow.stop_max_A2 = 1.05\n"
            "flow.record_every = 5\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        trace, final = run(catalog.circle(n=64), parse_config(cfgp.read_text()).flow)
        assert trace.termination is Termination.CURVATURE_CAP
        assert final.step_index == 19
        triples = []
        residuals = cli.evolution_residuals

        def spy(before, after, mid=None):
            triples.append((before.step_index, mid.step_index, after.step_index))
            return residuals(before, after, mid=mid)

        monkeypatch.setattr(cli, "evolution_residuals", spy)
        assert cli.cmd_verify(argparse.Namespace(config=str(cfgp), checks=50)) == 0
        assert triples == [(4, 5, 6), (10, 11, 12), (16, 17, 18)]
        assert "verify: 3 checks" in capsys.readouterr().out

    def test_verify_degenerate_flow_exit_3(self, tmp_path, monkeypatch, capsys):
        from codimflow import cli, flow
        from codimflow.errors import DegenerateImmersion

        cfgp = tmp_path / "v.cfg"
        cfgp.write_text(
            "name = v\n"
            "initial.catalog = circle\n"
            "initial.n = 64\n"
            "flow.record_every = 5\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        step = flow.step_explicit

        def failing(state, dt):
            if state.step_index == 8:
                raise DegenerateImmersion("metric degenerate at node (3,)")
            return step(state, dt)

        monkeypatch.setattr(flow, "step_explicit", failing)
        assert cli.main(["verify", str(cfgp), "--checks", "5"]) == 3
        out, err = capsys.readouterr()
        assert err == "error: DegenerateImmersion: metric degenerate at node (3,)\n"
        assert len(out.splitlines()) == 2   # the header and the triple (4, 5, 6)

    def test_run_degenerate_flow_exit_3(self, tmp_path, monkeypatch, capsys):
        # the run ends at the last good state, writes its outputs and exits 3
        from codimflow import cli, flow
        from codimflow.errors import DegenerateImmersion

        cfgp = tmp_path / "d.cfg"
        cfgp.write_text("name = d\ninitial.catalog = circle\ninitial.n = 64\n"
                        f"flow.record_every = 5\noutput.dir = {tmp_path / 'out'}\n")
        step = flow.step_explicit

        def failing(state, dt):
            if state.step_index == 8:
                raise DegenerateImmersion("metric degenerate at node (3,)")
            return step(state, dt)

        monkeypatch.setattr(flow, "step_explicit", failing)
        assert cli.main(["run", str(cfgp)]) == 3
        out = capsys.readouterr().out
        assert out.startswith("run d: Degenerate (metric degenerate at node (3,))\n  records=3 ")
        assert (tmp_path / "out" / "d-final.snap").exists()

    def test_run_dt_underflow_exit_2(self, tmp_path, capsys):
        # the shrinking circle's adaptive dt falls below flow.stop_dt_min
        from codimflow import cli

        cfgp = tmp_path / "u.cfg"
        cfgp.write_text("name = u\ninitial.catalog = circle\ninitial.n = 64\n"
                        f"flow.stop_dt_min = 1e-3\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("run u: DtUnderflow (dt = ")
        assert float(out.split("t_end=")[1].split()[0]) == pytest.approx(0.0835, abs=1e-3)

    def test_classify_fits_the_singular_time_once(self, tmp_path, monkeypatch, capsys):
        # the run passes its estimate to classify_blowup, which refits it
        # over the window instead of estimating T_hat again
        from codimflow import cli, singularity

        calls = []
        for module in (cli, singularity):
            fit = module.estimate_singular_time
            monkeypatch.setattr(module, "estimate_singular_time",
                                lambda trace, fit=fit: calls.append(trace) or fit(trace))
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 128\n"
                        "flow.cfl_sigma = 0.5\nflow.record_every = 25\n"
                        f"analyses = classify\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 2
        assert "blowup: TypeI" in capsys.readouterr().out
        assert len(calls) == 1

    def test_grid_keys_reach_a_sphere(self, tmp_path):
        from codimflow import cli

        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("name = s\ninitial.catalog = sphere\ninitial.J = 12\ninitial.K = 24\n"
                        "initial.fd_order = 2\nflow.stop_t_max = 0.001\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 0
        header = (tmp_path / "out" / "s-final.snap").read_text().splitlines()[1:3]
        assert header[0].endswith(" resolution=12x24") and header[1] == "# fd_order=2"

    def test_grid_fd_order_3_exit_4(self, tmp_path, capsys):
        from codimflow import cli

        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("name = s\ninitial.catalog = sphere\ninitial.fd_order = 3\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ConfigError: fd_order must be 2 or 4, got 3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["grid.resolution = 64", "grid.fd_order = 4"])
    def test_grid_key_is_unknown_exit_4(self, tmp_path, capsys, line):
        # an example's grid is set by its own parameters (initial.n,
        # initial.fd_order, ...): a grid.* key is unknown like any other
        from codimflow import cli

        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(f"name = c\ninitial.catalog = circle\n{line}\nflow.stop_t_max = 0.001\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "error: ConfigError: configuration errors:",
            f"    line 3: unknown key {line.split(' = ')[0]!r}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, message", [
        ("initial.catalog = circle\nflow.stop_t_max 0.01\n", "line 5: expected 'key = value'"),
        ("initial.catalog = circle\ninitial.n = 64\ninitial.n = 32\n",
         "line 6: duplicate key 'initial.n'"),
        ("initial.potential.S = 0.5,0.8\ninitial.potential.phi = 0.1*tan(x1)\n"
         "flow.stop_t_max = 0.01\n",
         "line 5: bad phi term '0.1*tan(x1)'; expected like 0.1*sin(x1)*cos(2*x2)"),
        ("initial.potential.S = 1,2,3\nflow.stop_t_max = 0.01\n",
         "line 4: S needs 2 (diagonal) or 4 (full) entries"),
        ("initial.catalog = circle\nanalyses = bogus\n",
         "line 5: unknown analysis 'bogus'; known: monotonicity, soliton, rescale, classify, "
         "lagrangian_report"),
        ("initial.catalog = circle\nanalyses = monotonicity\n",
         "analysis.monotonicity.t0 is required"),
        ("initial.catalog = circle\nanalyses = soliton\nanalysis.soliton.kind = spinner\n",
         "line 6: bad soliton kind 'spinner'"),
        ("initial.catalog = circle\nanalyses = rescale\nanalysis.rescale.mode = type3\n",
         "line 6: mode must be type1 or type2, got 'type3'"),
    ], ids=["no-equals", "duplicate-key", "phi-term", "S-three-entries", "unknown-analysis",
            "no-t0", "soliton-kind", "rescale-mode"])
    def test_config_error_exit_4_with_line(self, tmp_path, capsys, lines, message):
        # the blank and the comment-only line 2 and 3 parse and are counted
        from codimflow import cli

        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(f"name = c\n\n   # a comment-only line\n{lines}"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: ConfigError: configuration errors:",
                                                  f"    {message}"]
        assert not (tmp_path / "out").exists()

    def test_run_translator_analysis(self, tmp_path, capsys):
        # the grim reaper translates with velocity (0, 1)
        from codimflow import cli

        cfgp = tmp_path / "g.cfg"
        cfgp.write_text("name = g\ninitial.catalog = grim_reaper\ninitial.n = 128\n"
                        "flow.stop_t_max = 0.01\nanalyses = soliton\n"
                        "analysis.soliton.kind = translator\nanalysis.soliton.V = 0,1\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 0
        out = capsys.readouterr().out
        assert float(out.split("soliton[translator]: Linf=")[1].split()[0]) < 1e-2

    @pytest.mark.parametrize("command", ["catalog", "soliton", "run"])
    def test_grim_reaper_trusting_no_node_exit_4(self, tmp_path, capsys, command):
        # grim_reaper masks max(fd_order, n // 16) nodes at each end: none is
        # trusted at n = 8, one at n = 9
        from codimflow import cli

        snap = tmp_path / "g.snap"
        write_snapshot(catalog.grim_reaper(n=9), str(snap))
        snap.write_text(snap.read_text().replace("=000010000", "=000000000"))
        cfgp = tmp_path / "g.cfg"
        cfgp.write_text("name = g\ninitial.catalog = grim_reaper\ninitial.n = 8\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        argv = {"catalog": ["catalog", "grim_reaper", "-o", str(tmp_path / "8.snap"), "--n", "8"],
                "soliton": ["soliton", str(snap), "--kind", "translator", "--V", "0,1"],
                "run": ["run", str(cfgp)]}[command]
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("norm_mask trusts no node\n")
        assert len(err.splitlines()) == 1
        cfgp.write_text(cfgp.read_text().replace("n = 8", "n = 9") + "flow.stop_t_max = 1e-4\n")
        assert cli.main(["run", str(cfgp)]) == 0

    def test_monotonicity_q_defaults_to_the_origin_of_R_n(self, tmp_path, capsys):
        # a sphere in R^3 with q unset: the density is centred at the origin
        from codimflow import cli

        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("name = s\ninitial.catalog = sphere\ninitial.J = 12\ninitial.K = 24\n"
                        "flow.stop_t_max = 0.001\nanalyses = monotonicity\n"
                        f"analysis.monotonicity.t0 = 0.5\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 0
        assert "monotonicity: nonincreasing=True max_jump=" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "resume", "rescale"])
    @pytest.mark.parametrize("lines, key", [
        ("analyses = monotonicity\nanalysis.monotonicity.q = nan,0\n"
         "analysis.monotonicity.t0 = 0.5\n", "analysis.monotonicity.q"),
        ("analyses = monotonicity\nanalysis.monotonicity.q = 0,0,0\n"
         "analysis.monotonicity.t0 = 0.5\n", "analysis.monotonicity.q"),
        ("analyses = monotonicity\nanalysis.monotonicity.t0 = nan\n",
         "analysis.monotonicity.t0"),
        ("analyses = monotonicity\nanalysis.monotonicity.t0 = 0\n",
         "analysis.monotonicity.t0"),
        ("analyses = soliton\nanalysis.soliton.kind = translator\n"
         "analysis.soliton.V = 0,1,2\n", "analysis.soliton.V"),
        ("analyses = soliton\nanalysis.soliton.kind = translator\n"
         "analysis.soliton.V = inf,1\n", "analysis.soliton.V"),
    ], ids=["q-nan", "q-length", "t0-nan", "t0-zero", "V-length", "V-inf"])
    def test_bad_analysis_value_exit_4_before_any_step(self, tmp_path, capsys, command,
                                                       lines, key):
        from codimflow import cli

        text = ("name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                f"flow.stop_t_max = 0.01\n{lines}output.dir = {tmp_path / 'out'}\n")
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(text)
        args = ["run", str(cfgp)] if command != "rescale" else ["rescale", str(cfgp)]
        if command == "resume":
            trace, state = run(catalog.circle(n=64), FlowConfig(), max_steps=2)
            write_checkpoint(str(tmp_path / "c.ckpt"), state, trace, text)
            args += ["--resume", str(tmp_path / "c.ckpt")]
        assert cli.main(args) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: ConfigError: {key} ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["classify", "rescale"])
    def test_analysis_listed_twice_exit_4_before_any_step(self, tmp_path, capsys, kind):
        # run twice, it would print its line or write its snapshot twice
        from codimflow import cli

        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                        f"flow.stop_t_max = 0.01\nanalyses = {kind}, {kind}\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: ConfigError: configuration errors:",
                                                  f"    line 5: analysis {kind!r} listed twice"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["shrinker", "expander"])
    def test_soliton_V_for_other_kinds_exit_4_before_any_step(self, tmp_path, capsys, kind):
        from codimflow import cli

        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                        "flow.stop_t_max = 0.01\nanalyses = soliton\n"
                        f"analysis.soliton.kind = {kind}\nanalysis.soliton.V = 0,1\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "line 7: analysis.soliton.V is read only by kind translator" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["shrinker", "expander"])
    def test_soliton_velocity_for_other_kinds_exit_4(self, tmp_path, kind):
        snap = tmp_path / "s.snap"
        write_snapshot(catalog.sphere(radius=math.sqrt(2.0), J=12, K=24), str(snap))
        r = run_cli("soliton", str(snap), "--kind", kind, "--V", "0,1,2")
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stdout == "" and r.stderr == (
            f"error: UsageError: soliton kind {kind}: a velocity V is required for "
            "a translator and read by no other kind\n")

    def test_soliton_malformed_velocity_exit_4(self, tmp_path):
        snap = tmp_path / "g.snap"
        write_snapshot(catalog.make_example("grim_reaper", n=64), str(snap))
        for V in ("a,b", "nan,1", "0,1,2"):
            r = run_cli("soliton", str(snap), "--kind", "translator", "--V", V)
            assert r.returncode == 4, (V, r.stdout, r.stderr)
            assert r.stderr.startswith("error: UsageError: ") and r.stdout == ""
            assert len(r.stderr.splitlines()) == 1

    def test_run_stopped_before_the_first_step_exit_2(self, tmp_path, capsys):
        from codimflow import cli

        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                        f"flow.stop_max_A2 = 0.5\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 2
        assert capsys.readouterr().out.startswith("run c: CurvatureCap (")
        rows = (tmp_path / "out" / "c.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,")

    def test_rescale_subcommand(self, tmp_path):
        cfgp = tmp_path / "r.cfg"
        cfgp.write_text(
            "name = resc\n"
            "initial.catalog = circle\n"
            "initial.n = 128\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 25\n"
            "flow.snapshot_every = 4\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("rescale", str(cfgp), "--mode", "type1")
        assert r.returncode == 2, (r.stdout, r.stderr)
        snaps = list((tmp_path / "out").glob("*-rescaled.snap"))
        assert snaps
        imm, s = read_snapshot(str(snaps[0]))
        radius = np.sqrt((imm.values**2).sum(-1))
        assert np.abs(radius - 1.0).max() < 2e-2  # rescaled shrinker radius

    def test_rescale_evaluates_no_density(self, tmp_path, monkeypatch, capsys):
        # rescale checks the monotonicity keys before any step but reads no
        # density: it evaluates none, and its rescaled snapshot is the one
        # that run writes while it records the density
        from codimflow import cli, singularity

        calls = []
        density = singularity.huisken_functional
        monkeypatch.setattr(singularity, "huisken_functional",
                            lambda *args: calls.append(args) or density(*args))
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                        "flow.record_every = 5\nanalyses = monotonicity, rescale\n"
                        f"analysis.monotonicity.t0 = 0.5\noutput.dir = {tmp_path / 'out'}\n")
        snap = tmp_path / "out" / "c-rescaled.snap"
        assert cli.main(["rescale", str(cfgp), "--mode", "type1"]) == 2
        assert calls == []
        line, rescaled = capsys.readouterr().out, snap.read_bytes()
        assert cli.main(["run", str(cfgp)]) == 2
        assert calls and snap.read_bytes() == rescaled
        assert line in capsys.readouterr().out.splitlines(keepends=True)

    def test_resume_of_finished_run_rescales(self, tmp_path):
        # the checkpoint of a run that reached the cap resumes without a
        # step; its final record still carries the snapshot type1 rescales
        cfgp = tmp_path / "r.cfg"
        cfgp.write_text(
            "name = resc\n"
            "initial.catalog = circle\n"
            "initial.n = 128\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 25\n"
            "flow.snapshot_every = 4\n"
            "analyses = rescale\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        out = tmp_path / "out"
        r = run_cli("run", str(cfgp))
        assert r.returncode == 2, (r.stdout, r.stderr)
        csv = (out / "resc.csv").read_bytes()
        snap = (out / "resc-rescaled.snap").read_bytes()
        (out / "resc.csv").unlink()
        (out / "resc-rescaled.snap").unlink()
        r = run_cli("run", str(cfgp), "--resume", str(out / "resc.ckpt"))
        assert r.returncode == 2, (r.stdout, r.stderr)
        assert (out / "resc.csv").read_bytes() == csv
        assert (out / "resc-rescaled.snap").read_bytes() == snap

    def test_resumed_run_type2_rescale_exit_4(self, tmp_path):
        cfgp = tmp_path / "r.cfg"
        cfgp.write_text(
            "name = resc\n"
            "initial.catalog = circle\n"
            "initial.n = 64\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 25\n"
            "flow.snapshot_every = 4\n"
            "analyses = rescale\n"
            "analysis.rescale.mode = type2\n"
            "analysis.rescale.k = 10\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        out = tmp_path / "out"
        r = run_cli("run", str(cfgp))
        assert r.returncode == 2, (r.stdout, r.stderr)
        assert (out / "resc-hamilton-k10.snap").exists()
        (out / "resc-hamilton-k10.snap").unlink()
        r = run_cli("run", str(cfgp), "--resume", str(out / "resc.ckpt"))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith("error: UsageError: the Hamilton window reaches back "
                                   "to t = 0, but the earliest kept snapshot is at t = ")
        assert not (out / "resc-hamilton-k10.snap").exists()

    def test_whole_number_float_node_count(self, tmp_path):
        csvs = []
        for n in ("128", "128.0"):
            cfgp = tmp_path / f"n{n}.cfg"
            cfgp.write_text(f"name = c\ninitial.catalog = circle\ninitial.n = {n}\n"
                            "flow.stop_t_max = 0.01\n"
                            f"output.dir = {tmp_path / n}\n")
            r = run_cli("run", str(cfgp))
            assert r.returncode == 0, (r.stdout, r.stderr)
            csvs.append((tmp_path / n / "c.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_determinism_across_processes(self, tmp_path):
        cfgp = tmp_path / "d.cfg"
        cfgp.write_text(
            "name = det\n"
            "initial.catalog = ellipse\n"
            "initial.n = 64\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.stop_t_max = 0.05\n"
            "flow.record_every = 10\n"
            f"output.dir = {tmp_path / 'o1'}\n"
        )
        r1 = run_cli("run", str(cfgp))
        csv1 = (tmp_path / "o1" / "det.csv").read_bytes()
        snap1 = (tmp_path / "o1" / "det-final.snap").read_bytes()
        (tmp_path / "o1" / "det.csv").unlink()
        r2 = run_cli("run", str(cfgp))
        assert csv1 == (tmp_path / "o1" / "det.csv").read_bytes()
        assert snap1 == (tmp_path / "o1" / "det-final.snap").read_bytes()

    def test_resume_from_malformed_checkpoint_exit_4(self, tmp_path):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(f"name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        ck = tmp_path / "c.ckpt"
        ck.write_text("# schema=codimflow.snapshot.v1\n")
        r = run_cli("run", str(cfgp), "--resume", str(ck))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith(f"error: ConfigError: {ck}: not JSON")

    def test_resume_with_several_configs_rejected(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            cfgp = tmp_path / f"{name}.cfg"
            cfgp.write_text(f"name = {name}\ninitial.catalog = circle\n"
                            f"flow.stop_t_max = 0.001\noutput.dir = {tmp_path / 'out'}\n")
            paths.append(str(cfgp))
        r = run_cli("run", *paths, "--resume", str(tmp_path / "x.ckpt"))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert "--resume" in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ("run", "{dir}"),
        ("verify", "{dir}"),
        ("run", "{cfg}"),
        ("soliton", "{snap}", "--kind", "shrinker"),
    ])
    def test_unreadable_input_exit_4(self, tmp_path, args):
        # a directory, or a file that is not UTF-8 text
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"name = caf\xe9\ninitial.catalog = circle\n")
        snap = tmp_path / "latin1.snap"
        snap.write_bytes(b"# schema=codimflow.snapshot.v1\n# t=0 caf\xe9\n")
        r = run_cli(*(a.format(dir=tmp_path, cfg=cfg, snap=snap) for a in args))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("error:")

    @pytest.mark.parametrize("line", [
        "flow.integrator = semi_implicit", "flow.curvature_cap_rho = 0.5",
        "flow.stop_max_A2 = 10", "flow.stop_dt_min = 1e-9", "flow.fixed_dt = 0.001",
        "flow.integrator = explicit", "flow.curvature_cap_rho = 0.05",
    ])
    def test_lagrangian_unread_flow_key_exit_4(self, tmp_path, line):
        # the potential flow reads cfl_sigma, stop_t_max and the cadence
        # only; any other flow key that is set is named with its line, also
        # at its default value
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("name = p\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "flow.stop_t_max = 0.01\n"
                        f"{line}\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("lagrangian", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith("error: ConfigError:")
        assert line.split(" = ")[0] in r.stderr
        assert f"line 5: {line.split(' = ')[0]} is read only by the mean curvature flow" in r.stderr
        assert not (tmp_path / "out").exists()

    def test_run_reads_the_keys_the_potential_flow_does_not(self, tmp_path):
        # `codimflow run` steps the graph by mean curvature flow, which reads
        # the time-step keys that `codimflow lagrangian` refuses
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("name = p\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "initial.potential.phi = 0.05*sin(x1)\n"
                        "flow.stop_t_max = 0.01\n"
                        "flow.fixed_dt = 0.004\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 0, (r.stdout, r.stderr)
        rows = (tmp_path / "out" / "p.csv").read_text().splitlines()
        dts = [float(row.split(",")[1]) for row in rows[2:]]
        assert dts == [0.004, 0.004, 0.002]

    @pytest.mark.parametrize("source", ["catalog", "snapshot"])
    @pytest.mark.parametrize("line", ["flow.stop_t_max = 2", "flow.cfl_sigma = 0.5",
                                      "flow.record_every = 3", "flow.snapshot_every = 1"])
    def test_lagrangian_on_a_surface_source_refuses_the_potential_flow_keys(
            self, tmp_path, capsys, source, line):
        # a catalog or snapshot source gets the identity report and no flow
        # is stepped, so the potential flow's own keys go unread too
        from codimflow import cli

        snap = tmp_path / "w.snap"
        write_snapshot(catalog.whitney_sphere(radius=1.0, m=2, J=8, K=16), str(snap))
        initial = {"catalog": "initial.catalog = whitney\ninitial.J = 8\ninitial.K = 16",
                   "snapshot": f"initial.snapshot = {snap}"}[source]
        cfgp = tmp_path / "w.cfg"
        cfgp.write_text(f"name = w\n{initial}\n{line}\n")
        assert cli.main(["lagrangian", str(cfgp)]) == 4
        out, err = capsys.readouterr()
        lineno = 5 if source == "catalog" else 3
        assert out == "" and err.splitlines() == [
            "error: ConfigError: configuration errors:",
            f"    line {lineno}: {line.split(' = ')[0]} is read only with initial.potential: "
            f"no flow is stepped from initial.{source}"]
        cfgp.write_text(f"name = w\n{initial}\n")
        assert cli.main(["lagrangian", str(cfgp)]) == 0

    @pytest.mark.parametrize("line, message", [
        ("initial.potential.phi = 0.1*sin(x0)", "phi term '0.1*sin(x0)': the 2-torus has "
                                                "axes x1..x2"),
        ("initial.potential.m = -1", "initial.potential.m must be 1, 2 or 3, got -1"),
        ("initial.potential.m = 0", "initial.potential.m must be 1, 2 or 3, got 0"),
        ("initial.potential.m = 4", "initial.potential.m must be 1, 2 or 3, got 4"),
        ("initial.potential.resolution = 8,8,8", "the 2-torus takes 1 or 2 resolution counts"),
        ("initial.potential.fd_order = 3", "fd_order must be 2 or 4"),
    ], ids=["phi-x0", "m-negative", "m-zero", "m-four", "resolution-length", "fd_order-3"])
    def test_malformed_potential_exit_4_with_line(self, tmp_path, capsys, line, message):
        # each is named with its line before any array is built
        from codimflow import cli

        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("name = p\ninitial.potential.S = 0.5,0.8\nflow.stop_t_max = 0.01\n"
                        f"{line}\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["lagrangian", str(cfgp)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: ConfigError: configuration errors:",
                                                  f"    line 4: {message}"]
        assert not (tmp_path / "out").exists()

    def test_lagrangian_nonfinite_S_exit_4(self, tmp_path):
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("name = p\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "initial.potential.S = nan,0,0,1\n"
                        "flow.stop_t_max = 0.01\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("lagrangian", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert "initial.potential.S: entries must be finite" in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["lagrangian", "run"])
    def test_non_finite_phi_coefficient_exit_4(self, tmp_path, command):
        # 1e400 parses as inf; it is named with its line, before any array
        # is built, so no numpy warning reaches stderr
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("name = p\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "initial.potential.phi = 0.1*cos(x2), 1e400*sin(x1)\n"
                        "flow.stop_t_max = 0.01\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli(command, str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stdout == "" and r.stderr.splitlines() == [
            "error: ConfigError: configuration errors:",
            "    line 4: phi term '1e400*sin(x1)': the coefficient must be finite"]
        assert not (tmp_path / "out").exists()

    def test_lagrangian_unstable_cfl_sigma_exit_4(self, tmp_path):
        # the explicit potential flow is stable for cfl_sigma <= 1/m only
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("name = p\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        "flow.cfl_sigma = 0.6\n"
                        "flow.stop_t_max = 0.01\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("lagrangian", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith("error: UsageError: flow.cfl_sigma = 0.6 exceeds 1/m = 0.5")
        assert not (tmp_path / "out").exists()

    def test_potential_run_without_horizon_exit_4(self, tmp_path):
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text("name = p\ninitial.potential.m = 2\n"
                        "initial.potential.resolution = 16\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert "potential scenarios need flow.stop_t_max" in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "flow.curvature_cap_rho = nan", "flow.curvature_cap_rho = inf",
        "flow.fixed_dt = nan", "flow.fixed_dt = inf", "flow.stop_max_A2 = nan",
        "flow.stop_dt_min = nan", "flow.stop_dt_min = inf", "flow.stop_t_max = nan",
        "flow.snapshot_every = -2",
    ])
    def test_malformed_flow_value_exit_4_before_the_flow(self, tmp_path, line):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(f"name = c\ninitial.catalog = circle\ninitial.n = 32\n{line}\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith("error: ConfigError:")
        assert not (tmp_path / "out").exists()

    def test_rescale_k_rejected_before_the_flow(self, tmp_path):
        cfgp = tmp_path / "r.cfg"
        cfgp.write_text("name = r\ninitial.catalog = circle\ninitial.n = 32\n"
                        "analyses = rescale\nanalysis.rescale.mode = type2\n"
                        "analysis.rescale.k = 0\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert "line 6: analysis.rescale.k must be a positive integer" in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--checks", "-3"), ("rescale", "--k", "0"),
    ])
    def test_count_below_one_exit_4_before_the_flow(self, tmp_path, command, flag, value):
        cfgp = tmp_path / "v.cfg"
        cfgp.write_text("name = v\ninitial.catalog = circle\ninitial.n = 32\n")
        r = run_cli(command, str(cfgp), flag, value, cwd=tmp_path)
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr == f"error: UsageError: {flag} must be a positive integer\n"
        assert r.stdout == ""

    def test_catalog_m_reaches_the_family(self, tmp_path):
        out = tmp_path / "t.snap"
        r = run_cli("catalog", "flat_torus_graph", "--m", "3", "--n-per-axis", "8",
                    "-o", str(out))
        assert r.returncode == 0, (r.stdout, r.stderr)
        imm, _ = read_snapshot(str(out))
        assert imm.m == 3 and imm.n == 7

    def test_catalog_m_rejected_by_other_families(self, tmp_path):
        out = tmp_path / "s.snap"
        r = run_cli("catalog", "sphere", "--m", "2", "-o", str(out))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith("error: ConfigError: bad parameters for catalog example")
        assert not out.exists()

    def test_run_with_analyses(self, tmp_path):
        cfgp = tmp_path / "a.cfg"
        cfgp.write_text(
            "name = an\n"
            "initial.catalog = circle\n"
            "initial.n = 128\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 25\n"
            "flow.snapshot_every = 4\n"
            "analyses = monotonicity,soliton,classify\n"
            "analysis.monotonicity.q = 0,0\n"
            "analysis.monotonicity.t0 = 0.5\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("run", str(cfgp))
        assert r.returncode == 2, (r.stdout, r.stderr)
        assert "monotonicity: nonincreasing=True" in r.stdout
        linf = float(r.stdout.split("soliton[shrinker]: Linf=")[1].split()[0])
        assert linf < 1e-2  # read on the Type I rescaled snapshot, not the final state
        assert "blowup: TypeI" in r.stdout
        header = (tmp_path / "out" / "an.csv").read_text().splitlines()[0]
        assert header.endswith(",huisken")

    def test_resumed_run_prints_the_same_monotonicity_verdict(self, tmp_path):
        # the analysis reads the recorded huisken series, which the
        # checkpoint keeps; checkpoints carry no snapshots
        cfgp = tmp_path / "m.cfg"
        cfgp.write_text(
            "name = circ\n"
            "initial.catalog = circle\n"
            "initial.n = 128\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 25\n"
            "flow.snapshot_every = 4\n"
            "analyses = monotonicity\n"
            "analysis.monotonicity.q = 0.3,0\n"
            "analysis.monotonicity.t0 = 0.5\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        verdicts = []
        for extra in ((), ("--resume", str(tmp_path / "out" / "circ.ckpt"))):
            r = run_cli("run", str(cfgp), *extra)
            assert r.returncode == 2, (r.stdout, r.stderr)
            verdicts.append([ln for ln in r.stdout.splitlines() if "monotonicity:" in ln])
        assert len(verdicts[0]) == 1
        assert "nonincreasing=True" in verdicts[0][0]
        assert verdicts[1] == verdicts[0]

    @pytest.mark.parametrize("catalog_name, params", [
        ("circle", {"n": "nan"}),
        ("circle", {"n": "128", "radius": "nan"}),
        ("cardioid", {"n": "129", "loop": "nan"}),
        ("circle", {"n": "2.5"}),
    ])
    def test_malformed_catalog_parameter_exit_4(self, tmp_path, catalog_name, params):
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text(
            f"name = bad\ninitial.catalog = {catalog_name}\n"
            + "".join(f"initial.{k} = {v}\n" for k, v in params.items())
            + f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("run", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith("error: ConfigError:")
        assert len(r.stderr.splitlines()) == 1
        assert list(params.values())[-1] in r.stderr   # names the value given
        assert not (tmp_path / "out" / "bad.csv").exists()

    def test_shrinker_rescaled_about_the_singular_point(self, tmp_path):
        # a circle centred at (2, 0) shrinks to (2, 0): rescaled about the
        # origin it would be far from the shrinker H + F^perp = 0
        snap = tmp_path / "c.snap"
        shifted = catalog.circle(radius=1.0, n=128).transformed(np.eye(2), np.array([2.0, 0.0]))
        write_snapshot(shifted, str(snap))
        cfgp = tmp_path / "t.cfg"
        cfgp.write_text(
            "name = shifted\n"
            f"initial.snapshot = {snap}\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 25\n"
            "flow.snapshot_every = 4\n"
            "analyses = soliton,classify\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("run", str(cfgp))
        assert r.returncode == 2, (r.stdout, r.stderr)
        linf = float(r.stdout.split("soliton[shrinker]: Linf=")[1].split()[0])
        assert linf < 1e-2

    def test_lagrangian_report_on_a_planar_curve(self, tmp_path):
        # n = 2 is even: the report runs on any planar curve, not only a circle
        cfgp = tmp_path / "e.cfg"
        cfgp.write_text("name = ell\ninitial.catalog = ellipse\ninitial.n = 64\n"
                        "flow.stop_t_max = 0.01\nanalyses = lagrangian_report\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 0, (r.stdout, r.stderr)
        assert "lagrangian: residual=" in r.stdout

    @pytest.mark.parametrize("command, source", [
        ("lagrangian", "initial.catalog = circle\ninitial.n = 32\n"),
        ("run", "initial.potential.m = 1\ninitial.potential.resolution = 32\n"
                "initial.potential.phi = 0.05*sin(x1)\nflow.stop_t_max = 0.01\n"
                "analyses = lagrangian_report\n"),
    ], ids=["lagrangian-circle", "run-potential-m1"])
    def test_zero_dH_prints_without_a_sign(self, tmp_path, command, source):
        # dH vanishes identically on a curve: its norm is +0.0, not -0.0
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(f"name = c\n{source}output.dir = {tmp_path / 'out'}\n")
        r = run_cli(command, str(cfgp))
        assert r.returncode == 0, (r.stdout, r.stderr)
        assert "|dH|=0.000e+00" in r.stdout and "-0.000e+00" not in r.stdout

    def test_lagrangian_report_odd_ambient_rejected_before_the_flow(self, tmp_path):
        snap = tmp_path / "g.snap"
        write_snapshot(catalog.planar_graph(n=64), str(snap))   # n = 3
        cfgp = tmp_path / "g.cfg"
        cfgp.write_text(f"name = odd\ninitial.snapshot = {snap}\n"
                        "flow.stop_t_max = 0.01\nanalyses = lagrangian_report\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith(
            "error: ConfigError: lagrangian_report requires even ambient dimension, got n = 3")
        assert not (tmp_path / "out" / "odd.csv").exists()

    def test_one_singular_time_estimate_per_run(self, tmp_path, monkeypatch, capsys):
        # the T_hat line, the shrinker and the rescale read one estimate
        from codimflow import cli

        calls, estimate = [], cli.estimate_singular_time
        monkeypatch.setattr(cli, "estimate_singular_time",
                            lambda trace: calls.append(1) or estimate(trace))
        cfgp = tmp_path / "a.cfg"
        cfgp.write_text("name = an\ninitial.catalog = circle\ninitial.n = 128\n"
                        "flow.cfl_sigma = 0.5\nflow.record_every = 25\n"
                        "flow.snapshot_every = 4\nanalyses = soliton,rescale,classify\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 2
        out, _ = capsys.readouterr()
        assert len(calls) == 1
        for line in ("T_hat=", "soliton[shrinker]", "type1 rescale", "blowup: TypeI"):
            assert line in out

    @pytest.mark.parametrize("command", ["run", "soliton"])
    def test_non_finite_affine_part_exit_4(self, tmp_path, capsys, command):
        from codimflow import cli

        snap = tmp_path / "g.snap"
        write_snapshot(catalog.grim_reaper(n=64), str(snap))
        text = snap.read_text()
        head = next(ln for ln in text.splitlines() if ln.startswith("# affine="))
        snap.write_text(text.replace(head, "# affine=nan," + head.split(",", 1)[1]))
        cfgp = tmp_path / "g.cfg"
        cfgp.write_text(f"name = g\ninitial.snapshot = {snap}\nflow.stop_t_max = 0.01\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        args = (["run", str(cfgp)] if command == "run"
                else ["soliton", str(snap), "--kind", "shrinker"])
        assert cli.main(args) == 4
        _, err = capsys.readouterr()
        assert err == f"error: ConfigError: {snap}: immersion affine part is non-finite\n"

    def test_resume_from_a_checkpoint_off_its_state_exit_4(self, tmp_path, capsys):
        from codimflow import cli

        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 64\n"
                        "flow.cfl_sigma = 0.5\nflow.stop_t_max = 0.02\n"
                        f"flow.record_every = 5\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 0
        ck = tmp_path / "out" / "c.ckpt"
        ck.write_text(_edit_doc(lambda d: d.update(step_index=3))(ck.read_text()))
        capsys.readouterr()
        assert cli.main(["run", str(cfgp), "--resume", str(ck)]) == 4
        _, err = capsys.readouterr()
        assert err.startswith(f"error: ConfigError: {ck}: the last record is not the "
                              "checkpointed state's (step_index 3, t = ")

    @pytest.mark.parametrize("where", ["snapshot", "record"])
    def test_resume_from_a_non_finite_checkpoint_exit_4(self, tmp_path, capsys, where):
        # t = inf in the state's snapshot header and its last record used to
        # resume and write a CSV row and a checkpoint at t = inf
        from codimflow import cli

        cfgp = tmp_path / "c.cfg"
        cfgp.write_text("name = c\ninitial.catalog = circle\ninitial.n = 32\n"
                        f"flow.stop_t_max = 0.01\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 0
        ck = tmp_path / "bad.ckpt"

        def change(d):
            if where == "snapshot":
                d["snapshot"] = d["snapshot"].replace("# t=0.01 ", "# t=inf ", 1)
            else:
                d["records"][-1]["t"] = math.inf
        ck.write_text(_edit_doc(change)((tmp_path / "out" / "c.ckpt").read_text()))
        capsys.readouterr()
        assert cli.main(["run", str(cfgp), "--resume", str(ck)]) == 4
        out, err = capsys.readouterr()
        reason = ("snapshot: malformed snapshot header (t=inf is not finite)" if where == "snapshot"
                  else "not JSON (the non-finite number Infinity)")
        assert out == "" and err == f"error: ConfigError: {ck}: {reason}\n"

    def test_shrinker_analysis_needs_singular_time(self, tmp_path):
        # a flat graph does not blow up: no T_hat, no rescaled snapshot to check
        cfgp = tmp_path / "f.cfg"
        cfgp.write_text("name = flat\ninitial.catalog = flat_torus_graph\n"
                        "flow.stop_t_max = 0.01\nanalyses = soliton\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        r = run_cli("run", str(cfgp))
        assert r.returncode == 4, (r.stdout, r.stderr)
        assert r.stderr.startswith("error: UsageError: cannot rescale: unreliable singular time")

    def test_rescale_type2(self, tmp_path):
        cfgp = tmp_path / "r.cfg"
        cfgp.write_text(
            "name = resc\n"
            "initial.catalog = circle\n"
            "initial.n = 128\n"
            "flow.cfl_sigma = 0.5\n"
            "flow.record_every = 25\n"
            "flow.snapshot_every = 4\n"
            f"output.dir = {tmp_path / 'out'}\n"
        )
        r = run_cli("rescale", str(cfgp), "--mode", "type2", "--k", "10")
        assert r.returncode == 2, (r.stdout, r.stderr)
        assert "type2 rescale k=10" in r.stdout
        imm, tau = read_snapshot(str(tmp_path / "out" / "resc-hamilton-k10.snap"))
        # the snapshot nearest tau = 0: unit curvature at the marked point
        assert float(build_bundle(imm).normA2.max()) == pytest.approx(1.0, rel=1e-9)

    def test_lagrangian_catalog_whitney(self, tmp_path):
        cfgp = tmp_path / "w.cfg"
        cfgp.write_text("name = w\ninitial.catalog = whitney\n"
                        "initial.J = 24\ninitial.K = 48\n")
        r = run_cli("lagrangian", str(cfgp))
        assert r.returncode == 0, (r.stdout, r.stderr)
        residual = float(r.stdout.split("lagrangian residual=")[1].split()[0])
        assert residual < 1e-2
        gap = float(r.stdout.split("pinching gap min=")[1].split()[0])
        assert abs(gap) < 1e-2


# imports the CLI, runs it on its arguments (none: the import alone) and
# prints, as its last line, the exit code, whether flow's solver rungs are
# callable, and the scipy modules loaded by then
COLD_START = """
import json, sys
from codimflow import cli, flow
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
rungs = [callable(getattr(flow, name)) for name in ("bicgstab", "gmres", "splu")]
print(json.dumps([code, rungs, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


class TestColdStart:
    """scipy supplies only the semi-implicit step's sparse solve, so it loads
    on that step's first call and no earlier: a process that takes no
    semi-implicit step never imports it."""

    @staticmethod
    def cold_start(*args):
        r = run_python("-c", COLD_START, *args)
        assert r.returncode == 0, r.stderr
        return json.loads(r.stdout.splitlines()[-1])

    @pytest.mark.parametrize("command", ["import", "run", "verify", "lagrangian", "catalog"])
    def test_no_scipy_without_a_semi_implicit_step(self, tmp_path, command):
        def edit(text, *swaps):
            for old, new in swaps:
                assert old in text, old
                text = text.replace(old, new)
            return text

        # the README's two scenarios, made small
        circle, torus = readme_scenarios()
        out = ("output.dir = out", f"output.dir = {tmp_path / 'out'}")
        (tmp_path / "circle.cfg").write_text(edit(circle, ("initial.n = 256", "initial.n = 64"), out))
        (tmp_path / "torus.cfg").write_text(edit(torus, ("resolution = 64", "resolution = 16"),
                                                 ("stop_t_max = 5.0", "stop_t_max = 0.5"), out))
        # (arguments, exit code): the circle runs to its singularity, exit 2
        args, code = {"import": ([], 0),
                      "run": (["run", str(tmp_path / "circle.cfg")], 2),
                      "verify": (["verify", str(tmp_path / "circle.cfg")], 0),
                      "lagrangian": (["lagrangian", str(tmp_path / "torus.cfg")], 0),
                      "catalog": (["catalog", "clifford_torus", "-o", str(tmp_path / "c.snap")], 0),
                      }[command]
        assert self.cold_start(*args) == [code, [True, True, True], []]

    def test_semi_implicit_run_loads_scipy(self, tmp_path):
        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("name = s\ninitial.catalog = sphere\ninitial.J = 12\ninitial.K = 24\n"
                        "flow.integrator = semi_implicit\nflow.stop_t_max = 0.02\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        code, _, scipy = self.cold_start("run", str(cfgp))
        assert code == 0   # TimeReached
        assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(scipy)
