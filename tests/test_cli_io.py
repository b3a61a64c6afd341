"""Configuration parsing, persistence formats, checkpoint resume, and the
command-line surface with its exit-code contract."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from codimflow import catalog
from codimflow.config import parse_config
from codimflow.errors import ConfigError, UsageError
from codimflow.flow import FlowConfig, FlowState, Integrator, estimate_singular_time, run
from codimflow.geometry import build_bundle
from codimflow.singularity import hamilton_rescale
from codimflow.snapshots import (
    read_checkpoint, read_snapshot, resume_run, write_checkpoint,
    write_diagnostics, write_snapshot,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, cwd=None, env=None):
    e = dict(os.environ)
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, e.get("PYTHONPATH")]))
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "codimflow.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=e)


class TestParseConfig:
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
            parse_config("initial.catalog = circle\ngrid.resolution = 4\n")

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

    def test_translator_requires_V(self):
        with pytest.raises(ConfigError, match="soliton.V"):
            parse_config(
                "initial.catalog = grim_reaper\n"
                "analyses = soliton\n"
                "analysis.soliton.kind = translator\n"
            )


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

    def test_truncated_file_errors(self, tmp_path):
        imm = catalog.circle(n=16)
        path = tmp_path / "t.snap"
        write_snapshot(imm, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-4]) + "\n")
        with pytest.raises(ConfigError, match="row-count mismatch: expected 16"):
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
    ], ids=["not-json", "snapshot-row-lost", "no-step-index", "schema-v1", "unknown-record-field"])
    def test_malformed_checkpoint_errors(self, tmp_path, edit, message):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.02, record_every=5)
        tr, fin = run(catalog.circle(n=64), cfg)
        ck = tmp_path / "c.ckpt"
        write_checkpoint(str(ck), fin, tr, "scenario")
        ck.write_text(edit(ck.read_text()))
        with pytest.raises(ConfigError, match=message):
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
        from codimflow.flow import _step, adaptive_dt
        cfg = parse_config(cfgp.read_text()).flow
        st = FlowState.initial(catalog.circle(n=64))
        for _ in range(2):
            st = _step(st, adaptive_dt(st, cfg), cfg)
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

    def test_grid_keys_reach_a_sphere(self, tmp_path):
        from codimflow import cli

        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("name = s\ninitial.catalog = sphere\ngrid.resolution = 12,24\n"
                        "grid.fd_order = 2\nflow.stop_t_max = 0.001\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 0
        header = (tmp_path / "out" / "s-final.snap").read_text().splitlines()[1:3]
        assert header[0].endswith(" resolution=12x24") and header[1] == "# fd_order=2"

    def test_grid_fd_order_3_exit_4(self, tmp_path, capsys):
        from codimflow import cli

        cfgp = tmp_path / "s.cfg"
        cfgp.write_text("name = s\ninitial.catalog = sphere\ngrid.fd_order = 3\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        assert "line 3: fd_order must be 2 or 4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("example, res, own", [
        ("circle", "8,8,8", "initial.n"),
        ("clifford_torus", "16,16", "initial.n1, initial.n2"),
    ])
    def test_grid_resolution_unfit_for_example_exit_4(self, tmp_path, capsys,
                                                      example, res, own):
        # three counts fit no chart; two counts are J,K, which the torus
        # does not take: both are named with the example's own keys
        from codimflow import cli

        cfgp = tmp_path / "s.cfg"
        cfgp.write_text(f"name = s\ninitial.catalog = {example}\ngrid.resolution = {res}\n"
                        f"flow.stop_t_max = 0.001\noutput.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        err = capsys.readouterr().err
        assert f"line 3: grid.resolution: {len(res.split(','))} counts do not fit " \
               f"catalog example '{example}'; set {own}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["potential", "snapshot"])
    @pytest.mark.parametrize("line", ["grid.resolution = 64", "grid.fd_order = 4"])
    def test_grid_keys_off_catalog_exit_4(self, tmp_path, capsys, source, line):
        # a potential sets its grid under initial.potential.*, and a
        # snapshot carries its own: the grid.* keys would go unread
        from codimflow import cli

        if source == "snapshot":
            snap = tmp_path / "c.snap"
            write_snapshot(catalog.circle(n=16), str(snap))
            initial = f"initial.snapshot = {snap}\n"
        else:
            initial = "initial.potential.resolution = 16\ninitial.potential.S = 0.5,0.8\n"
        cfgp = tmp_path / "p.cfg"
        cfgp.write_text(f"name = p\n{initial}{line}\nflow.stop_t_max = 0.001\n"
                        f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgp)]) == 4
        key = line.split(" = ")[0]
        lineno = initial.count("\n") + 2
        assert f"line {lineno}: {key} is read only with initial.catalog" in capsys.readouterr().err
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
    ])
    def test_lagrangian_unread_flow_key_exit_4(self, tmp_path, line):
        # the potential flow reads cfl_sigma, stop_t_max and the cadence
        # only; any other flow key set away from its default is named
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
