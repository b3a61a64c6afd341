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
from codimflow.flow import FlowConfig, FlowState, Integrator, run
from codimflow.snapshots import (
    read_checkpoint, read_snapshot, resume_run, write_checkpoint,
    write_diagnostics, write_snapshot,
)


def run_cli(*args, cwd=None, env=None):
    e = dict(os.environ)
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

    def test_wrong_schema_errors(self, tmp_path):
        path = tmp_path / "w.snap"
        path.write_text("# schema=somethingelse.v9\n")
        with pytest.raises(ConfigError, match="not a codimflow.snapshot.v1"):
            read_snapshot(str(path))


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
        tr_full, _ = run(catalog.sphere(radius=1.0, J=12, K=24), cfg)  # 13 steps
        tr_half, fin_half = run(catalog.sphere(radius=1.0, J=12, K=24), cfg, max_steps=5)
        ck = tmp_path / "s.ckpt"
        write_checkpoint(str(ck), fin_half, tr_half, "sphere")
        state, saved = read_checkpoint(str(ck), scenario_text="sphere")
        tr_res, _ = resume_run(state, saved, cfg)
        assert any(r.max_A2_trusted != r.max_A2 for r in tr_full.records)
        assert np.array_equal(tr_full.max_A2_trusted_series, tr_res.max_A2_trusted_series)
        assert np.array_equal(tr_full.max_A2_series, tr_res.max_A2_series)

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

    def test_scenario_hash_guard(self, tmp_path):
        cfg = FlowConfig(cfl_sigma=0.5, stop_t_max=0.02, record_every=5)
        _, fin = run(catalog.circle(n=64), cfg)
        ck = tmp_path / "c.ckpt"
        from codimflow.flow import FlowTrace

        write_checkpoint(str(ck), fin, FlowTrace(chart_shape=(64,)), "original")
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

    def test_thread_env_var_validated(self, tmp_path):
        cfgp = tmp_path / "t.cfg"
        cfgp.write_text("initial.catalog = circle\nflow.stop_t_max = 0.001\n"
                        f"output.dir = {tmp_path}\n")
        r = run_cli("run", str(cfgp), env={"CODIMFLOW_THREADS": "zebra"})
        assert r.returncode == 4
