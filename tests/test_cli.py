import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specres import birman_schwinger as bs
from specres import calculus as calc
from specres import cli
from specres import model as M
from specres import subspaces as sub


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FREE_SCAN = """
[model]
backend = radial
potential = none
weight_s = 1.5
length = 14.0

[scan]
lambda_min = 0.2
lambda_max = 9.0
num_points = 60
"""

TUNED_SCAN_TEMPLATE = """
[model]
backend = radial
potential = square_well
v0 = {v0}
well_radius = 1.0
weight_s = 1.5
length = 14.0

[scan]
lambda_min = 0.3
lambda_max = 3.0
num_points = 101
"""


class TestScanCommand:
    def test_free_model_empty(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN)
        code = cli.main(["scan", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "scan_report.json").read_text())
        assert report["results"]["detected"] == []

    def test_tuned_well_detects(self, tmp_path, tuned_well):
        _, v0 = tuned_well
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(
            v0=f"{v0.real}{v0.imag:+}j"))
        code = cli.main(["scan", "--config", cfg, "--out", str(tmp_path),
                         "--format", "csv"])
        assert code == 0
        report = json.loads((tmp_path / "scan_report.json").read_text())
        detected = report["results"]["detected"]
        assert len(detected) == 1
        assert abs(detected[0]["lambda"] - 1.0) <= 1e-6
        assert detected[0]["class"] == "outgoing_singularity"
        header = (tmp_path / "scan.csv").read_text().splitlines()[0]
        assert header == "lambda,sigma_min_plus,sigma_min_minus,class,nu"

    def test_report_states_the_merge_width(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN.replace("num_points = 60", "num_points = 8"))
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        grid = json.loads((tmp_path / "scan_report.json").read_text())["results"]["grid"]
        assert grid["merge_width"] == 10 * bs.REFINE_WIDTH == 1e-7

    def test_report_records_the_scan_limit_and_the_refined_candidates(self, tmp_path,
                                                                      tuned_well):
        # both are recorded, the same on every run, and the CSV keeps its
        # columns
        model, v0 = tuned_well
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(
            v0=f"{v0.real}{v0.imag:+}j").replace("num_points = 101", "num_points = 41"))
        results = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["scan", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
            results.append(json.loads((out / "scan_report.json").read_text())["results"])
            header = (out / "scan.csv").read_text().splitlines()[0]
            assert header == "lambda,sigma_min_plus,sigma_min_minus,class,nu"
        first, second = results
        limit = first["grid"]["max_scan_energy"]
        assert limit == second["grid"]["max_scan_energy"] == model.max_scan_energy()
        assert limit >= first["grid"]["max"]
        refined = first["candidates_refined"]
        assert refined == second["candidates_refined"]
        assert isinstance(refined, int) and refined >= len(first["detected"]) == 1

    def test_malformed_weight_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN.replace("weight_s = 1.5",
                                                       "weight_s = -1.0"))
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_inadmissible_range_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN.replace(
            "lambda_max = 9.0", "lambda_max = 1e6"))
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_underflowing_weight_exits_3(self, tmp_path, capsys):
        # c^2 = <x>^-400 underflows on the grid, where W = V/c^2 would be 0/0
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(v0="-2-0.5j").replace(
            "weight_s = 1.5", "weight_s = 200"))
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "s = 200" in capsys.readouterr().err
        assert not (tmp_path / "scan_report.json").exists()

    def test_single_node_grid_exits_3(self, tmp_path):
        # one panel of one node: the grid has no gap between nodes
        cfg = write_config(tmp_path, FREE_SCAN.replace(
            "length = 14.0", "length = 14.0\npanels = 1\nnodes_per_panel = 1"))
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_unwritable_destination_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN)
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = cli.main(["scan", "--config", cfg, "--out", str(target)])
        assert code == 4

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["scan", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["scan", "--config", cfg, "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "scan_report.json").read_text())
        r2 = json.loads((out2 / "scan_report.json").read_text())
        r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_thread_pool_writes_the_serial_report(self, tmp_path, tuned_well):
        # --threads caps the threads; the report must not depend on it, on a
        # one-panel scan (serial stacks) or on the multi-panel Stone check,
        # whose stacks share the threads
        _, v0 = tuned_well
        scan = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(
            v0=f"{v0.real}{v0.imag:+}j").replace("num_points = 101", "num_points = 41"), "scan.ini")
        stone = write_config(tmp_path, """
[model]
backend = radial
potential = square_well
v0 = 0.15-0.1i
well_radius = 6.0

[verify]
suite = stone
""", "stone.ini")
        for command, cfg, name in (("scan", scan, "scan_report.json"),
                                   ("verify", stone, "verify_report.json")):
            reports = []
            for threads in ("2", "1"):
                out = tmp_path / command / threads
                assert cli.main([command, "--config", cfg, "--out", str(out),
                                 "--threads", threads]) == 0
                report = json.loads((out / name).read_text())
                report.pop("wall_clock_s")
                reports.append(json.dumps(report, sort_keys=True))
            assert reports[0] == reports[1]
            results = json.loads(reports[0])["results"]
            assert results["detected"] if command == "scan" else results["passed"]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, tmp_path, threads, capsys):
        cfg = write_config(tmp_path, FREE_SCAN)
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path),
                         "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "scan_report.json").exists()

    def test_orders_and_states_need_no_full_free_kernel(self, tmp_path, tuned_well,
                                                        small_well, monkeypatch):
        # the scan with order estimates (resonant state and order_estimate
        # at the detection) and the calculus paths run on the support blocks
        def full_assembly(act):
            raise AssertionError("full free-kernel assembly")

        monkeypatch.setattr(M.FreeResolventAction, "matrix", full_assembly)
        _, v0 = tuned_well
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(
            v0=f"{v0.real}{v0.imag:+}j") + "estimate_orders = true\n")
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        detected, = json.loads((tmp_path / "scan_report.json").read_text())["results"]["detected"]
        assert detected["nu"] == 1
        # the fit behind nu is reported, not dropped
        assert np.isfinite(detected["nu_slope"])
        assert isinstance(detected["nu_ambiguous"], bool)
        x = small_well.grid.nodes
        u, v = M.GaussianBump(center=3.0, width=0.6)(x), M.GaussianBump(center=2.5, width=0.8)(x)
        assert np.isfinite(calc.stone_form(small_well, (1.0, 2.0), u, v))
        assert np.isfinite(calc.stone_product_forms(small_well, (1.0, 4.0), (2.0, 6.0),
                                                    [(u, v)])).all()
        assert np.isfinite(sub.ac_certificate(small_well, w=u).c_u)


@pytest.mark.parametrize("old, new, field", [
    ("num_points = 60", "num_points = 60\n\n[tolerances]\nfoo = abc", "tolerances.foo"),
    ("potential = none", "potential = piecewise\npieces = 0:1", "model.pieces"),
    ("num_points = 60", "num_points = x", "scan.num_points"),
    ("num_points = 60", "num_points = 60\n\n[run]\nseed = abc", "run.seed"),
    ("num_points = 60", "num_points = 60\n\n[regularizer]\nnu_infinity = x",
     "regularizer.nu_infinity"),
    ("num_points = 60", "num_points = 60\n\n[regularizer]\nsingularities = 1.0",
     "regularizer.singularities"),
    ("length = 14.0", "length = abc", "model.length"),
    ("backend = radial", "backend = line1d\nhalf_length = zz", "model.half_length"),
    ("length = 14.0", "length = 14.0\nnodes_per_panel = 0.5", "model.nodes_per_panel"),
    ("potential = none", "potential = %(foo)s", "model.potential"),
    ("length = 14.0", "length = 14.0\npanels = 2.5", "model.panels"),
    ("num_points = 60", "num_points = 60\nestimate_orders = yes", "scan.estimate_orders"),
    ("[scan]", "[Scan]", "Scan.lambda_min"),
    ("num_points = 60", "num_points = 60\nt_max = -5", "scan.t_max"),
    ("length = 14.0", "length = -3", "model.length"),
    ("potential = none", "potential = piecewise\npieces = 1:0:-2", "model.pieces"),
    ("length = 14.0", "length = 14.0\nsize = 1e300", "model.size"),
    ("length = 14.0", "length = 14.0\nsize = 4097", "model.size"),
    ("length = 14.0", "length = 14.0\npanels = 65", "model.panels"),
    ("length = 14.0", "length = 14.0\nnodes_per_panel = 1e6", "model.nodes_per_panel"),
], ids=["tolerances", "pieces", "num_points", "seed", "nu_infinity", "singularities",
        "length", "half_length", "nodes_per_panel", "interpolation", "panels",
        "estimate_orders", "section_case", "t_max", "negative_length", "reversed_piece",
        "huge_size", "size_over_bound", "panels_over_bound", "nodes_per_panel_over_bound"])
def test_malformed_value_exits_2_with_field_path(tmp_path, capsys, old, new, field):
    cfg = write_config(tmp_path, FREE_SCAN.replace(old, new))
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    FREE_SCAN.replace("[model]\n", ""),
    FREE_SCAN.replace("weight_s = 1.5", "weight_s = 1.5\nweight_s = 2.0"),
    FREE_SCAN + "\n[scan]\nside = +\n",
], ids=["no_section_header", "duplicate_key", "duplicate_section"])
def test_malformed_ini_exits_2(tmp_path, text):
    cfg = write_config(tmp_path, text)
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
VALUES = st.sampled_from(["1", "-3", "0", "2.5", "12.0", "1e400", "nan", "1+2i", "(1-2j)",
                          "TRUE", "radial", "+", "0:1:2", "1:2; 3:x", ""]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=16)


@st.composite
def config_texts(draw):
    lines = [draw(VALUES)]
    for section in draw(st.lists(st.sampled_from(sorted(cli.FIELDS)) | NAMES, max_size=4)):
        lines.append(f"[{section}]")
        known = sorted(cli.FIELDS.get(section, ()))
        keys = st.sampled_from(known) | NAMES if known else NAMES
        lines += [f"{key} = {draw(VALUES)}" for key in draw(st.lists(keys, max_size=5))]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def ini_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "run.ini"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=config_texts())
def test_config_text_parses_or_raises_schema_error(ini_path, text):
    ini_path.write_text(text, encoding="utf-8")
    try:
        cli.load_config(str(ini_path))
    except cli.SchemaError:
        pass


class TestVerifyCommand:
    def test_ads_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, """
[model]
backend = finite
size = 8

[verify]
suite = ads
seed = 1234
""")
        code = cli.main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert rep["results"]["passed"]
        for check in rep["results"]["checks"]:
            assert check["passed"]

    def test_stone_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, """
[model]
backend = radial
potential = square_well
v0 = 0.3-0.2i

[verify]
suite = stone
""")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        check, = json.loads((tmp_path / "verify_report.json").read_text())["results"]["checks"]
        assert check["name"] == "stone_boundary_vs_smoothed" and check["value"] <= 1e-5
        # the extrapolation's own error estimate is reported, not dropped
        assert np.isfinite(check["error_estimate"])

    def test_resolution_suite_reports_its_tail_estimate(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN + "\n[verify]\nsuite = resolution\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        check, = json.loads((tmp_path / "verify_report.json").read_text())["results"]["checks"]
        assert check["name"] == "resolution_residual" and check["passed"]
        assert np.isfinite(check["tail_estimate"])

    def test_bounds_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN + "\n[verify]\nsuite = bounds\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("suite, model", [
        ("projections", "backend = finite\nsize = 6"),
        ("ac", "backend = finite\nsize = 6"),
        ("dissipative", "backend = radial\npotential = square_well\nv0 = -2i"),
    ])
    def test_suite_passes(self, tmp_path, suite, model):
        cfg = write_config(tmp_path, f"[model]\n{model}\n\n[verify]\nsuite = {suite}\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert rep["results"]["checks"]
        assert all(check["passed"] for check in rep["results"]["checks"])

    def test_unknown_suite_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN + "\n[verify]\nsuite = nonsense\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_resolution_negative_case_fails(self, tmp_path, tuned_well):
        # r = 1 on a singular model: the suite must report the blow-up
        _, v0 = tuned_well
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(
            v0=f"{v0.real}{v0.imag:+}j") + "\n[verify]\nsuite = resolution\n")
        code = cli.main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert not rep["results"]["passed"]
        assert "diagnostic" in rep["results"]["checks"][0]


class TestEvolveAndExport:
    def test_evolve_csv(self, tmp_path):
        cfg = write_config(tmp_path, """
[model]
backend = finite
size = 6

[scan]
t_max = 10.0
num_points = 51

[run]
seed = 7
""")
        code = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                         "--format", "csv"])
        assert code == 0
        lines = (tmp_path / "evolve.csv").read_text().splitlines()
        assert lines[0] == "t,norm"
        assert len(lines) == 52

    def test_evolve_on_three_time_points_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[model]
backend = finite
kind = diag
diag = 1, 2

[scan]
num_points = 3
""")
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "at least 4 time points" in capsys.readouterr().err
        assert not (tmp_path / "evolve_report.json").exists()

    def test_export_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN)
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        report_path = str(tmp_path / "scan_report.json")
        code = cli.main(["export", "--report", report_path,
                         "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        original = json.loads(open(report_path).read())
        exported = json.loads((tmp_path / "export.json").read_text())
        assert original == exported

    @pytest.mark.parametrize("command, config, table", [
        ("scan", FREE_SCAN, "scan"), ("evolve", "[model]\nbackend = finite\nsize = 4\n", "curve")])
    def test_export_csv_writes_the_command_table(self, tmp_path, command, config, table):
        cfg = write_config(tmp_path, config)
        run, out = tmp_path / "run", tmp_path / "export"
        assert cli.main([command, "--config", cfg, "--out", str(run), "--format", "csv"]) == 0
        assert cli.main(["export", "--report", str(run / f"{command}_report.json"),
                         "--out", str(out), "--format", "csv"]) == 0
        assert ((out / f"export_{table}.csv").read_text()
                == (run / f"{command}.csv").read_text())

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read the report file"), ("{not json", "malformed report file"),
        ("[1, 2]", "malformed report file: not a report object")])
    def test_export_of_a_missing_or_malformed_report_exits_2(self, tmp_path, capsys,
                                                             text, message):
        report = tmp_path / "report.json"
        if text is not None:
            report.write_text(text)
        out = tmp_path / "export"
        assert cli.main(["export", "--report", str(report), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_project_finite(self, tmp_path):
        cfg = write_config(tmp_path, """
[model]
backend = finite
size = 5

[run]
seed = 3
""")
        code = cli.main(["project", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "project_report.json").read_text())
        projs = rep["results"]["projections"]
        assert projs
        for p in projs:
            assert p["idempotency"] <= 1e-8
            assert p["commutation"] <= 1e-8

    def test_resonant_state_command(self, tmp_path, tuned_well):
        _, v0 = tuned_well
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(
            v0=f"{v0.real}{v0.imag:+}j") + "\n")
        code = cli.main(["resonant-state", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "resonant_state_report.json").read_text())
        assert rep["results"]["residual"] <= 1e-4
        assert rep["results"]["classification"] == "resonance"


class TestConfigPaths:
    """Config options that no other test and no benchmark workload runs."""

    def test_line_backend_scan_matches_the_api_profile(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN.replace("backend = radial", "backend = line1d")
                           .replace("length = 14.0", "half_length = 10.0")
                           .replace("num_points = 60", "num_points = 20"))
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "scan_report.json").read_text())["results"]
        assert results["detected"] == []
        model = M.line_model(M.PotentialSpec(), s=1.5, half_length=10.0)
        profile = bs.sigma_profile(model, np.linspace(0.2, 9.0, 20))
        assert [s["sigma_min_plus"] for s in results["sigma_samples"]] == profile["+"].tolist()
        assert [s["sigma_min_minus"] for s in results["sigma_samples"]] == profile["-"].tolist()

    def test_piecewise_potential_builds_its_pieces(self, tmp_path):
        text = """
[model]
backend = radial
potential = piecewise
pieces = 0:0.5:-1-0.5i; 0.5:1.25:0.3-0.1i

[scan]
lambda_min = 0.5
lambda_max = 4.0
num_points = 12
"""
        cfg = write_config(tmp_path, text)
        model = cli.build_model(cli.load_config(cfg)[0])
        assert model.potential.support == (0.0, 1.25)
        assert {0.5, 1.25} <= set(model.grid.edges.tolist())
        c2 = model.c_values ** 2
        for x, v in ((0.25, -1 - 0.5j), (1.0, 0.3 - 0.1j), (3.0, 0.0)):
            at = np.argmin(np.abs(model.grid.nodes - x))
            assert model.w_values[at] * c2[at] == pytest.approx(v, rel=1e-14, abs=1e-14)
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        samples = json.loads((tmp_path / "scan_report.json").read_text())["results"]["sigma_samples"]
        profile = bs.sigma_profile(model, np.linspace(0.5, 4.0, 12))
        assert [s["sigma_min_plus"] for s in samples] == profile["+"].tolist()

    def test_complex_symmetric_project(self, tmp_path):
        text = "[model]\nbackend = finite\nkind = complex_symmetric\nsize = 5\n\n[run]\nseed = 3\n"
        cfg = write_config(tmp_path, text)
        model = cli.build_model(cli.load_config(cfg)[0])
        assert np.array_equal(model.w_matrix, model.w_matrix.T)
        assert cli.main(["project", "--config", cfg, "--out", str(tmp_path)]) == 0
        projs = json.loads((tmp_path / "project_report.json").read_text())["results"]["projections"]
        assert sum(p["rank"] for p in projs) == 5
        assert all(p["idempotency"] <= 1e-8 and p["commutation"] <= 1e-8 for p in projs)

    def test_resonant_state_at_a_given_lambda_star(self, tmp_path, tuned_well):
        # lambda_star and side skip the scan: the state at the given point
        _, v0 = tuned_well
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(
            v0=f"{v0.real}{v0.imag:+}j") + "lambda_star = 1.0\nside = +\n")
        assert cli.main(["resonant-state", "--config", cfg, "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "resonant_state_report.json").read_text())["results"]
        assert results["lambda"] == 1.0 and results["side"] == "+"
        assert results["residual"] <= 1e-4
        assert results["classification"] == "resonance"

    def test_resolution_suite_reads_the_regularizer_section(self, tmp_path, tuned_well):
        # r(H) = R_H(z0) (H - lam*) regularizes the tuned well, where r = 1
        # blows up (test_resolution_negative_case_fails); lam* is the
        # scanned singularity, as acceptance criterion 6 takes it
        _, v0 = tuned_well
        text = TUNED_SCAN_TEMPLATE.format(v0=f"{v0.real}{v0.imag:+}j")
        model = cli.build_model(cli.load_config(write_config(tmp_path, text))[0])
        lam_star = bs.scan_singularities(model, np.linspace(0.3, 3.0, 101))[0].lam
        cfg = write_config(tmp_path, text + f"\n[regularizer]\nz0 = 1+3i\n"
                           f"singularities = {lam_star!r}:1\n\n[verify]\nsuite = resolution\n")
        reg = cli.build_regularizer(cli.load_config(cfg)[0], model)
        assert reg.singularities == ((lam_star, 1),) and reg.z0 == 1 + 3j
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        check, = json.loads((tmp_path / "verify_report.json").read_text())["results"]["checks"]
        assert check["name"] == "resolution_residual" and check["value"] <= 2e-3

    @pytest.mark.parametrize("z0", ["1+3i", "2+1i"])
    def test_resolution_suite_off_the_domain_of_h(self, tmp_path, tuned_well, z0):
        # the suite's v does not vanish at r = 0: r(H) v goes through R_H(z0)
        # alone, and the default search holds the bound state -14.72 + 1.90i
        _, v0 = tuned_well
        cfg = write_config(tmp_path, TUNED_SCAN_TEMPLATE.format(v0=f"{v0.real}{v0.imag:+}j")
                           + f"\n[regularizer]\nz0 = {z0}\nsingularities = 1.0:1\n"
                           "\n[verify]\nsuite = resolution\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        check, = json.loads((tmp_path / "verify_report.json").read_text())["results"]["checks"]
        assert check["passed"] and check["value"] <= 1e-6

    def test_project_locates_without_a_given_eigenvalue(self, tmp_path):
        # a [regularizer] section without `eigenvalue` projects onto the
        # first located root, as a config without the section does
        text = "[model]\nbackend = radial\npotential = square_well\nv0 = -12-2i\n"
        outs = []
        for name, extra in (("bare", ""), ("z0", "\n[regularizer]\nz0 = 1+3i\n")):
            cfg = write_config(tmp_path, text + extra, name=f"{name}.ini")
            out = tmp_path / name
            assert cli.main(["project", "--config", cfg, "--out", str(out)]) == 0
            outs.append(json.loads((out / "project_report.json").read_text())["results"])
        assert outs[0] == outs[1]
        proj, = outs[0]["projections"]
        root = bs.locate_eigenvalues(M.radial_model(M.square_well(-12 - 2j)))[0]["z"]
        assert complex(proj["lambda"]["re"], proj["lambda"]["im"]) == root
        assert proj["rank"] == 1


def test_importing_the_cli_loads_no_scipy():
    # SciPy is imported inside the finite-backend and certified routines
    # that use it, so a continuum command does not wait for it at start-up
    import subprocess
    import sys

    import specres

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(specres.__file__)))
    code = ("import sys, specres.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_entry_point_prints_no_runtime_warning():
    # `python -m specres.cli` runs the module once: importing the package
    # does not import it first
    import subprocess
    import sys

    import specres

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(specres.__file__)))
    out = subprocess.run([sys.executable, "-m", "specres.cli", "scan"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert "missing --config" in out.stderr
    assert "RuntimeWarning" not in out.stderr
