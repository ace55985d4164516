import json
import os

import numpy as np
import pytest

from specres import cli


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

    def test_malformed_weight_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN.replace("weight_s = 1.5",
                                                       "weight_s = -1.0"))
        assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_inadmissible_range_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN.replace(
            "lambda_max = 9.0", "lambda_max = 1e6"))
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


@pytest.mark.parametrize("old, new, field", [
    ("num_points = 60", "num_points = 60\n\n[tolerances]\nfoo = abc", "tolerances.foo"),
    ("potential = none", "potential = piecewise\npieces = 0:1", "model.pieces"),
    ("num_points = 60", "num_points = x", "scan.num_points"),
    ("num_points = 60", "num_points = 60\n\n[run]\nseed = abc", "run.seed"),
    ("num_points = 60", "num_points = 60\n\n[regularizer]\nnu_infinity = x",
     "regularizer.nu_infinity"),
    ("num_points = 60", "num_points = 60\n\n[regularizer]\nsingularities = 1.0",
     "regularizer.singularities"),
], ids=["tolerances", "pieces", "num_points", "seed", "nu_infinity", "singularities"])
def test_malformed_value_exits_2_with_field_path(tmp_path, capsys, old, new, field):
    cfg = write_config(tmp_path, FREE_SCAN.replace(old, new))
    assert cli.main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


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

    def test_bounds_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, FREE_SCAN + "\n[verify]\nsuite = bounds\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0

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
