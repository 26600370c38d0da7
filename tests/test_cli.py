"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import json

import pytest

from degenheat.cli import main
from degenheat.dynamics import (ForcingTerm, Nonlinearity, SimConfig, TimeProfile,
                                simulate)
from degenheat.grids import InitialProfile
from degenheat.lab import RunSpec, point_criteria

from conftest import axis_weight, line_grid


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SIM_CONFIG = {
    "weight": {"case": "axis_power", "alpha": 0.5, "dim": 1},
    "grid": {"geometry": "line", "extent": 20.0, "nodes": 201},
    "u0": {"kind": "gaussian", "amplitude": 0.5, "sigma": 1.0},
    "forcings": [
        {"profile": {"kind": "power", "exponent": 0.0},
         "nonlinearity": {"kind": "power", "exponent": 2.0}},
    ],
    "horizon": 1.0,
}
SWEEP_CONFIG = {
    **SIM_CONFIG,
    "u0": {"kind": "constant", "amplitude": 1.0},
    "grid": {"geometry": "line", "extent": 2.0, "nodes": 5},
    "diffusionless": True,
    "axes": [{"name": "amplitude", "values": [0.5, 1.0, 2.0]}],
    "escalation": [{"horizon": 5.0}],
    "with_criteria": False,
}
LOG_FORCING = {"profile": {"kind": "constant", "value": 0.5},
               "nonlinearity": {"kind": "log_power", "exponent": 4.0}}


def power_forcing(p: float) -> ForcingTerm:
    return ForcingTerm(TimeProfile.power(0.0), Nonlinearity.power(p))


class TestSimulate:
    def test_runs_and_writes_json(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        out = tmp_path / "result.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "completed"
        assert payload["history"][0]["t"] == 0.0

    def test_prints_to_stdout(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "completed"

    def test_matches_library_run(self, tmp_path, capsys):
        # an absent "tol" means 1e-3 for a single run
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        assert main(["simulate", "--config", cfg]) == 0
        grid = line_grid(20.0, 201)
        config = SimConfig(axis_weight(0.5), grid, [power_forcing(2.0)],
                           InitialProfile("gaussian", 0.5, 1.0).realize(grid), 1.0,
                           tol=1e-3)
        assert capsys.readouterr().out == simulate(config).to_json() + "\n"


class TestSweep:
    def test_csv_and_svg(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_CONFIG)
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--svg", str(svg), "--workers", "2"])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert rows[-1]["classification"] == "BlowUp"
        assert svg.read_text().startswith("<svg")


class TestCriteria:
    def test_prints_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "crit.json", {**SIM_CONFIG, "horizon": 50.0})
        assert main(["criteria", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "p_star" in out

    def test_reports_point_criteria(self, tmp_path, capsys):
        obj = {**SIM_CONFIG, "horizon": 50.0,
               "forcings": [{"profile": {"kind": "power", "exponent": 0.0},
                             "nonlinearity": {"kind": "power", "exponent": 4.0}}]}
        assert main(["criteria", "--config", write_json(tmp_path / "crit.json", obj)]) == 0
        rows = {line[:22].rstrip(): line[22:]
                for line in capsys.readouterr().out.splitlines()}
        run = RunSpec(axis_weight(0.5), line_grid(20.0, 201), (power_forcing(4.0),),
                      InitialProfile("gaussian", 0.5, 1.0), tol=1e-3)
        report = point_criteria(run, 50.0)
        assert rows["verdict"] == report.verdict
        assert rows["smallness index I"] == f"{report.smallness_index:.6g}"
        assert rows["certificate tau"] == "-" and report.certificate_tau is None
        assert rows["p_star"] == f"{report.p_star:.6g}"
        assert rows["rho_star"] == f"{report.rho_star:.6g}"
        assert rows["decay theta"].startswith(f"{report.envelope.theta:.4f} ")
        assert rows["osgood tail power(4)"] == f"{report.osgood_tails['power(4)']:.6g}"

    def test_long_label_keeps_a_space(self, tmp_path, capsys):
        obj = {**SIM_CONFIG, "horizon": 50.0,
               "forcings": SIM_CONFIG["forcings"] + [LOG_FORCING]}
        assert main(["criteria", "--config", write_json(tmp_path / "crit.json", obj)]) == 0
        lines = capsys.readouterr().out.splitlines()
        row, = [line for line in lines if line.startswith("osgood tail log_power(4)")]
        label, value = row.rsplit(" ", 1)
        assert label == "osgood tail log_power(4)"
        assert float(value) > 0.0
        # a label that fits keeps its padding to 22 columns
        assert any(line.startswith("osgood tail power(2)  ") for line in lines)


class TestProbes:
    def test_kernel_probe(self, tmp_path):
        out = tmp_path / "kernel.csv"
        code = main(["kernel-probe", "--alpha", "0.5", "--times", "0.5,1,2,4",
                     "--nodes", "401", "--extent", "15", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["t"] for r in rows] == ["0.5", "1", "2", "4"]
        slope = float(rows[-1]["slope_window_estimate"])
        assert abs(slope - (-1.0 / 1.5)) < 0.1

    def test_decay_probe(self, capsys):
        code = main(["decay-probe", "--rho", "0.5", "--alpha", "0",
                     "--nodes", "401", "--extent", "60",
                     "--t-min", "2", "--t-max", "25", "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted theta" in out


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_schema_violation(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"weight": {"case": "axis_power",
                                                            "alpha": 0.5}})
        assert main(["simulate", "--config", cfg]) == 2

    def test_invalid_values(self, tmp_path):
        bad = dict(SIM_CONFIG)
        bad["weight"] = {"case": "axis_power", "alpha": 1.5, "dim": 1}
        cfg = write_json(tmp_path / "bad.json", bad)
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("fault", [
        {"tol": -1},
        {"escalation": [{"horizon": 0.0}, {"horizon": 5.0}]},
        {"blowup_threshold": -1},
        # grid and weight that cannot be paired
        {"weight": {"case": "axis_power", "alpha": 0.5, "dim": 2},
         "grid": {"geometry": "radial", "extent": 2.0, "nodes": 5, "dim": 2}},
        {"weight": {"case": "axis_power", "alpha": 0.5, "dim": 2}},
        {"escalation": [{"horizon": 5.0,
                         "grid": {"geometry": "radial", "extent": 2.0, "nodes": 5}}]},
        # NaN passes a "<= 0" test
        {"tol": float("nan")},
        {"blowup_threshold": float("nan")},
        # an infinite horizon never ends; NaN anywhere else runs to a CSV of errors
        {"escalation": [{"horizon": float("inf")}]},
        {"escalation": [{"horizon": 5.0}, {"horizon": float("nan")}]},
        {"forcings": [{"profile": {"kind": "power", "exponent": float("nan")},
                       "nonlinearity": {"kind": "power", "exponent": 2.0}}]},
        {"forcings": [{"profile": {"kind": "power", "exponent": 0.0},
                       "nonlinearity": {"kind": "power", "exponent": float("nan")}}]},
        {"grid": {"geometry": "line", "extent": float("nan"), "nodes": 5}},
        {"axes": [{"name": "amplitude", "values": [0.5, float("nan")]}]},
        {"u0": {"kind": "constant", "amplitude": float("nan")}},
        {"u0": {"kind": "constant", "amplitude": float("inf")}},
        {"u0": {"kind": "gaussian", "sigma": float("nan")}},
        # sigma = 0 divides by zero when each cell realizes its data
        {"u0": {"kind": "gaussian", "sigma": 0.0}},
        {"u0": {"kind": "power_tail", "rho": float("nan")}},
    ])
    def test_sweep_wide_config_error(self, tmp_path, fault):
        # a fault shared by every cell exits 2 instead of writing a CSV of errors
        cfg = write_json(tmp_path / "bad.json", {**SWEEP_CONFIG, **fault})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_probe_times(self, capfd):
        # checked before any probe runs: no LAPACK message, no rows, the times named
        for times in ("-1,2", "1,1,1", "0.5,1,1,2", "inf", "nan,1"):
            assert main(["kernel-probe", "--alpha", "0", "--nodes", "101",
                         f"--times={times}"]) == 2
            out, err = capfd.readouterr()
            assert out == ""
            assert err == ("config error: kernel-probe needs finite, positive, distinct "
                           f"probe times, got {times}\n")

    def test_bad_decay_window(self, capfd):
        # checked before any probe runs: no numpy warning, the arguments named
        base = ["decay-probe", "--rho", "0.5", "--alpha", "0.5", "--nodes", "101"]
        for t_min, t_max in (("80", "5"), ("5", "5"), ("0", "80"), ("-1", "80"),
                             ("5", "inf"), ("nan", "80"), ("5", "nan")):
            assert main(base + [f"--t-min={t_min}", f"--t-max={t_max}"]) == 2
            out, err = capfd.readouterr()
            assert out == ""
            assert err == ("config error: decay-probe needs 0 < --t-min < --t-max < inf, "
                           f"got --t-min {float(t_min)} --t-max {float(t_max)}\n")
        for samples in ("2", "0", "-4"):
            assert main(base + [f"--samples={samples}"]) == 2
            out, err = capfd.readouterr()
            assert out == ""
            assert err == f"config error: decay-probe needs --samples >= 3, got {samples}\n"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-6"])
    def test_bad_probe_tol(self, tol, capsys):
        assert main(["kernel-probe", "--alpha", "0.5", "--times", "0.5,1",
                     "--nodes", "101", f"--tol={tol}"]) == 2
        assert main(["decay-probe", "--rho", "0.5", "--alpha", "0.5", "--nodes", "101",
                     "--samples", "3", f"--tol={tol}"]) == 2
        assert capsys.readouterr().out == ""

    def test_numeric_failure(self, tmp_path):
        # first explicit source step overflows with no runaway history: exit 3
        cfg = write_json(tmp_path / "overflow.json", {
            "weight": {"case": "axis_power", "alpha": 0.0, "dim": 1},
            "grid": {"geometry": "line", "extent": 1.0, "nodes": 5},
            "u0": {"kind": "constant", "amplitude": 1e80},
            "forcings": [
                {"profile": {"kind": "power", "exponent": 0.0},
                 "nonlinearity": {"kind": "power", "exponent": 6.0}},
            ],
            "horizon": 1.0,
            "blowup_threshold": 1e90,
        })
        assert main(["simulate", "--config", cfg]) == 3
