"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import json
import math

import pytest

from degenheat.cli import main, parse_sweep_spec
from degenheat.criteria import horizon_witness
from degenheat.dynamics import SimConfig, simulate
from degenheat.grids import InitialProfile
from degenheat.lab import (RunSpec, _rungs, default_escalation, kernel_bound, linear_trace,
                           point_criteria)

from conftest import axis_weight, line_grid, power_forcing


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
}
LOG_FORCING = {"profile": {"kind": "constant", "value": 0.5},
               "nonlinearity": {"kind": "log_power", "exponent": 4.0}}


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

    def test_zero_profile_term_is_inert(self, tmp_path, capsys):
        # a one-cell sweep writes the same row with a "zero" profile's term added
        zero = {"profile": {"kind": "zero"},
                "nonlinearity": {"kind": "log_power", "exponent": 3.0}}
        texts = []
        for forcings in (SWEEP_CONFIG["forcings"], SWEEP_CONFIG["forcings"] + [zero]):
            obj = {**SWEEP_CONFIG, "forcings": forcings,
                   "axes": [{"name": "amplitude", "values": [2.0]}]}
            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--config", write_json(tmp_path / "sweep.json", obj),
                         "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[1] == texts[0]
        assert texts[0].splitlines()[1].startswith("2,,BlowUp,")

    def test_default_escalation(self):
        # with no "escalation" key the rungs run to 10, 100 and 1000, on the
        # base grid refined once per rung before them
        obj = {**SWEEP_CONFIG, "grid": {"geometry": "line", "extent": 60.0, "nodes": 121}}
        del obj["escalation"]
        spec = parse_sweep_spec(obj)
        assert spec.escalation == default_escalation()
        assert [(h, grid.nodes, grid.extent) for h, grid in _rungs(spec.base, spec.escalation)] \
            == [(10.0, 121, 60.0), (100.0, 241, 60.0), (1000.0, 481, 60.0)]

    def test_with_criteria_key_is_ignored(self, tmp_path, capsys):
        # older configs may carry "with_criteria": false; like any unknown key it
        # is ignored, and every cell still fills index_I and certificate_tau
        texts = []
        for name, obj in (("plain", SWEEP_CONFIG),
                          ("keyed", {**SWEEP_CONFIG, "with_criteria": False})):
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", "--config", write_json(tmp_path / f"{name}.json", obj),
                         "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[1] == texts[0]
        rows = list(csv.DictReader(texts[0].splitlines()))
        assert [row["index_I"] for row in rows] == ["inf"] * 3
        assert all(float(row["certificate_tau"]) > 0.0 for row in rows)


class TestCriteria:
    def test_zero_profile_term_adds_only_its_tail(self, tmp_path, capsys):
        # a "zero" profile's term changes no row; it only gains its Osgood tail
        zero = {"profile": {"kind": "zero"},
                "nonlinearity": {"kind": "power", "exponent": 7.0}}
        outs = []
        for forcings in (SIM_CONFIG["forcings"], SIM_CONFIG["forcings"] + [zero]):
            obj = {**SIM_CONFIG, "horizon": 50.0, "forcings": forcings}
            assert main(["criteria", "--config", write_json(tmp_path / "crit.json", obj)]) == 0
            outs.append(capsys.readouterr().out.splitlines())
        tail, = [line for line in outs[1] if line.startswith("osgood tail power(7) ")]
        assert float(tail.split()[-1]) > 0.0
        outs[1].remove(tail)
        assert outs[1] == outs[0]

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
        assert rows["global witness"] == f"{report.witness:.6g}"
        witness_t = horizon_witness(linear_trace(run, 50.0, run.grid), run.forcings, 50.0)
        assert rows["witness to horizon"] == f"{witness_t:.6g}"
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

    def test_reports_kernel_bound(self, tmp_path, capsys):
        # the kernel rows come from lab.kernel_bound, as a sweep cell's witnesses do
        obj = {**SIM_CONFIG, "horizon": 50.0,
               "forcings": [{"profile": {"kind": "power", "exponent": 0.0},
                             "nonlinearity": {"kind": "power", "exponent": 4.0}}]}
        assert main(["criteria", "--config", write_json(tmp_path / "crit.json", obj)]) == 0
        lines = capsys.readouterr().out.splitlines()
        run = RunSpec(axis_weight(0.5), line_grid(20.0, 201), (power_forcing(4.0),),
                      InitialProfile("gaussian", 0.5, 1.0), tol=1e-3)
        kernel = kernel_bound(run, 50.0)
        witness_t = horizon_witness(kernel.trace(50.0), run.forcings, 50.0)
        assert [line for line in lines if line.startswith("kernel ")] == [
            f"kernel t0, A          {kernel.t0:.6g}, {kernel.constant:.6g}",
            f"kernel witness        {kernel.witness(run.forcings, 50.0):.6g}",
            f"kernel witness to horizon {witness_t:.6g}",
        ]
        # power-tail and diffusionless data have no kernel bound, and no rows
        for extra in ({"u0": {"kind": "power_tail", "amplitude": 0.5, "rho": 1.0}},
                      {"diffusionless": True}):
            cfg = write_json(tmp_path / "other.json", {**obj, **extra})
            assert main(["criteria", "--config", cfg]) == 0
            assert "kernel" not in capsys.readouterr().out


    def test_index_below_one_is_no_witness(self, tmp_path, capsys):
        # u^4 with I = 0.79 < 1 blows up at t* = 3.8: the witness reads 3 I
        obj = {"weight": {"case": "axis_power", "alpha": 0.0, "dim": 1},
               "grid": {"geometry": "line", "extent": 100.0, "nodes": 3201},
               "u0": {"kind": "gaussian", "amplitude": 0.9, "sigma": 1.0},
               "forcings": [{"profile": {"kind": "power", "exponent": 0.0},
                             "nonlinearity": {"kind": "power", "exponent": 4.0}}],
               "horizon": 1000.0}
        cfg = write_json(tmp_path / "crit.json", obj)
        assert main(["criteria", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "global_by_smallness" not in out
        rows = {line[:22].rstrip(): line[22:] for line in out.splitlines()}
        assert rows["verdict"] == "undetermined"
        assert float(rows["smallness index I"]) < 1.0 < float(rows["global witness"])
        assert main(["simulate", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "blown_up"


class TestDivergentTail:
    """Small data with a large exponent: the Osgood tail exceeds the float range."""

    CONFIG = {**SIM_CONFIG,
              "u0": {"kind": "gaussian", "amplitude": 1e-80, "sigma": 1.0},
              "forcings": [{"profile": {"kind": "power", "exponent": 0.0},
                            "nonlinearity": {"kind": "power", "exponent": 5.0}}]}

    def test_criteria_prints_divergent(self, tmp_path, capsys):
        assert main(["criteria", "--config", write_json(tmp_path / "crit.json", self.CONFIG)]) == 0
        rows = {line[:22].rstrip(): line[22:]
                for line in capsys.readouterr().out.splitlines()}
        assert rows["osgood tail power(5)"] == "divergent"

    def test_sweep_writes_csv(self, tmp_path, capsys):
        obj = {**self.CONFIG, "axes": [{"name": "amplitude", "values": [1e-80]}],
               "escalation": [{"horizon": 1.0}]}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_json(tmp_path / "sweep.json", obj),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["axis1"] for row in rows] == ["1e-80"]
        # the data are 1e-160 times a unit Gaussian: the kernel bound's exact
        # tail witnesses the cell, where a fit over the trace's last decade
        # of [0, 1] gives a divergent index
        assert [(row["classification"], row["index_I"]) for row in rows] == \
            [("GlobalLike", "inf")]


class TestOverflowingProfile:
    """t u^2 integrates to t^2 / 2, which overflows a float at horizon 1e160."""

    CONFIG = {**SIM_CONFIG,
              "weight": {"case": "axis_power", "alpha": 0.0, "dim": 1},
              "grid": {"geometry": "line", "extent": 10.0, "nodes": 21},
              "u0": {"kind": "gaussian", "amplitude": 1e-3, "sigma": 1.0},
              "forcings": [{"profile": {"kind": "power", "exponent": 1.0},
                            "nonlinearity": {"kind": "power", "exponent": 2.0}}],
              "horizon": 1e160}

    def test_simulate_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", self.CONFIG)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "horizon 1e+160" in err and "TimeProfile(exponent=1.0" in err

    def test_criteria_diverge_quietly(self, tmp_path, capfd):
        # the primitive of t is infinite at the trace's late times: the index
        # diverges, with no numpy warning on the way
        cfg = write_json(tmp_path / "sim.json", self.CONFIG)
        assert main(["criteria", "--config", cfg]) == 0
        out, err = capfd.readouterr()
        assert "smallness index I     divergent\n" in out
        assert err == ""
        obj = {**self.CONFIG, "axes": [{"name": "amplitude", "values": [1e-3]}],
               "escalation": [{"horizon": 1e160}]}
        sweep = write_json(tmp_path / "sweep.json", obj)
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep.csv")]) == 0
        assert "Warning" not in capfd.readouterr().err

    def test_sweep_cell_is_undetermined(self, tmp_path):
        obj = {**self.CONFIG, "axes": [{"name": "amplitude", "values": [1e-3]}],
               "escalation": [{"horizon": 1e160}]}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_json(tmp_path / "sweep.json", obj),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["axis1"], r["classification"], r["horizon"]) for r in rows] == [
            ("0.001", "Undetermined", "1e+160")]


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

    # recorded output, compared as criterion 6 compares: numbers to 1e-9 relative
    KERNEL_PROBE = """\
t,sup_value,mass,slope_window_estimate
0.5,0.5125774165,1.000000368,
1,0.3227267048,0.99999998,
2,0.2032521892,0.9999341951,-0.6672495126
4,0.1280248704,0.991884522,-0.6671079524
8,0.08061626851,0.9027712079,-0.6671142873
"""

    def test_kernel_probe_recorded_output(self, capsys):
        assert main(["kernel-probe", "--alpha", "0.5", "--times", "0.5,1,2,4,8"]) == 0
        got = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        want = [line.split(",") for line in self.KERNEL_PROBE.splitlines()]
        assert got[0] == want[0] and len(got) == len(want)
        for g, w in zip(got[1:], want[1:]):
            assert len(g) == len(w)
            for a, b in zip(g, w):
                assert a == b if b == "" else a != "" and math.isclose(
                    float(a), float(b), rel_tol=1e-9), (g, w)


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
        # data that grow with |x| are not bounded, as the paper's are
        {"u0": {"kind": "power_tail", "rho": -1.0}},
    ])
    def test_sweep_wide_config_error(self, tmp_path, fault):
        # a fault shared by every cell exits 2 instead of writing a CSV of errors
        cfg = write_json(tmp_path / "bad.json", {**SWEEP_CONFIG, **fault})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_gaussian_width_past_the_float_range(self, tmp_path, capfd, sigma):
        # 2 sigma^2 overflows or underflows a float: both commands exit 2, with
        # no traceback, no numpy warning and no CSV
        u0 = {"kind": "gaussian", "amplitude": 0.5, "sigma": sigma}
        sim = write_json(tmp_path / "sim.json", {**SIM_CONFIG, "u0": u0})
        assert main(["simulate", "--config", sim]) == 2
        sweep = write_json(tmp_path / "sweep.json", {**SWEEP_CONFIG, "u0": u0})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", sweep, "--out", str(out)]) == 2
        assert not out.exists()
        _, err = capfd.readouterr()
        assert err == f"config error: sigma must be positive, with 2*sigma**2 a positive " \
                      f"finite float, got {sigma}\n" * 2

    def test_growing_power_tail_is_refused(self, tmp_path, capfd):
        # (1+|x|)^400 overflows a float: each command exits 2 before realizing
        # the data, with no numpy warning and no output
        u0 = {"kind": "power_tail", "amplitude": 0.5, "rho": -400.0}
        cfg = write_json(tmp_path / "sim.json", {**SIM_CONFIG, "u0": u0})
        assert main(["simulate", "--config", cfg]) == 2
        assert main(["criteria", "--config", cfg]) == 2
        assert main(["decay-probe", "--alpha", "0.5", "--rho", "-400"]) == 2
        assert main(["decay-probe", "--alpha", "0.5", "--rho", "-0.5"]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err == "config error: rho must be finite and >= 0, got -400.0\n" * 3 + \
            "config error: rho must be finite and >= 0, got -0.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]

    def test_gaussian_spike_runs_quietly(self, tmp_path, capfd):
        # 2 sigma^2 = 2e-320 is still a positive float: the data are a spike at x = 0
        u0 = {"kind": "gaussian", "amplitude": 0.5, "sigma": 1e-160}
        values = InitialProfile(**u0).realize(line_grid(20.0, 201)).values
        assert values[100] == 0.5 and values.sum() == 0.5
        sim = write_json(tmp_path / "sim.json", {**SIM_CONFIG, "u0": u0})
        assert main(["simulate", "--config", sim]) == 0
        sweep = write_json(tmp_path / "sweep.json", {**SWEEP_CONFIG, "u0": u0})
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep.csv")]) == 0
        assert "Warning" not in capfd.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("diffusionless", "false"), ("diffusionless", "no"), ("diffusionless", 0.5),
        ("diffusionless", 0),
    ])
    def test_boolean_fields_take_only_true_or_false(self, tmp_path, capsys, field, value):
        # bool("false") is True: such a field must not read as a truth value
        cfg = write_json(tmp_path / "bad.json", {**SWEEP_CONFIG, field: value})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {field} must be true or false" in capsys.readouterr().err
        if field == "diffusionless":
            cfg = write_json(tmp_path / "sim.json", {**SIM_CONFIG, field: value})
            assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("command, fault, field, value", [
        ("simulate", {"grid": {**SIM_CONFIG["grid"], "nodes": 201.5}}, "nodes", 201.5),
        ("simulate", {"weight": {**SIM_CONFIG["weight"], "dim": 1.9}}, "dim", 1.9),
        ("sweep", {"grid": {**SWEEP_CONFIG["grid"], "nodes": 41.7}}, "nodes", 41.7),
        ("sweep", {"grid": {**SWEEP_CONFIG["grid"], "nodes": True}}, "nodes", True),
        ("sweep", {"grid": {**SWEEP_CONFIG["grid"], "nodes": float("inf")}}, "nodes",
         float("inf")),
        ("sweep", {"grid": {**SWEEP_CONFIG["grid"], "nodes": "5"}}, "nodes", "5"),
        ("sweep", {"escalation": [{"horizon": 5.0,
                                   "grid": {**SWEEP_CONFIG["grid"], "nodes": 9.5}}]},
         "nodes", 9.5),
        ("sweep", {"weight": {**SWEEP_CONFIG["weight"], "dim": 1.9}}, "dim", 1.9),
    ])
    def test_integer_fields_take_only_integers(self, tmp_path, capsys, command, fault,
                                               field, value):
        # int() would truncate 41.7 to 41 nodes and read true as 1
        base = SIM_CONFIG if command == "simulate" else SWEEP_CONFIG
        cfg = write_json(tmp_path / "bad.json", {**base, **fault})
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"config error: {field} must be an integer, got {value!r}\n"

    def test_integral_floats_run_as_integers(self, tmp_path, capsys):
        # 5.0 nodes is 5 nodes: the same CSV as the integer
        csvs = []
        for nodes in (5, 5.0):
            cfg = write_json(tmp_path / "sweep.json",
                             {**SWEEP_CONFIG, "grid": {**SWEEP_CONFIG["grid"], "nodes": nodes},
                              "weight": {**SWEEP_CONFIG["weight"], "dim": 1.0}})
            out = tmp_path / f"sweep_{nodes}.csv"
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
            csvs.append(out.read_text())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("command, fault, err", [
        ("simulate", {"tol": "0.01"}, "tol must be a number, got '0.01'"),
        ("simulate", {"horizon": "5"}, "horizon must be a number, got '5'"),
        ("sweep", {"grid": {**SWEEP_CONFIG["grid"], "extent": True}},
         "extent must be a number, got True"),
        ("sweep", {"u0": {**SWEEP_CONFIG["u0"], "amplitude": True}},
         "amplitude must be a number, got True"),
        ("sweep", {"axes": [{"name": "amplitude", "values": [0.5, True]}]},
         "axis 'amplitude' value must be a number, got True"),
        ("sweep", {"escalation": [{"horizon": "10"}]}, "horizon must be a number, got '10'"),
        ("sweep", {"axes": [{"name": "amplitude", "values": "34"}]},
         "axis 'amplitude' values must be a list, got '34'"),
        ("sweep", {"axes": [{"name": "amplitude", "values": {"3": 1}}]},
         "axis 'amplitude' values must be a list, got {'3': 1}"),
        ("sweep", {"axes": [{"name": "amplitude", "values": []}]},
         "axis 'amplitude' needs at least one value"),
        ("criteria", {"horizon": "50"}, "horizon must be a number, got '50'"),
    ])
    def test_number_fields_take_only_numbers(self, tmp_path, capsys, command, fault, err):
        # float() would read true as 1.0 and "0.01" as 0.01, and map(float, ...)
        # would run a string's digits or a dict's keys as axis values
        base = SWEEP_CONFIG if command == "sweep" else SIM_CONFIG
        cfg = write_json(tmp_path / "bad.json", {**base, **fault})
        out = [] if command == "criteria" else ["--out", str(tmp_path / "out.csv")]
        assert main([command, "--config", cfg] + out) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]
        assert capsys.readouterr() == ("", f"config error: {err}\n")

    def test_integers_past_the_float_range_read_as_infinite(self, tmp_path, capsys):
        # float() raises OverflowError here, which no config check caught
        huge = json.dumps(SIM_CONFIG).replace('"extent": 20.0', '"extent": 1' + "0" * 400)
        cfg = tmp_path / "bad.json"
        cfg.write_text(huge)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "config error: extent must be finite and "
                                           "positive, got inf\n")

    def test_integral_numbers_run_as_floats(self, tmp_path, capsys):
        # an extent of 60 is 60.0: the same CSV as the float
        csvs = []
        for extent in (60, 60.0):
            cfg = write_json(tmp_path / "sweep.json",
                             {**SWEEP_CONFIG, "grid": {**SWEEP_CONFIG["grid"], "extent": extent}})
            out = tmp_path / f"sweep_{extent}.csv"
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
            csvs.append(out.read_text())
        assert csvs[0] == csvs[1]

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_needs_a_worker(self, tmp_path, capfd, workers):
        # checked before the config is read: no rows, no CSV, the option named
        cfg = write_json(tmp_path / "sweep.json", SWEEP_CONFIG)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), f"--workers={workers}"]) == 2
        assert not out.exists()
        assert capfd.readouterr() == ("", f"config error: sweep needs --workers >= 1, "
                                          f"got {workers}\n")

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
