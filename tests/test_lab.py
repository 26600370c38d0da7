"""Tests for sweep orchestration, classification, and artifact emission."""

import io
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat import dynamics, lab
from degenheat.criteria import horizon_witness
from degenheat.dynamics import ForcingTerm, Nonlinearity, TimeProfile, simulate
from degenheat.errors import ConfigError, NumericError
from degenheat.grids import Geometry, InitialProfile
from degenheat.lab import (EscalationLevel, RunSpec, SweepSpec, apply_axis,
                           classify_point, default_escalation, points_to_csv,
                           run_sweep, sweep_svg)

from conftest import axis_weight, line_grid, radial_grid, radial_weight


def base_run(**kwargs) -> RunSpec:
    defaults = dict(
        weight=axis_weight(0.0),
        grid=line_grid(2.0, 5),
        forcings=(ForcingTerm(TimeProfile.power(0.0), Nonlinearity.power(2.0)),),
        profile=InitialProfile("constant", 1.0),
        tol=1e-3,
        diffusionless=True,
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestApplyAxis:
    def test_each_axis(self):
        run = base_run(forcings=(
            ForcingTerm(TimeProfile.power(0.0), Nonlinearity.power(2.0)),
            ForcingTerm(TimeProfile.power(0.0), Nonlinearity.log_power(2.0)),
        ))
        assert apply_axis(run, "p", 3.5).forcings[0].nonlinearity.exponent == 3.5
        assert apply_axis(run, "q", 2.5).forcings[1].nonlinearity.exponent == 2.5
        assert apply_axis(run, "r", 1.0).forcings[0].profile.exponent == 1.0
        assert apply_axis(run, "s", 0.5).forcings[1].profile.exponent == 0.5
        assert apply_axis(run, "alpha", 0.5).weight.alpha == 0.5
        assert apply_axis(run, "amplitude", 3.0).profile.amplitude == 3.0

    def test_profile_axis_keeps_coefficient(self):
        run = base_run(forcings=(
            ForcingTerm(TimeProfile.zero(), Nonlinearity.power(2.0)),
            ForcingTerm(TimeProfile.constant(0.5), Nonlinearity.log_power(2.0)),
        ))
        assert apply_axis(run, "s", 0.0).forcings[1].profile.primitive(2.0) == 1.0
        assert apply_axis(run, "r", 1.0).forcings[0].profile.is_zero

    def test_errors(self):
        run = base_run()
        with pytest.raises(ConfigError):
            apply_axis(run, "sigma", 1.0)
        with pytest.raises(ConfigError):
            apply_axis(run, "q", 2.0)  # no log term present


class TestSweepSpecValidation:
    def test_axis_count(self):
        run = base_run()
        with pytest.raises(ConfigError):
            SweepSpec(run, ())
        with pytest.raises(ConfigError):
            SweepSpec(run, (("p", [2.0]), ("q", [2.0]), ("r", [0.0])))

    def test_duplicate_axis_names(self):
        with pytest.raises(ConfigError):
            SweepSpec(base_run(), (("p", [2.0, 3.0]), ("p", [4.0, 5.0])))

    def test_increasing_grids_and_horizons(self):
        run = base_run()
        with pytest.raises(ConfigError):
            SweepSpec(run, (("p", [3.0, 2.0]),))
        with pytest.raises(ConfigError):
            SweepSpec(run, (("p", [2.0, 3.0]),),
                      (EscalationLevel(10.0), EscalationLevel(5.0)))
        with pytest.raises(ConfigError):
            SweepSpec(run, (("p", [2.0, 3.0]),),
                      (EscalationLevel(0.0), EscalationLevel(5.0)))
        with pytest.raises(ConfigError):
            base_run(tol=-1.0)
        # NaN passes every "<=" comparison; an infinite horizon never ends
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                SweepSpec(run, (("p", [2.0, bad]),))
            with pytest.raises(ConfigError):
                SweepSpec(run, (("p", [2.0, 3.0]),), (EscalationLevel(bad),))
            with pytest.raises(ConfigError):
                SweepSpec(run, (("p", [2.0, 3.0]),),
                          (EscalationLevel(5.0), EscalationLevel(bad)))

    def test_run_wide_faults(self):
        for bad in (dict(blowup_threshold=-1.0), dict(blowup_threshold=0.0),
                    dict(blowup_threshold=math.nan), dict(tol=math.nan),
                    dict(weight=axis_weight(0.5, 2)),
                    dict(weight=axis_weight(0.5, 2), grid=radial_grid(2.0, 5, 2)),
                    dict(weight=radial_weight(0.5, 3), grid=radial_grid(2.0, 5, 2))):
            with pytest.raises(ConfigError):
                base_run(**bad)
        run = base_run()
        with pytest.raises(ConfigError):
            SweepSpec(run, (("p", [2.0, 3.0]),),
                      (EscalationLevel(5.0), EscalationLevel(50.0, radial_grid(2.0, 5, 1))))
        # a rung grid that pairs with the weight is accepted
        SweepSpec(run, (("p", [2.0, 3.0]),), (EscalationLevel(5.0, line_grid(4.0, 9)),))


@pytest.fixture
def simulated(monkeypatch):
    """The horizon of every source run that ``lab`` simulates, in call order."""
    horizons = []

    def recording(cfg, **kwargs):
        if cfg.forcings:
            horizons.append(cfg.horizon)
        return simulate(cfg, **kwargs)

    monkeypatch.setattr(lab, "simulate", recording)
    return horizons


class TestClassifyPoint:
    def test_zero_data_global(self):
        run = base_run(profile=InitialProfile("constant", 0.0), diffusionless=False)
        pt = classify_point(run, default_escalation((1.0, 5.0)))
        assert pt.classification == "GlobalLike"

    def test_ode_point_blows(self):
        pt = classify_point(base_run(), default_escalation((5.0,)))
        assert pt.classification == "BlowUp"
        assert pt.t_star == pytest.approx(1.0, abs=0.02)

    def test_supercritical_dichotomy(self, simulated):
        run = base_run(
            weight=axis_weight(0.0),
            grid=line_grid(40.0, 401),
            forcings=(ForcingTerm(TimeProfile.power(0.0), Nonlinearity.power(4.0)),),
            profile=InitialProfile("gaussian", 1e-2, 1.0),
            diffusionless=False,
            tol=1e-2,
        )
        ladder = default_escalation((5.0, 50.0))
        small = classify_point(run, ladder)
        assert small.classification == "GlobalLike"
        # the horizon witness rules out blow-up on both of the small cell's
        # rungs, so its global witness decides it with no source run; each
        # skipped rung completes when run
        assert simulated == []
        for horizon, grid in lab._rungs(run, ladder):
            assert simulate(run.config(horizon, grid)).status == "completed"
        big = classify_point(apply_axis(run, "amplitude", 1e4), ladder)
        assert big.classification == "BlowUp"

    def test_subcritical_decay_is_undetermined(self):
        # p = 2 <= p* = 3: small data decay over the horizon but must blow up later
        run = base_run(
            grid=line_grid(40.0, 401),
            profile=InitialProfile("gaussian", 1e-3, 1.0),
            diffusionless=False,
            tol=1e-2,
        )
        pt = classify_point(run, default_escalation((5.0, 50.0)))
        assert pt.classification == "Undetermined"
        # the kernel bound to t = 50 rules out blow-up there: no rung is simulated
        assert pt.reason == ("subcritical: p = 2 <= p* = 3; horizon too short; "
                             "no blow-up before 50: (m-1)*I(T) = 0.00913 < 1 (kernel bound)")

    # Two runs that blow up with no witness: one with I < 1, and one whose sup
    # falls from t = 10 to t = 305 before the blow-up at t = 640.
    def test_index_below_one_is_no_witness(self):
        run = base_run(grid=line_grid(100.0, 3201), forcings=(
            ForcingTerm(TimeProfile.power(0.0), Nonlinearity.power(4.0)),),
            profile=InitialProfile("gaussian", 0.9, 1.0), diffusionless=False, tol=1e-2)
        report = lab.point_criteria(run, 1000.0)
        assert report.smallness_index < 1.0
        assert report.witness == pytest.approx(2.38, rel=1e-2)
        assert report.verdict != "global_by_smallness"
        pt = classify_point(run, default_escalation((1000.0,)))
        assert pt.classification == "BlowUp"

    def test_decaying_trace_is_no_witness(self):
        run = base_run(grid=line_grid(600.0, 4801), forcings=(
            ForcingTerm(TimeProfile.power(0.0), Nonlinearity.power(4.0)),),
            profile=InitialProfile("gaussian", 0.29, 5.0), diffusionless=False, tol=1e-4)
        assert lab.point_criteria(run, 100.0).witness == pytest.approx(5.07, rel=1e-2)
        pt = classify_point(run, default_escalation((10.0, 100.0)))
        assert (pt.classification, pt.reason) == ("Undetermined", "no global witness")

    @staticmethod
    def _first_rungs(simulated, profile: InitialProfile, amplitudes, read_trace) -> list:
        """The first rung that ``profile`` simulates at each of ``amplitudes``.

        A rung runs only when the sup trace ``read_trace(run, horizon, grid)``
        of the final rung leaves (m-1)*I(T) >= 1 to its horizon; a skipped rung, the first one included,
        completes when run, and the first rung that runs blows up.
        """
        grid = line_grid(100.0, 401)
        ladder = tuple(EscalationLevel(h, grid) for h in (5.0, 50.0, 200.0, 5000.0))
        firsts = []
        for amplitude in amplitudes:
            run = base_run(grid=grid, profile=replace(profile, amplitude=amplitude),
                           diffusionless=False, tol=1e-2)
            simulated.clear()
            pt = classify_point(run, ladder)
            trace = read_trace(run, 5000.0, grid)
            horizons = [lv.horizon for lv in ladder]
            ran = [h for h in horizons if horizon_witness(trace, run.forcings, h) >= 1.0]
            assert simulated == [ran[0]]
            for h in horizons[:horizons.index(ran[0])]:
                assert not simulate(run.config(h)).blew_up
            assert pt.classification == "BlowUp"
            assert pt.t_star == simulate(run.config(ran[0])).t_star
            firsts.append(ran[0])
        return firsts

    def test_witnessed_rungs_are_skipped(self, simulated):
        # alpha = 0, p = 2 <= p* = 3: small data blow up late, at t* = 2007, 331 and
        # 88 for the three amplitudes.  Gaussian data read the kernel bound.
        firsts = self._first_rungs(simulated, InitialProfile("gaussian", sigma=1.0),
                                   (0.02, 0.05, 0.1),
                                   lambda run, horizon, grid:
                                   lab.kernel_bound(run, horizon).trace(horizon))
        # the two lower amplitudes skip three rungs and still blow up on the last
        assert firsts == [5000.0, 5000.0, 200.0]

    def test_witnessed_power_tail_rungs_are_skipped(self, simulated):
        # The same for power-tail data, at t* = 1269, 442 and 112, which read the
        # linear trace on the final rung's grid.
        firsts = self._first_rungs(simulated, InitialProfile("power_tail", rho=1.0),
                                   (0.01, 0.02, 0.05), lab.linear_trace)
        assert firsts == [5000.0, 5000.0, 200.0]

    def test_skip_keeps_the_solvers_blowup(self, simulated):
        # u^1.1 on constant data 1 solves (1 - 0.1 t)^(-10): the horizon witness
        # 0.1 * 9 = 0.9 < 1 rules out blow-up before t = 9, but psi(9) = 1e10
        # lets the solver cross its threshold 1e8 at t ~ 8.45, so rung 2 runs.
        # Rung 1 runs too: psi(5) = 2^10 is past the 1000-fold growth test.
        run = base_run(forcings=(ForcingTerm(TimeProfile.power(0.0),
                                             Nonlinearity.power(1.1)),))
        trace = lab.linear_trace(run, 9.0, run.grid)
        assert horizon_witness(trace, run.forcings, 9.0) == pytest.approx(0.9)
        pt = classify_point(run, default_escalation((5.0, 9.0)))
        assert simulated == [5.0, 9.0]
        assert (pt.classification, pt.horizon) == ("BlowUp", 9.0)
        assert pt.t_star == pytest.approx(8.4519, abs=1e-3)

    def test_diffusionless_run_takes_no_kernel_bound(self):
        # u' = u^4 from 1e-2 blows up near 1/(3e-6); with no diffusion no kernel
        # bounds the flow, whose bound would witness the cell as global
        run = base_run(forcings=(ForcingTerm(TimeProfile.power(0.0),
                                             Nonlinearity.power(4.0)),),
                       profile=InitialProfile("gaussian", 1e-2, 1.0), tol=1e-2)
        assert lab.kernel_bound(run, 1e7) is None
        assert lab.kernel_bound(replace(run, diffusionless=False), 1e7) is not None
        pt = classify_point(run, default_escalation((5.0, 1e7)))
        assert (pt.classification, pt.horizon) == ("BlowUp", 1e7)
        assert pt.t_star == pytest.approx(359720.68955750595, rel=1e-12)

    def test_empty_escalation(self):
        with pytest.raises(ConfigError):
            classify_point(base_run(), ())


class TestRunSweep:
    def _spec(self):
        return SweepSpec(base_run(), (("amplitude", [0.5, 1.0, 2.0]),),
                         default_escalation((5.0,)))

    def test_empty_grid_header_only(self):
        spec = SweepSpec(base_run(), (("amplitude", []),),
                         default_escalation((5.0,)))
        points = run_sweep(spec, 1)
        assert points == []
        assert points_to_csv(points) == \
            "axis1,axis2,classification,t_star,horizon,index_I,certificate_tau\n"

    def test_amplitude_monotone_blowup(self):
        # BlowUp set is upward closed along the amplitude axis
        points = run_sweep(self._spec(), 1)
        blew = [pt.classification == "BlowUp" for pt in points]
        assert blew == sorted(blew)
        ts = [pt.t_star for pt in points if pt.t_star is not None]
        assert all(a >= b for a, b in zip(ts, ts[1:]))

    def test_determinism_worker_counts(self):
        spec = self._spec()
        csv1 = points_to_csv(run_sweep(spec, 1))
        csv2 = points_to_csv(run_sweep(spec, 2))
        assert csv1 == csv2

    def test_pool_capped_at_points(self, monkeypatch):
        # a pool starts all its workers at once: 64 asked for, 2 points, 2 started
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        spec = SweepSpec(base_run(), (("amplitude", [0.5, 2.0]),),
                         default_escalation((5.0,)))
        pooled = run_sweep(spec, 64)
        assert started == [2]
        assert pooled == run_sweep(spec, 1)
        # one point runs in process, with no pool at all
        one = SweepSpec(base_run(), (("amplitude", [2.0]),),
                        default_escalation((5.0,)))
        assert run_sweep(one, 64) == run_sweep(one, 1)
        assert started == [2]

    def test_csv_roundtrip(self):
        points = run_sweep(self._spec(), 1)
        rows = points_to_csv(points).strip().split("\n")[1:]
        assert len(rows) == len(points)
        for row, pt in zip(rows, points):
            ax1, ax2, cls, t_star, horizon, index_i, tau = row.split(",")
            assert (float(ax1),) == pt.axis_values and ax2 == ""
            assert cls == pt.classification
            if t_star:
                assert float(t_star) == pytest.approx(pt.t_star, rel=1e-9)
            else:
                assert pt.t_star is None
            assert float(horizon) == pt.horizon

    def test_two_axis_ordering(self):
        spec = SweepSpec(base_run(), (("p", [2.0, 3.0]), ("amplitude", [1.0, 2.0])),
                         default_escalation((5.0,)))
        points = run_sweep(spec, 1)
        assert [pt.axis_values for pt in points] == \
            [(2.0, 1.0), (2.0, 2.0), (3.0, 1.0), (3.0, 2.0)]


def _shared_trace_sweep(profile: InitialProfile) -> SweepSpec:
    """3 x 2 cells on two rungs whose p and amplitude axes leave the
    unit-amplitude linear run alone."""
    run = base_run(weight=axis_weight(0.5), grid=line_grid(60.0, 121), diffusionless=False,
                   profile=profile, tol=1e-2)
    escalation = (EscalationLevel(40.0), EscalationLevel(100.0, line_grid(120.0, 241)))
    return SweepSpec(run, (("p", [2.0, 4.0, 6.0]), ("amplitude", [1e-3, 1e-2])),
                     escalation)


def test_serial_sweep_shares_linear_traces(monkeypatch):
    # The p and amplitude axes leave the unit-amplitude linear run
    # (forcings=()) alone: 3 x 2 cells, 2 linear runs.
    linear, rungs = [], []
    real = lab.simulate

    def counting(cfg, **kwargs):
        runs = rungs if cfg.forcings else linear
        runs.append((float(cfg.u0.values.max()), cfg.grid.nodes, cfg.horizon))
        return real(cfg, **kwargs)

    monkeypatch.setattr(lab, "simulate", counting)
    # power-tail data: no kernel bound stands in for the final rung's trace
    spec = _shared_trace_sweep(InitialProfile("power_tail", 1.0, rho=1.0))
    points = run_sweep(spec, 1)
    # one unit trace at the first horizon on the base grid, and one on the
    # final rung's grid to the final horizon: lines of 121 and 241 nodes
    shared = [(1.0, 121, 40.0), (1.0, 241, 100.0)]
    assert sorted(linear) == shared
    assert [pt.classification for pt in points] == ["Undetermined"] * 2 + ["GlobalLike"] * 4
    # the trace's horizon witness rules out blow-up on both rungs of every cell:
    # the p = 2 cells are Undetermined and the others GlobalLike, with no source run
    assert rungs == []
    assert all("; no blow-up before 100: " in pt.reason for pt in points[:2])
    assert all(pt.horizon == 100.0 for pt in points)
    # a shared trace still meets each point's own sources: p = 4 and 6 index differently
    assert len({pt.index_I for pt in points[2:]}) == 4
    assert len({pt.reason for pt in points[2:]}) == 4
    # nothing is carried into the next call
    linear.clear()
    assert run_sweep(spec, 1) == points
    assert sorted(linear) == shared
    # each point computed alone, with its own linear runs, reads the same
    linear.clear()
    for (values, cell), point in zip(spec.points(), points):
        alone = classify_point(cell, spec.escalation)
        alone.axis_values = values
        assert alone == point
    assert len(linear) == 6 + 6


@pytest.fixture
def pickling_pool(monkeypatch):
    """A process pool stand-in that pickles each job, as a process pool does,
    and runs it here.  Returns the linear runs, each with where it ran, and
    every numpy array that a job's pickle held."""
    import concurrent.futures

    linear, arrays, where = [], [], ["parent"]
    real = lab.simulate

    def counting(cfg, **kwargs):
        if not cfg.forcings:
            linear.append((where[0], float(cfg.u0.values.max()), cfg.grid.nodes,
                           cfg.horizon))
        return real(cfg, **kwargs)

    class ArrayPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            return NotImplemented

    class PicklingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            where[0] = "worker"
            points = []
            for job in jobs:
                buffer = io.BytesIO()
                ArrayPickler(buffer).dump(job)
                points.append(fn(pickle.loads(buffer.getvalue())))
            where[0] = "parent"
            return points

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
    monkeypatch.setattr(lab, "simulate", counting)
    return SimpleNamespace(linear=linear, arrays=arrays)


def test_pooled_traces_come_from_the_parent(pickling_pool):
    # A pooled sweep runs each distinct unit linear trace once, in the parent,
    # before its pool starts, and each job carries only its cell's evidence:
    # no linear run happens in a job.
    spec = _shared_trace_sweep(InitialProfile("power_tail", 1.0, rho=1.0))
    pooled = run_sweep(spec, 2)
    # one per (unit run, grid, horizon): the first horizon on the base grid,
    # and the final horizon on the final rung's grid
    assert sorted(pickling_pool.linear) == [("parent", 1.0, 121, 40.0),
                                            ("parent", 1.0, 241, 100.0)]
    assert pooled == run_sweep(spec, 1)


def test_pooled_jobs_carry_no_trace(pickling_pool):
    # The amplitude 1e6 leaves the blow-up threshold 1e8 below 1e3 * sup(u0):
    # those cells' evidence raises ConfigError in the parent, and their jobs
    # carry the error.  No job pickles an array, and no linear run happens in one.
    spec = replace(_shared_trace_sweep(InitialProfile("power_tail", 1.0, rho=1.0)),
                   axes=(("p", [2.0, 4.0]), ("amplitude", [1e-3, 1e6])))
    pooled = run_sweep(spec, 2)
    assert sorted(pickling_pool.linear) == [("parent", 1.0, 121, 40.0),
                                            ("parent", 1.0, 241, 100.0)]
    assert pickling_pool.arrays == []
    assert [pt.reason.startswith("config error: blowup_threshold") for pt in pooled] == \
        [False, True, False, True]
    assert pooled == run_sweep(spec, 1)


@pytest.mark.parametrize("profile", [InitialProfile("gaussian", 0.1, 1.0),
                                     InitialProfile("power_tail", 0.05, rho=1.0)])
def test_evidence_in_hand_runs_only_source_rungs(monkeypatch, profile):
    # Handed its cell_evidence, a cell takes no linear reading: it simulates
    # only the source rung its horizon witnesses leave open (t = 200, where
    # it blows up) and returns the point it returns without the record.
    grid = line_grid(100.0, 401)
    ladder = tuple(EscalationLevel(h, grid) for h in (5.0, 50.0, 200.0, 5000.0))
    run = base_run(grid=grid, profile=profile, diffusionless=False, tol=1e-2)
    alone = classify_point(run, ladder)
    evidence = lab.cell_evidence(run, lab._rungs(run, ladder))
    runs = []
    real = lab.simulate

    def recording(cfg, **kwargs):
        runs.append((bool(cfg.forcings), cfg.horizon))
        return real(cfg, **kwargs)

    def no_linear_reading(*args, **kwargs):
        raise AssertionError("a linear reading with the evidence in hand")

    monkeypatch.setattr(lab, "simulate", recording)
    for name in ("linear_trace", "point_criteria", "kernel_bound", "horizon_witness",
                 "evaluate_criteria"):
        monkeypatch.setattr(lab, name, no_linear_reading)
    assert classify_point(run, ladder, evidence) == alone
    assert alone.classification == "BlowUp"
    assert runs == [(True, 200.0)]


def test_gaussian_sweep_runs_only_base_grid_traces(monkeypatch):
    # The kernel bound stands in for the final rung's trace of Gaussian data:
    # serial or pooled, the only linear run is point_criteria's on the base grid.
    import concurrent.futures

    linear, rungs = [], []
    real = lab.simulate

    def counting(cfg, **kwargs):
        runs = rungs if cfg.forcings else linear
        runs.append((float(cfg.u0.values.max()), cfg.grid.nodes, cfg.horizon))
        return real(cfg, **kwargs)

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(lab, "simulate", counting)
    spec = _shared_trace_sweep(InitialProfile("gaussian", 1.0, 1.0))
    points = run_sweep(spec, 1)
    assert linear == [(1.0, 121, 40.0)]
    assert [pt.classification for pt in points] == ["Undetermined"] * 2 + ["GlobalLike"] * 4
    # the bound rules out blow-up on both rungs of every cell: no source run
    assert rungs == []
    assert all(pt.reason.endswith(" < 1 (kernel bound)") for pt in points)
    linear.clear()
    assert run_sweep(spec, 2) == points
    assert linear == [(1.0, 121, 40.0)]


@st.composite
def line_runs(draw):
    """A line run with diffusion: any data kind, u^p with h = t^r, and a horizon."""
    kind = draw(st.sampled_from(["gaussian", "constant", "power_tail"]))
    amplitude = 10.0 ** draw(st.floats(-2.0, 0.5))
    run = base_run(
        weight=axis_weight(draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))),
        grid=line_grid(draw(st.floats(2.0, 40.0)), 2 * draw(st.integers(2, 100)) + 1),
        forcings=(ForcingTerm(TimeProfile.power(draw(st.sampled_from([0.0, 0.5]))),
                              Nonlinearity.power(draw(st.floats(1.5, 5.0)))),),
        profile=InitialProfile(kind, amplitude, draw(st.floats(0.5, 5.0)),
                               draw(st.floats(0.25, 2.0))),
        diffusionless=False, tol=draw(st.sampled_from([1e-2, 1e-3])))
    return run, draw(st.floats(0.5, 20.0))


def _outcome(march):
    try:
        return march()
    except NumericError as exc:
        return str(exc)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(line_runs())
def test_half_line_march_is_the_line_march(case):
    # The line's solution is even, so simulate marches it on x >= 0, the radial
    # N = 1 operator on (M + 1) / 2 nodes.  Handed the line operator itself,
    # _imex_steps gives the same status, t* and final sup, up to roundoff.
    run, horizon = case
    config = run.config(horizon)
    half = _outcome(lambda: simulate(config))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "fold", lambda op, values: (op, values))
        line = _outcome(lambda: simulate(config))
    if isinstance(line, str):
        assert half == line
        return
    assert half.final is None or half.final.grid == run.grid
    assert (half.status, half.step_count) == (line.status, line.step_count)
    if line.blew_up:
        assert half.t_star == pytest.approx(line.t_star, rel=1e-9)
    else:
        assert half.final.sup() == pytest.approx(line.final.sup(), rel=1e-10)


def test_line_marches_run_on_their_half(monkeypatch):
    # Every march of a line cell reaches lab.simulate on the line its config
    # names, with no mass sums; simulate folds it onto its half.  The CSV is
    # the line marches' own.
    seen = []
    real = lab.simulate

    def recording(cfg, **kwargs):
        seen.append((cfg.grid.geometry, cfg.grid.nodes, cfg.grid.dim, cfg.weight,
                     bool(cfg.forcings), kwargs))
        return real(cfg, **kwargs)

    monkeypatch.setattr(lab, "simulate", recording)
    run = base_run(weight=axis_weight(0.5), grid=line_grid(2.0, 3),
                   profile=InitialProfile("power_tail", 1.0, rho=1.0), diffusionless=False,
                   tol=1e-2)
    spec = SweepSpec(run, (("amplitude", [0.1, 1.0, 10.0]),),
                     (EscalationLevel(1.0), EscalationLevel(5.0, line_grid(2.0, 9))))
    assert points_to_csv(run_sweep(spec, 1)) == (
        "axis1,axis2,classification,t_star,horizon,index_I,certificate_tau\n"
        "0.1,,Undetermined,,5,inf,\n"
        "1,,BlowUp,2.180109214,5,inf,\n"
        "10,,BlowUp,0.1060961151,1,inf,0.1535\n")
    line = (Geometry.LINE, 3, 1, axis_weight(0.5))
    fine = (Geometry.LINE, 9, 1, axis_weight(0.5))
    no_mass = {"masses": False}
    # the unit linear runs on both grids, then the source rungs each cell leaves open
    assert seen == [(*line, False, no_mass), (*fine, False, no_mass),
                    (*fine, True, no_mass), (*line, True, no_mass)]


class TestSweepSvg:
    def test_heat_map_with_boundary(self):
        run = base_run()
        spec = SweepSpec(run, (("p", [2.0, 2.5, 3.5, 4.0]),),
                         default_escalation((5.0,)))
        points = run_sweep(spec, 1)
        svg = sweep_svg(spec, points)
        assert svg.startswith("<svg")
        assert "#c0392b" in svg  # at least one BlowUp cell
        # p* = 3 lies inside the axis range: dashed analytic boundary drawn
        assert "stroke-dasharray" in svg

    def test_no_boundary_outside_range(self):
        run = base_run()
        spec = SweepSpec(run, (("amplitude", [1.0, 2.0]),),
                         default_escalation((5.0,)))
        svg = sweep_svg(spec, run_sweep(spec, 1))
        assert "stroke-dasharray" not in svg

    def test_empty_p_axis(self):
        spec = SweepSpec(base_run(), (("p", []), ("amplitude", [1.0, 2.0])),
                         default_escalation((5.0,)))
        svg = sweep_svg(spec, run_sweep(spec, 1))
        assert svg.startswith("<svg")
        assert "stroke-dasharray" not in svg
