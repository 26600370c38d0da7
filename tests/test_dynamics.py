"""Tests for the semilinear integrator: profiles, nonlinearities, simulate,
monotone iteration, and the comparison principle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat import dynamics
from degenheat.cli import parse_profile
from degenheat.dynamics import (ForcingTerm, Nonlinearity, SimConfig,
                                TimeProfile, compare_runs, default_mesh,
                                monotone_iterates, simulate)
from degenheat.errors import ConfigError, NumericError
from degenheat.grids import Field, InitialProfile, constant_field, gaussian_field
from degenheat.semigroup import apply_semigroup, build_operator

from conftest import axis_weight, line_grid


def power_forcing(p: float, r: float = 0.0) -> ForcingTerm:
    return ForcingTerm(TimeProfile.power(r), Nonlinearity.power(p))


class TestTimeProfile:
    def test_values_and_primitives(self):
        assert TimeProfile.power(0.0).primitive(3.0) == 3.0
        assert TimeProfile.power(1.0).primitive(2.0) == 2.0
        assert TimeProfile.power(-0.5).primitive(4.0) == pytest.approx(4.0)
        assert TimeProfile.constant(2.5).primitive(2.0) == pytest.approx(5.0)
        assert TimeProfile.zero().primitive(9.0) == 0.0
        assert TimeProfile.power(2.0)(3.0) == 9.0
        assert TimeProfile.power(0.0)(0.0) == 1.0
        assert TimeProfile(1.0, 0.5).primitive(2.0) == 1.0
        assert TimeProfile.power(0.0) == TimeProfile.constant(1.0)

    def test_is_zero(self):
        assert TimeProfile.zero().is_zero
        assert TimeProfile.constant(0.0).is_zero
        assert not TimeProfile.power(0.0).is_zero

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeProfile.power(-1.0)
        with pytest.raises(ConfigError):
            TimeProfile.constant(-2.0)
        # NaN passes a "<= -1" or "< 0" test
        for exponent, value in ((math.nan, 1.0), (math.inf, 1.0),
                                (0.0, math.nan), (0.0, math.inf)):
            with pytest.raises(ConfigError):
                TimeProfile(exponent, value)
        with pytest.raises(ConfigError):
            parse_profile({"kind": "sinusoid"})
        with pytest.raises(ConfigError):
            TimeProfile.power(0.5).primitive(-1.0)


class TestNonlinearity:
    def test_values(self):
        f = Nonlinearity.power(2.0)
        g = Nonlinearity.log_power(2.0)
        assert f(0.0) == 0.0 and g(0.0) == 0.0
        assert f(3.0) == 9.0
        assert g(math.e - 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_convex_nondecreasing(self):
        s = np.linspace(0.0, 5.0, 101)
        for nl in (Nonlinearity.power(2.5), Nonlinearity.log_power(1.7)):
            vals = nl(s)
            assert np.all(np.diff(vals) >= 0.0)
            assert np.all(np.diff(np.diff(vals)) >= -1e-12)
            slopes = nl.slope(s)
            assert slopes[0] == 0.0
            assert np.all(np.diff(slopes) >= -1e-12)  # f(s)/s nondecreasing

    def test_clips_roundoff_negative(self):
        f = Nonlinearity.power(2.2)
        assert np.isfinite(f(np.array([-1e-15, 0.5]))).all()

    def test_validation(self):
        with pytest.raises(ConfigError):
            Nonlinearity.power(1.0)
        with pytest.raises(ConfigError):
            Nonlinearity("exp", 2.0)
        for exponent in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                Nonlinearity.power(exponent)
            with pytest.raises(ConfigError):
                Nonlinearity.log_power(exponent)


def exact_update(forcings, u, t0, t1):
    return u + dynamics._source_increment(forcings, u, t0, t1)


@st.composite
def source_steps(draw):
    """(forcings, u, t0, t1): one to three terms, a state of (M,) or (M, 2)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t0 = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e4]))
    t1 = t0 + 10.0 ** rng.uniform(-10.0, 2.0)
    forcings = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.sampled_from([-0.5, 0.0, 1.5]))
        kind = draw(st.sampled_from(["power", "log_power"]))
        p = draw(st.sampled_from([1.01, 1.05, 1.5, 2.2, 4.0]))
        if draw(st.integers(0, 4)) == 0:
            forcings.append(ForcingTerm(TimeProfile.zero(), Nonlinearity(kind, p)))
            continue
        unit = TimeProfile.power(r).primitive(t1) - TimeProfile.power(r).primitive(t0)
        value = 10.0 ** rng.uniform(-40.0, 6.0) / unit
        forcings.append(ForcingTerm(TimeProfile(r, value), Nonlinearity(kind, p)))
    # the band where one term's increment is near half an ulp of u:
    # w u^(p-1) in [2^-60, 2^-50]
    band = []
    for term in forcings:
        w = term.profile.primitive(t1) - term.profile.primitive(t0)
        if w > 0.0:
            e = 1.0 / (term.nonlinearity.exponent - 1.0)
            with np.errstate(over="ignore"):
                band.append((2.0 ** rng.uniform(-60.0, -50.0, 200) / w) ** e)
    n = rng.integers(1, 40, 5)
    values = np.concatenate([
        np.zeros(n[0]), -np.zeros(n[0]),
        rng.integers(1, 2 ** 52, n[1]) * math.ulp(0.0),          # subnormal
        10.0 ** rng.uniform(-300.0, -140.0, n[2]),               # Gaussian tail
        -(10.0 ** rng.uniform(-18.0, -14.0, n[3])),              # roundoff
        rng.uniform(0.01, 3.0, n[4]),                            # bulk
        10.0 ** rng.uniform(-40.0, 0.0, 100), *band,
    ])
    values = values[np.isfinite(values) & (values < 1e3)]
    # a bell: the bulk in the middle rows, tails at both ends
    ranked = np.sort(values)
    u = np.concatenate([ranked[::2], ranked[1::2][::-1]])
    if draw(st.booleans()):
        u = np.column_stack([u, np.roll(u, rng.integers(0, u.size))])
    return forcings, u, t0, t1


@settings(deadline=None, derandomize=True, max_examples=150)
@given(source_steps())
def test_explicit_update_is_exact(step):
    forcings, u, t0, t1 = step
    with np.errstate(over="ignore", under="ignore"):
        exact = exact_update(forcings, u, t0, t1)
        fast = dynamics._explicit_update(forcings, u, t0, t1)
    assert fast.shape == exact.shape
    assert np.array_equal(fast, exact)
    assert np.array_equal(fast.view(np.int64), exact.view(np.int64))


@pytest.mark.parametrize("p, weight", [(1.01, 1e-30), (1.01, 2e-27), (1.05, 1e-40)])
def test_explicit_update_tiny_weight(p, weight):
    # 2^-56 / w >= 1: the root that would bound theta overflows a float power
    u = np.concatenate([np.full(5, 1e-25), np.linspace(0.0, 2.0, 7)])
    forcings = [ForcingTerm(TimeProfile.constant(weight), Nonlinearity.power(p))]
    fast = dynamics._explicit_update(forcings, u, 0.0, 1.0)
    assert np.array_equal(fast.view(np.int64), exact_update(forcings, u, 0.0, 1.0).view(np.int64))


def test_explicit_update_skips_tail():
    # one step of the criterion-6 alpha=0.5 top rung's start: a 1e-3 Gaussian
    g = line_grid(5000.0, 20001)
    u = InitialProfile("gaussian", 1e-3, 5.0).realize(g).values
    live = [(0.5, Nonlinearity.power(2.2))]
    rows = dynamics._source_rows(live, u)
    assert 0 < rows.stop - rows.start < 200


class TestSimConfigValidation:
    def test_threshold_floor(self):
        g = line_grid(5.0, 11)
        with pytest.raises(ConfigError):
            SimConfig(axis_weight(0.0), g, [], constant_field(g, 1.0), 1.0,
                      blowup_threshold=100.0)
        with pytest.raises(ConfigError):
            SimConfig(axis_weight(0.0), g, [], constant_field(g, 1.0), -1.0)
        with pytest.raises(ConfigError):
            SimConfig(axis_weight(0.0), g, [], constant_field(g, 1.0), 1.0, tol=0.0)
        # NaN passes a "<= 0" test; zero data skips the 1e3 * sup(u0) floor
        for data in (1.0, 0.0):
            with pytest.raises(ConfigError):
                SimConfig(axis_weight(0.0), g, [], constant_field(g, data), 1.0,
                          tol=math.nan)
            with pytest.raises(ConfigError):
                SimConfig(axis_weight(0.0), g, [], constant_field(g, data), 1.0,
                          blowup_threshold=math.nan)
        for horizon in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                SimConfig(axis_weight(0.0), g, [], constant_field(g, 1.0), horizon)


class TestSimulate:
    def test_zero_data_stays_zero(self):
        g = line_grid(5.0, 41)
        cfg = SimConfig(axis_weight(0.5), g, [power_forcing(2.0)],
                        constant_field(g, 0.0), 2.0)
        res = simulate(cfg)
        assert res.status == "completed"
        assert np.all(res.sup_history == 0.0)

    def test_linear_reduction(self):
        g = line_grid(15.0, 301)
        w = axis_weight(0.0)
        u0 = gaussian_field(g)
        cfg = SimConfig(w, g, [], u0, 1.0, tol=1e-4)
        res = simulate(cfg)
        ref = apply_semigroup(build_operator(g, w), u0, 1.0, tol=1e-7)
        assert res.status == "completed"
        assert np.max(np.abs(res.final.values - ref.values)) <= 1e-3 * ref.sup()

    def test_ode_oracle_quadratic(self):
        g = line_grid(1.0, 5)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0)],
                        constant_field(g, 1.0), 3.0, tol=1e-4, diffusionless=True)
        res = simulate(cfg)
        assert res.blew_up
        assert res.t_star == pytest.approx(1.0, abs=0.02)

    def test_ode_oracle_cubic(self):
        g = line_grid(1.0, 5)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(3.0)],
                        constant_field(g, 1.0), 3.0, tol=1e-4, diffusionless=True)
        res = simulate(cfg)
        assert res.blew_up
        assert res.t_star == pytest.approx(0.5, abs=0.01)

    def test_nonnegativity(self):
        g = line_grid(20.0, 401)
        cfg = SimConfig(axis_weight(0.5), g, [power_forcing(2.0)],
                        gaussian_field(g, 0.1), 5.0)
        res = simulate(cfg)
        assert res.status == "completed"
        assert np.min(res.final.values) >= -1e-12 * res.final.sup()

    def test_forcing_monotonicity_single_step(self):
        # one shared IMEX step: adding a nonnegative term never decreases the state
        g = line_grid(10.0, 201)
        w = axis_weight(0.0)
        op = build_operator(g, w)
        u = gaussian_field(g, 0.5).values
        dt = 0.01
        bare = op.solve_shifted(dt, u)
        term = power_forcing(2.0)
        forced = op.solve_shifted(
            dt, u + dt * term.nonlinearity(u))
        assert np.all(forced >= bare - 1e-14)

    def test_json_serialization(self):
        g = line_grid(5.0, 41)
        cfg = SimConfig(axis_weight(0.0), g, [], gaussian_field(g, 0.5), 0.5)
        res = simulate(cfg)
        payload = json.loads(res.to_json())
        assert payload["status"] == "completed"
        assert payload["horizon"] == 0.5
        assert {"t", "sup", "mass"} <= set(payload["history"][0])
        assert "t_star" not in payload

    @pytest.mark.parametrize("t_star", [2e2, 2e4, 2e6])
    def test_clock_moves_at_large_t(self, monkeypatch, t_star):
        # u' = u^2 blows up at 1/u0; past t ~ 1e3 an absolute 1e-12 floor is
        # below ulp(t), where a step at the floor would not advance the clock
        monkeypatch.setattr(dynamics, "_STEP_CAP", 20_000)
        g = line_grid(1.0, 5)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0)],
                        constant_field(g, 1.0 / t_star), 10.0 * t_star,
                        blowup_threshold=1e300, diffusionless=True)
        res = simulate(cfg)
        assert res.blew_up
        assert res.t_star == pytest.approx(t_star, rel=0.02)
        assert np.all(np.diff(res.times) > 0.0)

    @pytest.mark.parametrize("forcings", [
        [ForcingTerm(TimeProfile.constant(0.5), Nonlinearity.log_power(2.5)),
         power_forcing(2.2, r=-0.5)],
        [power_forcing(1.05)],
    ], ids=["log_power+power", "p1.05"])
    def test_histories_match_exact_update(self, monkeypatch, forcings):
        # tail-heavy start: most nodes of the 1e-3 Gaussian are below 1e-150
        g = line_grid(400.0, 1601)
        cfg = SimConfig(axis_weight(0.5), g, forcings,
                        InitialProfile("gaussian", 1e-3, 5.0).realize(g), 200.0,
                        tol=1e-2)
        below = Field(g, 0.5 * cfg.u0.values)
        fast = simulate(cfg)
        fast_pair = compare_runs(cfg, below, cfg.u0)
        monkeypatch.setattr(dynamics, "_explicit_update", exact_update)
        exact = simulate(cfg)
        assert compare_runs(cfg, below, cfg.u0) == fast_pair
        for name in ("times", "sup_history", "mass_history", "window_mass_history"):
            assert np.array_equal(getattr(fast, name), getattr(exact, name)), name
        assert fast.status == exact.status
        if exact.final is not None:
            assert np.array_equal(fast.final.values, exact.final.values)

    @pytest.mark.parametrize("forcing, horizon", [
        (ForcingTerm(TimeProfile(0.0, 1e-20), Nonlinearity.power(1.01)), 200.0),
        (power_forcing(1.05, r=9.0), 1.0),
    ], ids=["p1.01", "r9-p1.05"])
    def test_tiny_data_small_weights(self, monkeypatch, forcing, horizon):
        # 1e-25 data: the first steps have 2^-56 / w > 1
        g = line_grid(20.0, 201)
        cfg = SimConfig(axis_weight(0.5), g, [forcing], constant_field(g, 1e-25), horizon)
        fast = simulate(cfg)
        monkeypatch.setattr(dynamics, "_explicit_update", exact_update)
        exact = simulate(cfg)
        assert fast.status == exact.status
        assert np.array_equal(fast.sup_history, exact.sup_history)


def test_dirichlet_rows_keep_the_data():
    # Power-tail data leave 0.1 / 101 on the Dirichlet rows.  Were the source
    # to act there, u' = u^4 alone would blow them up at 1 / (3 u_b^3) ~ 3.5e8.
    g = line_grid(100.0, 401)
    u0 = InitialProfile("power_tail", 0.1, rho=1.0).realize(g)
    cfg = SimConfig(axis_weight(0.0), g, [power_forcing(4.0)], u0, 1e9)
    dirichlet = [0, -1]
    res = simulate(cfg)
    assert res.status == "completed"
    assert np.array_equal(res.final.values[dirichlet], u0.values[dirichlet])
    # the state decays to the boundary value
    assert res.sup_history[-1] == pytest.approx(u0.values[-1], rel=1e-4)
    block = np.column_stack([0.5 * u0.values, u0.values])
    t = 0.0
    for t, _, uv in dynamics._imex_steps(cfg, block.copy()):
        assert np.array_equal(uv[dirichlet], block[dirichlet])
    assert t == cfg.horizon


class TestCompareRuns:
    def test_equal_data_zero_defect(self):
        g = line_grid(10.0, 201)
        v0 = gaussian_field(g, 0.5)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0)], v0, 1.0)
        report = compare_runs(cfg, v0.copy(), v0.copy())
        assert report.max_defect == 0.0

    def test_scaled_data(self):
        g = line_grid(15.0, 301)
        v0 = gaussian_field(g, 0.5)
        u0 = Field(g, 0.5 * v0.values)
        cfg = SimConfig(axis_weight(0.3), g, [power_forcing(2.0)], v0, 2.0)
        report = compare_runs(cfg, u0, v0)
        assert report.max_defect <= 1e-10 * report.scale

    def test_compact_support_below_gaussian(self):
        g = line_grid(15.0, 301)
        v0 = gaussian_field(g, 1.0, 2.0)
        bump = np.where(g.radii() <= 1.0, 0.3, 0.0)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0)], v0, 1.0)
        report = compare_runs(cfg, Field(g, bump), v0)
        assert report.max_defect <= 1e-10 * report.scale

    def test_overflow_stops_at_last_finite_state(self):
        # u^2 overflows before sup v reaches the threshold: the run ends at
        # the last finite step instead of raising
        g = line_grid(15.0, 301)
        v0 = gaussian_field(g, 3.0)
        source = ForcingTerm(TimeProfile.constant(1.0), Nonlinearity.power(2.0))
        cfg = SimConfig(axis_weight(0.0), g, [source], v0, 5.0, blowup_threshold=1e300)
        report = compare_runs(cfg, Field(g, 0.5 * v0.values), v0)
        assert 0.0 < report.t_end < cfg.horizon
        assert 1e150 < report.scale < 1e300
        assert report.max_defect == 0.0

    def test_step_cap_raises(self, monkeypatch):
        # both callers share the march's step cap and fail loudly at it
        monkeypatch.setattr(dynamics, "_STEP_CAP", 5)
        g = line_grid(10.0, 201)
        v0 = gaussian_field(g, 0.5)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0)], v0, 1.0)
        with pytest.raises(NumericError):
            compare_runs(cfg, Field(g, 0.5 * v0.values), v0)
        with pytest.raises(NumericError):
            simulate(cfg)

    def test_requires_ordering(self):
        g = line_grid(5.0, 41)
        v0 = gaussian_field(g, 0.5)
        big = gaussian_field(g, 1.0)
        cfg = SimConfig(axis_weight(0.0), g, [], v0, 1.0)
        with pytest.raises(ConfigError):
            compare_runs(cfg, big, v0)


class TestMonotoneIterates:
    def _config(self):
        g = line_grid(40.0, 801)
        term = ForcingTerm(TimeProfile.constant(1.0), Nonlinearity.power(4.0))
        return SimConfig(axis_weight(0.0), g, [term], gaussian_field(g), 20.0)

    def test_zero_forcing_iterates_fixed(self):
        g = line_grid(20.0, 401)
        cfg = SimConfig(axis_weight(0.0), g, [], gaussian_field(g), 10.0)
        report = monotone_iterates(cfg, gaussian_field(g), beta=0.5, k_max=3)
        assert report.gaps == [0.0, 0.0, 0.0]
        assert report.monotone_ok and report.cap_ok

    def test_small_data_contraction(self):
        cfg = self._config()
        report = monotone_iterates(cfg, gaussian_field(cfg.grid), beta=1.0,
                                   k_max=5, delta=0.5)
        assert report.monotone_ok and report.cap_ok
        ratios = [b / a for a, b in zip(report.gaps, report.gaps[1:])]
        assert all(r < 0.5 for r in ratios)

    def test_large_delta_falsification(self):
        cfg = self._config()
        report = monotone_iterates(cfg, gaussian_field(cfg.grid), beta=0.25,
                                   k_max=8, delta=2.5)
        assert not report.cap_ok
        assert any(v[0] == "cap" for v in report.violations)

    def test_validation(self):
        cfg = self._config()
        with pytest.raises(ConfigError):
            monotone_iterates(cfg, gaussian_field(cfg.grid), beta=0.0, k_max=3)
        with pytest.raises(ConfigError):
            monotone_iterates(cfg, gaussian_field(cfg.grid), beta=1.0, k_max=0)
        with pytest.raises(ConfigError):
            monotone_iterates(cfg, gaussian_field(cfg.grid), beta=1.0, k_max=2,
                              mesh=np.array([0.1, 0.2]))

    def test_default_mesh_shape(self):
        mesh = default_mesh(10.0, points=12)
        assert mesh[0] == 0.0
        assert mesh[-1] == pytest.approx(10.0)
        assert np.all(np.diff(mesh) > 0.0)
