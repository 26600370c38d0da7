"""Tests for the semilinear integrator: profiles, nonlinearities, simulate,
monotone iteration, and the comparison principle."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat import dynamics
from degenheat.cli import parse_profile
from degenheat.dynamics import (ForcingTerm, IterateReport, Nonlinearity,
                                SimConfig, TimeProfile, compare_runs,
                                default_mesh, monotone_iterates, simulate)
from degenheat.errors import ConfigError, NumericError
from degenheat.grids import Field, InitialProfile
from degenheat.semigroup import DiffusionOperator, apply_semigroup, build_operator

from conftest import (axis_weight, constant_field, gaussian_field, line_grid, radial_grid,
                      radial_weight)


def power_forcing(p: float, r: float = 0.0) -> ForcingTerm:
    return ForcingTerm(TimeProfile.power(r), Nonlinearity.power(p))


class TestTimeProfile:
    def test_values_and_primitives(self):
        assert TimeProfile.power(0.0).primitive(3.0) == 3.0
        assert TimeProfile.power(1.0).primitive(2.0) == 2.0
        assert TimeProfile.power(-0.5).primitive(4.0) == pytest.approx(4.0)
        assert TimeProfile.constant(2.5).primitive(2.0) == pytest.approx(5.0)
        assert TimeProfile.zero().primitive(9.0) == 0.0
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

    @pytest.mark.parametrize("profile,horizon", [
        (TimeProfile.power(1.0), 1e160),        # t ** 2 raises OverflowError
        (TimeProfile(1.0, 1e300), 1e10),        # the product rounds to inf
    ])
    def test_source_integral_must_be_finite(self, profile, horizon):
        g = line_grid(10.0, 21)
        term = ForcingTerm(profile, Nonlinearity.power(2.0))
        with pytest.raises(ConfigError) as err:
            SimConfig(axis_weight(0.0), g, [term], gaussian_field(g, 1e-3), horizon)
        assert str(profile) in str(err.value) and f"horizon {horizon}" in str(err.value)
        # a zero profile adds no source at any horizon
        silent = ForcingTerm(TimeProfile.zero(), Nonlinearity.power(2.0))
        SimConfig(axis_weight(0.0), g, [silent], gaussian_field(g, 1e-3), horizon)

    def test_rejects_data_on_another_grid(self):
        # same node count, other extent: the values would broadcast silently
        g = line_grid(10.0, 101)
        with pytest.raises(ConfigError, match="grid"):
            SimConfig(axis_weight(0.0), g, [], gaussian_field(line_grid(20.0, 101)), 1.0)
        with pytest.raises(ConfigError, match="grid"):
            SimConfig(axis_weight(0.0), g, [], gaussian_field(line_grid(10.0, 51)), 1.0)


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

    def test_json_without_masses(self):
        # a march that summed no mass writes its history without "mass"
        g = line_grid(5.0, 41)
        cfg = SimConfig(axis_weight(0.0), g, [], gaussian_field(g, 0.5), 0.5)
        full, lean = simulate(cfg), simulate(cfg, masses=False)
        assert lean.mass_history is None
        history = json.loads(lean.to_json())["history"]
        assert history == [{"t": e["t"], "sup": e["sup"]}
                           for e in json.loads(full.to_json())["history"]]

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
    op = build_operator(g, cfg.weight)
    for t, _, uv, _ in dynamics._imex_steps(cfg, op, block.copy()):
        assert np.array_equal(uv[dirichlet], block[dirichlet])
    assert t == cfg.horizon


def test_largest_finite_horizon_blows_up():
    # t u^2 integrates to t^2 / 2, finite at horizon 1e150: p = 2 < p* = 5 blows up
    g = line_grid(10.0, 21)
    cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0, 1.0)],
                    gaussian_field(g, 1e-3), 1e150)
    res = simulate(cfg)
    assert res.status == "blown_up"
    assert res.t_star == pytest.approx(3.3128e22, rel=1e-4)
    assert res.step_count == 8498


def reference_march(config, op, u, counts=None):
    """The IMEX march before its lean rewrite, kept as the bit-for-bit reference.

    Each trial makes the whole-grid exact update and rescans the accepted
    state for its scale.  Yields (t, floored, u); ``op`` is the operator
    marched, None for a diffusionless run, and ``counts`` tallies rejected
    and floored steps.
    """
    counts = {} if counts is None else counts
    rows = None if op is None else op.free
    horizon = config.horizon
    rc_hi = min(0.1, math.sqrt(config.tol))
    t = 0.0
    dt = horizon * 1e-4
    while t < horizon * (1.0 - 1e-14):
        dt = min(dt, horizon - t)
        floored = dt <= max(dynamics._DT_FLOOR, 8.0 * math.ulp(t))
        u_new = exact_update(config.forcings, u, t, t + dt)
        err = math.inf
        if op is None:
            finite = np.isfinite(u_new).all()
        else:
            u_new[:rows.start] = u[:rows.start]
            u_new[rows.stop:] = u[rows.stop:]
            try:
                u_new = op.solve_shifted(dt, u_new)
                finite = True
            except ValueError:
                finite = False
        if finite:
            scale = np.maximum(np.max(np.abs(u), axis=0), dynamics._TINY)
            err = float(np.max(np.max(np.abs(u_new - u), axis=0) / scale))
        if err > rc_hi and not floored:
            counts["rejected"] = counts.get("rejected", 0) + 1
            dt /= 2.0
            continue
        counts["floored"] = counts.get("floored", 0) + floored
        t += dt
        u = u_new
        yield t, floored, u
        if err < rc_hi / 10.0:
            dt *= 2.0


def with_sups(march):
    """A march of (t, floored, u) as the lean march yields it, sups added."""
    def steps(config, op, u):
        for t, floored, v in march(config, op, u):
            yield t, floored, v, np.max(np.abs(v), axis=0)
    return steps


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_same_march(config, u, max_steps=300):
    """The lean march against the reference, step by step and bit for bit."""
    counts = {}
    op = None if config.diffusionless else build_operator(config.grid, config.weight)
    lean = dynamics._imex_steps(config, op, u.copy())
    ref = reference_march(config, op, u.copy(), counts)
    steps = 0
    for (t, floored, v, sup), (t_ref, floored_ref, v_ref) in zip(lean, ref):
        assert (t, floored) == (t_ref, floored_ref)
        assert np.array_equal(bits(v), bits(v_ref))
        assert np.array_equal(bits(sup), bits(np.max(np.abs(v_ref), axis=0)))
        steps += 1
        if steps == max_steps or not np.isfinite(sup).all():
            return counts
    # both ended at the horizon together
    assert next(lean, None) is None and next(ref, None) is None
    return counts


def assert_same_runs(monkeypatch, config):
    """simulate and compare_runs on the lean march and on the reference."""
    below = Field(config.grid, 0.5 * config.u0.values)
    lean, lean_pair = simulate(config), compare_runs(config, below, config.u0)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_imex_steps", with_sups(reference_march))
        ref, ref_pair = simulate(config), compare_runs(config, below, config.u0)
    assert lean_pair == ref_pair
    for name in ("times", "sup_history", "mass_history", "window_mass_history"):
        assert np.array_equal(bits(getattr(lean, name)), bits(getattr(ref, name))), name
    assert (lean.status, lean.t_star, lean.step_count) == (ref.status, ref.t_star, ref.step_count)
    assert (lean.final is None) == (ref.final is None)
    if ref.final is not None:
        assert np.array_equal(bits(lean.final.values), bits(ref.final.values))


@st.composite
def march_configs(draw):
    """A small line or radial run with zero to two sources and signed-zero data."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        grid, weight = line_grid(rng.uniform(2.0, 40.0), 2 * draw(st.integers(2, 60)) + 1), \
            axis_weight(alpha)
    else:
        dim = draw(st.integers(1, 3))
        grid, weight = radial_grid(rng.uniform(2.0, 40.0), draw(st.integers(3, 80)), dim), \
            radial_weight(alpha, dim)
    forcings = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["power", "log_power"]))
        profile = TimeProfile(draw(st.sampled_from([-0.5, 0.0, 1.0])),
                              draw(st.sampled_from([0.0, 0.1, 1.0])))
        forcings.append(ForcingTerm(profile, Nonlinearity(
            kind, draw(st.sampled_from([1.5, 2.0, 3.0, 3.5])))))
    u0 = InitialProfile("gaussian", 10.0 ** rng.uniform(-3.0, 1.2),
                        rng.uniform(0.5, 5.0)).realize(grid).values
    u0[rng.random(u0.size) < 0.3] = -0.0
    config = SimConfig(weight, grid, forcings, Field(grid, u0), 10.0 ** rng.uniform(-1.0, 1.5),
                       blowup_threshold=1e8, tol=draw(st.sampled_from([1e-3, 1e-2])),
                       diffusionless=draw(st.integers(0, 4)) == 0)
    return config, draw(st.booleans())


@settings(deadline=None, derandomize=True, max_examples=100)
@given(march_configs())
def test_lean_march_is_the_reference_march(config):
    config, block = config
    u = config.u0.values
    with np.errstate(over="ignore", invalid="ignore"):
        if block:
            # an ordered pair, as compare_runs runs it
            assert_same_march(config, np.column_stack([0.5 * u, u]))
        else:
            assert_same_march(config, u)


@pytest.mark.parametrize("case", ["ode", "overflow", "profile"])
def test_lean_march_rejects_and_floors_as_the_reference(monkeypatch, case):
    if case == "ode":
        # u' = u^2 from 1/200: the step halves down to the floor near t = 200
        g = line_grid(1.0, 5)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0)],
                        constant_field(g, 1.0 / 200.0), 2000.0,
                        blowup_threshold=1e300, diffusionless=True)
    elif case == "overflow":
        # u^3 overflows at the floor before the threshold
        g = line_grid(10.0, 101)
        cfg = SimConfig(axis_weight(0.0), g, [power_forcing(3.0)],
                        gaussian_field(g, 5.0), 10.0, blowup_threshold=1e300)
    else:
        # t^-1/2 u^2 on a degenerate weight, marched on past the threshold
        g = line_grid(20.0, 201)
        cfg = SimConfig(axis_weight(0.5), g, [power_forcing(2.0, -0.5)],
                        gaussian_field(g, 0.5), 5.0, tol=1e-2)
    u = cfg.u0.values
    with np.errstate(over="ignore", invalid="ignore"):
        counts = assert_same_march(cfg, u, max_steps=20_000)
        assert counts["rejected"] > 0 and counts["floored"] > 0
        assert_same_march(cfg, np.column_stack([0.5 * u, u]), max_steps=20_000)
        assert_same_runs(monkeypatch, cfg)


_MASS_RUN = """
import hashlib
from degenheat.dynamics import ForcingTerm, Nonlinearity, SimConfig, TimeProfile, simulate
from degenheat.grids import Geometry, GridSpec, InitialProfile
from degenheat.weight import WeightCase, WeightSpec
g = GridSpec(Geometry.LINE, 5000.0, 20001)
u0 = InitialProfile("gaussian", 1e-3, 5.0).realize(g)
res = simulate(SimConfig(WeightSpec(WeightCase.AXIS_POWER, 0.5, 1), g,
                         [ForcingTerm(TimeProfile.power(0.0), Nonlinearity.power(3.5))],
                         u0, 1e5, tol=1e-2))
for a in (res.mass_history, res.window_mass_history, res.sup_history):
    print(hashlib.sha256(a.tobytes()).hexdigest())
print(res.final.mass().hex())
"""


def test_mass_does_not_depend_on_blas_threads():
    # The alpha = 0.5 top rung of criterion 6 at p = 3.5: a threaded BLAS dot
    # over its 20001 nodes rounds the mass differently on 1 and 2 threads.
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out.append(subprocess.run([sys.executable, "-c", _MASS_RUN], env=env, check=True,
                                  capture_output=True, text=True).stdout)
    assert out[0].count("\n") == 4
    assert out[0] == out[1]


@pytest.mark.parametrize("even", [True, False])
def test_even_runs_solve_on_the_half_line(solve_sizes, even):
    # simulate, compare_runs and monotone_iterates fold exactly even line data
    # once at entry: every solve has (M + 1) / 2 rows.  Uneven data solve all M.
    g = line_grid(20.0, 201)
    v0 = gaussian_field(g, 0.5)
    if not even:
        v0 = Field(g, v0.values * np.linspace(0.5, 1.5, g.nodes))
    cfg = SimConfig(axis_weight(0.5), g, [power_forcing(2.0)], v0, 2.0)
    res = simulate(cfg)
    compare_runs(cfg, Field(g, 0.5 * v0.values), v0)
    monotone_iterates(cfg, v0, beta=1.0, k_max=2)
    assert solve_sizes and set(solve_sizes) == {101 if even else 201}
    # the histories and the final state are the line's
    assert res.status == "completed" and res.final.grid == g
    assert res.mass_history[0] == pytest.approx(v0.mass(), rel=1e-14)
    assert np.array_equal(res.final.values, res.final.values[::-1]) == even


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

    def test_rejects_data_on_another_grid(self):
        g = line_grid(5.0, 41)
        other = line_grid(10.0, 41)
        cfg = SimConfig(axis_weight(0.0), g, [], gaussian_field(g), 1.0)
        for u0, v0 in ((gaussian_field(other, 0.5), gaussian_field(g)),
                       (gaussian_field(g, 0.5), gaussian_field(other))):
            with pytest.raises(ConfigError, match="grid"):
                compare_runs(cfg, u0, v0)


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
        # NaN passes a "<= 0" test, and a NaN or infinite mesh point a "diff <= 0"
        # one; an empty or 2-D mesh has no first point to test
        for beta in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="beta"):
                monotone_iterates(cfg, gaussian_field(cfg.grid), beta=beta, k_max=2)
        for mesh in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [math.nan, 1.0], [],
                     [[0.0, 1.0]]):
            with pytest.raises(ConfigError, match="mesh"):
                monotone_iterates(cfg, gaussian_field(cfg.grid), beta=1.0, k_max=2,
                                  mesh=np.array(mesh))
        # a non-finite delta, or a delta * v0 past the float range
        for delta in (math.nan, math.inf, -math.inf, 1e308):
            with pytest.raises(ConfigError, match="delta"):
                monotone_iterates(cfg, gaussian_field(cfg.grid, 10.0), beta=1.0, k_max=2,
                                  delta=delta)
        with pytest.raises(ConfigError, match="delta"):
            monotone_iterates(cfg, constant_field(cfg.grid, 0.0), beta=1.0, k_max=2,
                              delta=math.inf)

    def test_rejects_data_on_another_grid(self):
        cfg = self._config()
        other = line_grid(20.0, cfg.grid.nodes)
        with pytest.raises(ConfigError, match="grid"):
            monotone_iterates(cfg, gaussian_field(other), beta=1.0, k_max=2)

    def test_default_mesh_shape(self):
        mesh = default_mesh(10.0, points=12)
        assert mesh[0] == 0.0
        assert mesh[-1] == pytest.approx(10.0)
        assert np.all(np.diff(mesh) > 0.0)


def reference_monotone_iterates(config, v0, beta, k_max, delta, mesh):
    """The Picard iteration before its array rewrite, kept as the bit-for-bit
    reference: each iterate a list of Fields, each check a loop over the mesh."""
    mesh = np.asarray(mesh, dtype=float)
    op = build_operator(config.grid, config.weight)
    rows = op.free
    u0 = Field(config.grid, delta * v0.values)
    npts = mesh.size

    lin = [u0.copy()]
    for j in range(1, npts):
        lin.append(apply_semigroup(op, lin[-1], mesh[j] - mesh[j - 1],
                                   n_steps=dynamics._PANEL_STEPS))

    scale = max(f.sup() for f in lin)
    slack = 1e-10 * max(scale, dynamics._TINY)
    prev = [f.copy() for f in lin]
    gaps = []
    violations = []
    monotone_ok = True
    cap_ok = True

    for k in range(1, k_max + 1):
        cur = [u0.copy()]
        overflowed = False
        for j in range(1, npts):
            dt_panel = mesh[j] - mesh[j - 1]
            with np.errstate(over="ignore"):
                src = dynamics._source_increment(config.forcings, prev[j - 1].values,
                                                 mesh[j - 1], mesh[j])
            src[:rows.start] = 0.0
            src[rows.stop:] = 0.0
            carried_values = cur[-1].values + src
            if not np.all(np.isfinite(carried_values)):
                cap_ok = False
                violations.append(("nonfinite", k, float(mesh[j]), math.inf))
                overflowed = True
                break
            carried = Field(config.grid, carried_values)
            cur.append(apply_semigroup(op, carried, dt_panel, n_steps=dynamics._PANEL_STEPS))
        if overflowed:
            break

        gap = max(float(np.max(np.abs(c.values - p.values)))
                  for c, p in zip(cur, prev))
        gaps.append(gap)
        for j in range(npts):
            drop = float(np.min(cur[j].values - prev[j].values))
            if drop < -slack:
                monotone_ok = False
                violations.append(("monotone", k, float(mesh[j]), drop))
            over = float(np.max(cur[j].values - (1.0 + beta) * lin[j].values))
            if over > slack:
                cap_ok = False
                violations.append(("cap", k, float(mesh[j]), over))
        prev = cur

    return IterateReport(mesh, gaps, monotone_ok, cap_ok, violations, delta, beta)


def hex_report(report):
    """An IterateReport's every number as float.hex, in order."""
    return (bits(report.mesh).tobytes(), [g.hex() for g in report.gaps],
            [(kind, k, t.hex(), v.hex()) for kind, k, t, v in report.violations],
            report.monotone_ok, report.cap_ok, report.delta.hex(), report.beta.hex())


def _falling(u):
    return np.exp(-u)


@st.composite
def picard_configs(draw):
    """A small line or radial Picard run, zero to two sources, delta on either
    side of 1/(1+beta), and data up to a size whose iterates overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        grid, weight = line_grid(rng.uniform(5.0, 40.0), 2 * draw(st.integers(5, 60)) + 1), \
            axis_weight(alpha)
    else:
        dim = draw(st.integers(1, 3))
        grid, weight = radial_grid(rng.uniform(5.0, 40.0), draw(st.integers(5, 100)), dim), \
            radial_weight(alpha, dim)
    forcings = []
    for _ in range(draw(st.sampled_from([2, 1, 0]))):
        profile = TimeProfile(draw(st.sampled_from([-0.5, 0.0, 1.0])),
                              draw(st.sampled_from([1.0, 0.1, 0.0])))
        kind = draw(st.sampled_from(["power", "log_power", "falling"]))
        # a decreasing source lies outside the theory; it makes the drops
        # that a nondecreasing one never does, interleaved with the overshoots
        nonlinearity = _falling if kind == "falling" else Nonlinearity(
            kind, draw(st.sampled_from([4.0, 3.0, 2.0, 1.5])))
        forcings.append(ForcingTerm(profile, nonlinearity))
    amplitude = draw(st.sampled_from([1e5, 3.0, 1e40, 0.5, 0.01, 1e100])) * rng.uniform(0.5, 2.0)
    v0 = InitialProfile("gaussian", amplitude, rng.uniform(0.5, 5.0)).realize(grid)
    horizon = 10.0 ** rng.uniform(-1.0, 1.5)
    config = SimConfig(weight, grid, forcings, v0, horizon, blowup_threshold=math.inf)
    beta = draw(st.sampled_from([0.25, 1.0, 3.0]))
    delta = draw(st.sampled_from([0.2, 0.9, 1.5, 4.0])) / (1.0 + beta)
    if draw(st.booleans()):
        mesh = default_mesh(horizon, int(rng.integers(2, 13)))
    else:
        mesh = np.concatenate(([0.0], np.sort(rng.uniform(0.0, horizon,
                                                          rng.integers(1, 11)))))
        mesh = mesh[np.concatenate(([True], np.diff(mesh) > 0))]
    return config, v0, beta, int(rng.integers(1, 7)), delta, mesh


@settings(deadline=None, derandomize=True, max_examples=150)
@given(picard_configs())
def test_array_iterates_are_the_reference_iterates(case):
    config, v0, beta, k_max, delta, mesh = case
    ref = reference_monotone_iterates(config, v0, beta, k_max, delta, mesh)
    report = monotone_iterates(config, v0, beta, k_max, delta=delta, mesh=mesh)
    assert hex_report(report) == hex_report(ref)


def _quartic():
    return ForcingTerm(TimeProfile.constant(1.0), Nonlinearity.power(4.0))


def _iterate_case(name):
    """(config, v0, beta, k_max, delta, mesh) of a named Picard run; the
    default is ``TestMonotoneIterates``' small-data run."""
    grid, weight, horizon = line_grid(40.0, 801), axis_weight(0.0), 20.0
    forcings = [ForcingTerm(TimeProfile.constant(1.0), Nonlinearity.power(4.0))]
    data = InitialProfile("gaussian")
    beta, k_max, delta, mesh = 1.0, 5, 0.5, None
    if name == "zero_forcing":
        grid, forcings, horizon = line_grid(20.0, 401), [], 10.0
        beta, k_max, delta = 0.5, 3, None
    elif name == "criterion_7":
        grid, horizon, k_max = line_grid(80.0, 1601), 50.0, 6
    elif name == "singular_log":
        grid, weight = line_grid(20.0, 401), axis_weight(0.5)
        forcings = [power_forcing(2.0, -0.5),
                    ForcingTerm(TimeProfile.constant(1.0), Nonlinearity.log_power(2.0))]
    elif name == "power_tail":
        data = InitialProfile("power_tail", 0.3, rho=1.5)
    elif name == "radial_3":
        grid, weight = radial_grid(20.0, 201, 3), radial_weight(0.5, 3)
    elif name == "falsification":
        beta, k_max, delta = 0.25, 8, 2.5
    elif name == "first_sweep_overflow":
        # (delta v0)^4 overflows in the first panel, before any cap check
        data, delta = InitialProfile("gaussian", 1e100), 1.0
    elif name == "custom_mesh":
        mesh = np.array([0.0, 0.5, 1.5, 4.0, 20.0])
    v0 = data.realize(grid)
    config = SimConfig(weight, grid, forcings, v0, horizon, blowup_threshold=math.inf)
    return config, v0, beta, k_max, delta, mesh


@pytest.mark.parametrize("name", [
    "small_data", "zero_forcing", "criterion_7", "singular_log", "power_tail",
    "radial_3", "falsification", "first_sweep_overflow", "custom_mesh"])
def test_named_iterates_are_the_reference_iterates(name):
    config, v0, beta, k_max, delta, mesh = _iterate_case(name)
    report = monotone_iterates(config, v0, beta, k_max, delta=delta, mesh=mesh)
    ref = reference_monotone_iterates(
        config, v0, beta, k_max, 0.9 / (1.0 + beta) if delta is None else delta,
        default_mesh(config.horizon) if mesh is None else mesh)
    assert hex_report(report) == hex_report(ref)
    if name == "first_sweep_overflow":
        assert [v[0] for v in report.violations] == ["nonfinite"] and not report.cap_ok


def plain_picard_gaps(config, u0, k_max, mesh):
    """Gaps of the Picard iteration without diffusion, node by node:
    u^k(t_j) = u^k(t_{j-1}) + sum_i [H_i(t_j) - H_i(t_{j-1})] f_i(u^{k-1}(t_{j-1}))."""
    prev = [u0] * len(mesh)
    gaps = []
    for _ in range(k_max):
        cur = [u0]
        for t0, t1 in zip(mesh, mesh[1:]):
            du = np.zeros_like(u0)
            for term in config.forcings:
                du += (term.profile.primitive(t1) - term.profile.primitive(t0)) \
                    * term.nonlinearity(prev[len(cur) - 1])
            cur.append(cur[-1] + du)
        gaps.append(max(float(np.abs(c - p).max()) for c, p in zip(cur, prev)))
        prev = cur
    return gaps


def test_diffusionless_iterates_are_the_plain_picard_recursion():
    # no diffusion: identity panels, and the source acts on every row, the
    # Dirichlet rows of the line included, as in the diffusionless IMEX march
    g = line_grid(10.0, 5)
    v0 = constant_field(g, 0.5)
    cfg = SimConfig(axis_weight(0.0), g, [power_forcing(2.0)], v0, 1.0, diffusionless=True)
    report = monotone_iterates(cfg, v0, beta=1.0, k_max=3, delta=0.4)
    # the first iterate adds H(1) f(0.2) = 0.04 to the constant linear flow
    assert report.gaps[0] == pytest.approx(0.04, rel=1e-14)
    assert report.gaps == plain_picard_gaps(cfg, 0.4 * v0.values, 3, default_mesh(1.0))
    assert report.monotone_ok and report.cap_ok and not report.violations


def test_iterates_factor_once_per_panel(monkeypatch):
    # all iterates are solved as one block per panel: one factorisation per
    # panel, where a sweep per iterate refactors every panel's shift
    config, v0, beta, k_max, delta, mesh = _iterate_case("criterion_7")
    shifts = []
    factor = DiffusionOperator._factor

    def counted(self, c):
        shifts.append(c)
        return factor(self, c)

    monkeypatch.setattr(DiffusionOperator, "_factor", counted)
    monotone_iterates(config, v0, beta, k_max, delta=delta)
    assert len(shifts) == len(set(shifts)) == default_mesh(config.horizon).size - 1 == 24
