"""Tests for the analytic criteria: Osgood tails, certificates, smallness
index, critical exponents, and decay fitting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from degenheat.criteria import (DecayEnvelope, blowup_certificate,
                                critical_mass_growth, decay_fit, evaluate,
                                fujita_exponents, gaussian_kernel_bound,
                                growth_exponent, horizon_witness, osgood_tail,
                                second_critical_exponent, smallness_index)
from degenheat.dynamics import ForcingTerm, Nonlinearity, SimConfig, TimeProfile, simulate
from degenheat.errors import ConfigError
from degenheat.semigroup import apply_semigroup, build_operator, kernel_column

from conftest import axis_weight, gaussian_field, line_grid, radial_grid, radial_weight


def power_term(p: float, r: float = 0.0) -> ForcingTerm:
    return ForcingTerm(TimeProfile.power(r), Nonlinearity.power(p))


def log_term(q: float, s: float = 0.0) -> ForcingTerm:
    return ForcingTerm(TimeProfile.power(s), Nonlinearity.log_power(q))


class TestOsgoodTail:
    def test_reference_values(self):
        assert osgood_tail(Nonlinearity.power(2.0), 1.0) == pytest.approx(1.0)
        assert osgood_tail(Nonlinearity.log_power(2.0), math.e - 1.0) == pytest.approx(1.0)
        assert osgood_tail(Nonlinearity.power(3.0), 2.0) == pytest.approx(0.125)

    def test_strictly_decreasing(self):
        zs = np.geomspace(1e-2, 1e2, 30)
        for nl in (Nonlinearity.power(2.0), Nonlinearity.log_power(1.5)):
            tails = [osgood_tail(nl, z) for z in zs]
            assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_matches_quadrature(self):
        for nl in (Nonlinearity.power(2.5), Nonlinearity.power(1.5)):
            for z in (0.5, 3.0, 40.0):
                val, _ = quad(lambda s: 1.0 / nl(s), z, np.inf,
                              epsabs=0, epsrel=1e-12, limit=400)
                assert osgood_tail(nl, z) == pytest.approx(val, rel=1e-10)
        # log family: substitute u = ln(1+s) so quad sees a plain power tail
        for q in (1.5, 2.0):
            nl = Nonlinearity.log_power(q)
            for z in (0.5, 3.0, 40.0):
                val, _ = quad(lambda u: u ** -q, math.log1p(z), np.inf,
                              epsabs=0, epsrel=1e-12, limit=400)
                assert osgood_tail(nl, z) == pytest.approx(val, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            osgood_tail(Nonlinearity.power(2.0), 0.0)

    def test_overflow_is_divergent(self):
        # 1e-80 ** -4 = 1e320 is past the float range: a Python float used to
        # raise OverflowError and a numpy scalar to warn
        for z in (1e-80, np.float64(1e-80), 5e-324):
            for nl in (Nonlinearity.power(5.0), Nonlinearity.log_power(5.0)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert osgood_tail(nl, z) == math.inf
        # just inside the range the closed form still holds
        assert osgood_tail(Nonlinearity.power(5.0), 1e-77) == pytest.approx(0.25e308)


class TestForcingPrimitive:
    def test_values(self):
        # the certificate compares Osgood tails with this primitive of h
        assert TimeProfile.power(0.0).primitive(3.0) == 3.0
        assert TimeProfile.power(1.0).primitive(2.0) == 2.0
        assert TimeProfile.power(-0.5).primitive(4.0) == pytest.approx(4.0)

    def test_overflow_is_infinite(self):
        # (1e160)^2 / 2 is past the float range, for a Python float and a numpy scalar
        for t in (1e160, np.float64(1e160)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert TimeProfile.power(1.0).primitive(t) == math.inf
                assert TimeProfile(1.0, 0.0).primitive(t) == 0.0


class TestBlowupCertificate:
    def test_equality_case(self):
        # constant trace 1, Power(2), h == 1: tail = 1 = primitive at tau = 1
        times = np.linspace(0.0, 3.0, 301)
        trace = (times, np.ones_like(times))
        tau = blowup_certificate(trace, [power_term(2.0)])
        assert tau == pytest.approx(1.0, abs=0.011)

    def test_zero_forcing_none(self):
        times = np.linspace(0.0, 3.0, 31)
        trace = (times, np.ones_like(times))
        assert blowup_certificate(trace, [ForcingTerm(TimeProfile.zero(),
                                                      Nonlinearity.power(2.0))]) is None

    def test_monotone_in_data(self):
        times = np.linspace(0.0, 5.0, 501)
        small = (times, 0.5 * np.ones_like(times))
        large = (times, 2.0 * np.ones_like(times))
        tau_small = blowup_certificate(small, [power_term(2.0)])
        tau_large = blowup_certificate(large, [power_term(2.0)])
        assert tau_large <= tau_small

    def test_empty_trace(self):
        with pytest.raises(ConfigError):
            blowup_certificate((np.array([]), np.array([])), [power_term(2.0)])


class TestDecayFit:
    def test_exact_power_trace(self):
        times = np.geomspace(1.0, 100.0, 40)
        sups = 3.0 * times ** -0.5
        env = decay_fit((times, sups), (1.0, 100.0))
        assert env.theta == pytest.approx(0.5, abs=1e-12)
        assert env.constant == pytest.approx(3.0, rel=1e-10)
        assert env.residual <= 1e-12

    def test_window_too_short(self):
        times = np.geomspace(1.0, 3.0, 20)
        with pytest.raises(ConfigError):
            decay_fit((times, times ** -0.5), (1.0, 3.0))

    def test_window_through_t0(self):
        # a simulate trace starts at t = 0: the window leaves it out, quietly
        g = line_grid(40.0, 161)
        run = simulate(SimConfig(axis_weight(0.0), g, [], gaussian_field(g), 16.0))
        times, sups = run.trace()
        assert times[0] == 0.0
        inside = times > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = decay_fit((times, sups), (0.0, 16.0))
            assert env == decay_fit((times[inside], sups[inside]), (0.0, 16.0))
            assert critical_mass_growth(times, run.mass_history, (0.0, 16.0)) == \
                critical_mass_growth(times[inside], run.mass_history[inside], (0.0, 16.0))
            # t = 0 does not count toward the points a fit needs
            with pytest.raises(ConfigError):
                decay_fit(([0.0, 1.0, 20.0], [1.0, 0.5, 0.1]), (0.0, 20.0))
            with pytest.raises(ConfigError):
                critical_mass_growth([0.0, 1.0, 2.0, 3.0], [1.0] * 4, (0.0, 3.0))


class TestSmallnessIndex:
    def _trace(self, amp=1.0):
        times = np.geomspace(1e-3, 100.0, 400)
        times = np.concatenate(([0.0], times))
        sups = amp / np.sqrt(1.0 + 2.0 * times)
        return times, sups

    def test_zero_forcings(self):
        times, sups = self._trace()
        env = DecayEnvelope(0.5, 1.0, (10.0, 100.0), 0.0)
        assert smallness_index((times, sups), env, [], 100.0) == 0.0

    def test_amplitude_scaling(self):
        # Power(p) terms scale the index by lambda^{p-1} exactly
        p, lam = 4.0, 0.37
        env1 = DecayEnvelope(0.5, 1.0 / math.sqrt(2.0), (10.0, 100.0), 0.0)
        env2 = DecayEnvelope(0.5, lam / math.sqrt(2.0), (10.0, 100.0), 0.0)
        t1, s1 = self._trace(1.0)
        t2, s2 = self._trace(lam)
        i1 = smallness_index((t1, s1), env1, [power_term(p)], 100.0)
        i2 = smallness_index((t2, s2), env2, [power_term(p)], 100.0)
        assert i2 / i1 == pytest.approx(lam ** (p - 1.0), rel=1e-10)

    def test_divergent_tail(self):
        # theta = 1/2, Power(2), r = 0: tail exponent -1/2 >= -1 diverges
        times, sups = self._trace()
        env = DecayEnvelope(0.5, 1.0, (10.0, 100.0), 0.0)
        assert smallness_index((times, sups), env, [power_term(2.0)], 100.0) == math.inf

    def test_envelope_past_the_float_range(self):
        # C^(p - 1) = 1e1000 is past the float range: the index diverges
        times, sups = self._trace(0.1)
        env = DecayEnvelope(2.0, 1e200, (10.0, 100.0), 0.0)
        assert smallness_index((times, sups), env, [power_term(6.0)], 100.0) == math.inf

    def test_log_term_finite(self):
        times, sups = self._trace(0.1)
        env = DecayEnvelope(0.5, 0.1, (10.0, 100.0), 0.0)
        idx = smallness_index((times, sups), env, [log_term(4.0)], 100.0)
        assert math.isfinite(idx) and idx > 0.0


class TestGlobalWitness:
    def test_growth_exponent(self):
        assert growth_exponent([power_term(4.0)]) == 4.0
        assert growth_exponent([log_term(2.5)]) == 3.5
        assert growth_exponent([power_term(3.0), log_term(2.5)]) == 3.5
        # a zero term is not live
        zero = ForcingTerm(TimeProfile.zero(), Nonlinearity.power(9.0))
        assert growth_exponent([power_term(3.0), zero]) == 3.0
        assert growth_exponent([zero]) == 1.0

    def test_index_below_one_is_not_enough(self):
        # u^4 with I in (1/3, 1): the index is below 1, the witness (p - 1) I is not
        times = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 300)))
        sups = 0.85 / np.sqrt(1.0 + 2.0 * times)
        report = evaluate((times, sups), [power_term(4.0)], axis_weight(0.0))
        assert 1.0 / 3.0 < report.smallness_index < 1.0
        assert report.witness == pytest.approx(3.0 * report.smallness_index, rel=1e-15)
        assert report.verdict == "undetermined"


@st.composite
def witness_runs(draw):
    """A small line or radial run with one or two live sources, Gaussian data."""
    alpha = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        grid, weight = line_grid(40.0, 401), axis_weight(alpha)
    else:
        dim = draw(st.integers(1, 3))
        grid, weight = radial_grid(20.0, 201, dim), radial_weight(alpha, dim)
    forcings = [ForcingTerm(TimeProfile.power(draw(st.sampled_from([-0.5, 0.0, 1.0]))),
                            Nonlinearity(draw(st.sampled_from(["power", "log_power"])),
                                         draw(st.sampled_from([2.0, 3.0, 4.0, 6.0]))))
                for _ in range(draw(st.integers(1, 2)))]
    u0 = gaussian_field(grid, draw(st.sampled_from([1e-3, 0.05, 0.3, 0.7, 1.0])), 1.0)
    return weight, grid, forcings, u0


@settings(deadline=None, derandomize=True, max_examples=20)
@given(witness_runs())
def test_witness_bounds_the_solution(run):
    """A fired witness: the run completes, with sup u <= psi_inf * sup u0."""
    weight, grid, forcings, u0 = run
    horizon = 10.0
    linear = SimConfig(weight, grid, [], u0, horizon, blowup_threshold=math.inf, tol=1e-4)
    witness = evaluate(simulate(linear).trace(), forcings, weight).witness
    if witness is None or not witness < 1.0:
        return
    res = simulate(SimConfig(weight, grid, forcings, u0, horizon, tol=1e-4))
    assert res.status == "completed"
    m = growth_exponent(forcings)
    psi_inf = (1.0 - witness) ** (-1.0 / (m - 1.0))
    assert res.sup_history.max() <= psi_inf * u0.sup() * (1.0 + 1e-3)


class TestHorizonWitness:
    def test_left_endpoint_sum(self):
        # u^3 on a falling trace: (p - 1) sum_j [min(t_(j+1), T) - t_j] s_j^2
        times = np.array([0.0, 1.0, 2.0, 4.0])
        sups = np.array([0.4, 0.3, 0.2, 0.1])
        terms = [power_term(3.0)]
        assert horizon_witness((times, sups), terms, 3.0) == \
            pytest.approx(2.0 * (0.16 + 0.09 + 0.04), rel=1e-15)
        assert horizon_witness((times, sups), terms, 4.0) == \
            pytest.approx(2.0 * (0.16 + 0.09 + 2.0 * 0.04), rel=1e-15)
        # a horizon past the trace's end has no witness
        assert horizon_witness((times, sups), terms, 5.0) is None
        # a zero term adds nothing; a primitive past the float range diverges
        zero = ForcingTerm(TimeProfile.zero(), Nonlinearity.power(9.0))
        assert horizon_witness((times, sups), [zero], 4.0) == 0.0
        huge = ForcingTerm(TimeProfile.power(600.0), Nonlinearity.power(2.0))
        assert horizon_witness((times * 1e3, sups), [huge], 4e3) == math.inf

    def test_left_endpoints_bound_the_trapezoids(self):
        # on a falling trace the left endpoints sit above the index's trapezoids,
        # and the witness grows with its horizon
        times = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 300)))
        sups = 0.3 / np.sqrt(1.0 + 2.0 * times)
        slopes = sups ** 3
        trapezoids = 3.0 * np.sum(np.diff(times) * 0.5 * (slopes[:-1] + slopes[1:]))
        witnesses = [horizon_witness((times, sups), [power_term(4.0)], t)
                     for t in (1.0, 10.0, 100.0, 200.0)]
        assert witnesses[-1] > trapezoids
        assert witnesses == sorted(witnesses)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(witness_runs())
def test_horizon_witness_bounds_the_solution(run):
    """A fired horizon witness: the run completes to the horizon, with
    sup u <= psi(T) * sup u0."""
    weight, grid, forcings, u0 = run
    horizon = 10.0
    linear = SimConfig(weight, grid, [], u0, horizon, blowup_threshold=math.inf, tol=1e-4)
    witness = horizon_witness(simulate(linear).trace(), forcings, horizon)
    if witness is None or not witness < 1.0:
        return
    res = simulate(SimConfig(weight, grid, forcings, u0, horizon, tol=1e-4))
    assert res.status == "completed"
    m = growth_exponent(forcings)
    psi = (1.0 - witness) ** (-1.0 / (m - 1.0))
    assert res.sup_history.max() <= psi * u0.sup() * (1.0 + 1e-3)


class TestKernelBound:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 5.0])
    def test_dominates_the_data_with_least_constant(self, alpha, dim, sigma):
        # u0 <= A Gamma(., t0) at every node, and the closed-form t0 minimises A
        # = a t^(N/beta) exp(max_x g(x, t)) over a log scan of t around it
        beta, amp = 2.0 - alpha, 0.7
        bound = gaussian_kernel_bound(alpha, dim, amp, sigma)
        assert bound.theta == dim / beta and bound.cap == amp
        grid = radial_grid(8.0 * sigma, 1601, dim)
        r = grid.positions()
        u0 = gaussian_field(grid, amp, sigma).values
        kernel = bound.t0 ** -bound.theta * np.exp(-r ** beta / (beta ** 2 * bound.t0))
        assert np.all(u0 <= bound.constant * kernel * (1.0 + 1e-12))

        x = np.linspace(0.0, 50.0 * sigma, 20001)
        scan = bound.t0 * np.exp(np.linspace(-1.4, 1.4, 81))
        log_a = [math.log(amp) + bound.theta * math.log(t)
                 + float(np.max(x ** beta / (beta ** 2 * t) - x ** 2 / (2.0 * sigma ** 2)))
                 for t in scan]
        assert int(np.argmin(log_a)) == 40
        assert log_a[40] == pytest.approx(math.log(bound.constant), abs=1e-5)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [1.0, 5.0])
    def test_bounds_the_semigroup(self, alpha, sigma):
        # criterion 15's setting: 2001 nodes on extent 100, Krylov tol 1e-10,
        # where its relative errors are 5.6e-5, 2.1e-4 and 7.9e-4; at alpha = 0
        # the bound is exact
        grid = line_grid(100.0, 2001)
        op = build_operator(grid, axis_weight(alpha))
        u0 = gaussian_field(grid, 1.0, sigma)
        bound = gaussian_kernel_bound(alpha, 1, 1.0, sigma)
        for t in (1.0, 10.0, 100.0):
            sup = apply_semigroup(op, u0, t, tol=1e-10).sup()
            cap = min(1.0, bound.constant * (t + bound.t0) ** -bound.theta)
            assert sup <= cap * (1.0 + 1e-3)
            if alpha == 0.0:
                assert sup >= cap * (1.0 - 1e-3)

    def test_trace_spans_the_horizon(self):
        bound = gaussian_kernel_bound(0.5, 1, 1e-3, 5.0)
        times, sups = bound.trace(1e5)
        assert times[0] == 0.0 and times[-1] == 1e5
        assert np.all(np.diff(times) > 0.0) and np.all(np.diff(sups) <= 0.0)
        assert sups[0] == 1e-3
        # 64 samples per decade of t + t0
        assert len(times) == math.ceil(64 * math.log10(1.0 + 1e5 / bound.t0)) + 1

    def test_trace_when_t0_dwarfs_the_horizon(self):
        # sigma = 1e10 at alpha = 0: t0 = 5e19, where t + t0 - t0 would lose t
        bound = gaussian_kernel_bound(0.0, 1, 1.0, 1e10)
        times, sups = bound.trace(10.0)
        assert times[0] == 0.0 and times[-1] == 10.0 and np.all(np.diff(times) > 0.0)
        assert np.allclose(sups, 1.0, rtol=1e-15, atol=0.0)

    def test_exact_witness_at_alpha_zero(self):
        # alpha = 0, u^4, sigma = 5: t0 = 12.5 and the witness is 3 A^3 / (2 t0^(1/2))
        # = 75 a^3 for the exact bound; the left-endpoint sum over 64 samples
        # per decade overstates it by at most 10^(1.5 / 64)
        bound = gaussian_kernel_bound(0.0, 1, 1e-3, 5.0)
        assert (bound.t0, bound.theta) == (12.5, 0.5)
        assert bound.constant == pytest.approx(1e-3 * math.sqrt(12.5), rel=1e-15)
        witness = bound.witness([power_term(4.0)], 1e5)
        assert 75e-9 < witness < 75e-9 * 10.0 ** (1.5 / 64)
        # at or below p* = 3 the tail diverges
        assert bound.witness([power_term(3.0)], 1e5) == math.inf


# The discrete linear sup exceeds the kernel bound by at most 0.29% over these
# examples (alpha = 0, radial N = 3, 201 nodes, tol 1e-4), and never at
# alpha = 0.5
_KERNEL_EXCESS = 3e-3


@settings(deadline=None, derandomize=True, max_examples=20)
@given(witness_runs())
def test_kernel_horizon_witness_bounds_the_solution(run):
    """A fired kernel horizon witness: the run completes to the horizon, with
    sup u <= psi(T) * a * (1 + delta)."""
    weight, grid, forcings, u0 = run
    horizon, amp = 10.0, u0.sup()
    bound = gaussian_kernel_bound(weight.alpha, weight.dim, amp, 1.0)
    witness = horizon_witness(bound.trace(horizon), forcings, horizon)
    if not witness < 1.0:
        return
    res = simulate(SimConfig(weight, grid, forcings, u0, horizon, tol=1e-4))
    assert res.status == "completed"
    psi = (1.0 - witness) ** (-1.0 / (growth_exponent(forcings) - 1.0))
    assert res.sup_history.max() <= psi * amp * (1.0 + _KERNEL_EXCESS)


class TestCriticalExponents:
    def test_fujita_reference_values(self):
        assert fujita_exponents(0.0, 1, 0.0, 0.0) == (3.0, 3.0)
        p_star, _ = fujita_exponents(0.5, 3, 0.0, 0.0)
        assert p_star == pytest.approx(1.0 + 1.5 / 3.0)
        _, q_star = fujita_exponents(0.5, 1, 0.0, 1.0)
        assert q_star == pytest.approx(4.0)

    def test_monotonicity(self):
        alphas = np.linspace(0.0, 0.9, 10)
        ps = [fujita_exponents(a, 1, 0.0, 0.0)[0] for a in alphas]
        assert all(x > y for x, y in zip(ps, ps[1:]))
        rs = np.linspace(-0.5, 2.0, 10)
        ps = [fujita_exponents(0.3, 1, r, 0.0)[0] for r in rs]
        assert all(x < y for x, y in zip(ps, ps[1:]))

    def test_second_critical(self):
        assert second_critical_exponent(0.0, 1, 5.0, 100.0, 0.0, 0.0) == \
            pytest.approx(0.5)
        # q-term dominant case: (2 - alpha)(s + 1)/(q - 1)
        assert second_critical_exponent(0.5, 1, 100.0, 5.0, 0.0, 1.0) == \
            pytest.approx(1.5 * 2.0 / 4.0)
        assert second_critical_exponent(0.3, 1, 5.0, 4.0, 0.5, 0.0) == 0.6375
        # rho* = 2/(p-1) at alpha = 0
        for p in (4.0, 6.0):
            assert second_critical_exponent(0.0, 1, p, 50.0, 0.0, 0.0) == \
                pytest.approx(2.0 / (p - 1.0))

    def test_second_critical_needs_supercritical(self):
        with pytest.raises(ConfigError):
            second_critical_exponent(0.0, 1, 2.0, 50.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            fujita_exponents(2.5, 1, 0.0, 0.0)
        with pytest.raises(ConfigError):
            fujita_exponents(0.0, 0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            fujita_exponents(0.0, 1, -1.5, 0.0)


class TestCriticalMassGrowth:
    def test_exact_log_growth(self):
        times = np.geomspace(1.0, 100.0, 50)
        mass = 2.0 + 0.7 * np.log(times)
        slope, resid = critical_mass_growth(times, mass, (1.0, 100.0))
        assert slope == pytest.approx(0.7, rel=1e-10)
        assert resid <= 1e-10

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            critical_mass_growth([1.0, 2.0], [1.0, 2.0], (1.0, 2.0))


class TestEvaluate:
    def test_global_by_smallness(self):
        times = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 300)))
        sups = 0.05 / np.sqrt(1.0 + 2.0 * times)
        report = evaluate((times, sups), [power_term(4.0)], axis_weight(0.0))
        assert report.verdict == "global_by_smallness"
        assert report.smallness_index < 1.0
        assert report.p_star == pytest.approx(3.0)
        assert report.rho_star == pytest.approx(2.0 / 3.0)

    def test_blowup_certified(self):
        times = np.linspace(0.0, 3.0, 400)
        sups = np.ones_like(times)
        report = evaluate((times, sups), [power_term(2.0)], axis_weight(0.0))
        assert report.verdict == "blowup_certified"
        assert report.certificate_tau == pytest.approx(1.0, abs=0.01)

    def test_undetermined_with_divergent_index(self):
        times = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 300)))
        sups = 1e-4 / np.sqrt(1.0 + 2.0 * times)
        report = evaluate((times, sups), [power_term(2.0)], axis_weight(0.0))
        assert report.verdict == "undetermined"
        assert report.smallness_index == math.inf
        assert any("diverges" in n for n in report.notes)

    @pytest.mark.parametrize("forcings, alpha, rho_star", [
        ([log_term(4.0, 0.5)], 0.3, 0.85),                    # q family only
        # both supercritical: second_critical_exponent(0.3, 1, 5, 4, 0.5, 0)
        ([power_term(5.0, 0.5), log_term(4.0)], 0.3, 0.6375),
        ([power_term(5.0), log_term(2.0)], 0.0, None),        # q <= q* = 3
        ([power_term(2.0), log_term(5.0)], 0.0, None),        # p <= p* = 3
    ])
    def test_rho_star(self, forcings, alpha, rho_star):
        times = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 300)))
        sups = 0.05 / np.sqrt(1.0 + 2.0 * times)
        report = evaluate((times, sups), forcings, axis_weight(alpha))
        assert report.rho_star == rho_star



_OP = build_operator(line_grid(5.0, 51), axis_weight(0.5))
_NAN_INF = (math.nan, math.inf)


@pytest.mark.parametrize("call, values", [
    pytest.param(lambda x: osgood_tail(Nonlinearity.power(2.0), x), _NAN_INF,
                 id="osgood_tail"),
    pytest.param(lambda x: fujita_exponents(0.5, x, 0.0, 0.0), _NAN_INF, id="fujita_dim"),
    pytest.param(lambda x: fujita_exponents(0.5, 1, x, 0.0), _NAN_INF, id="fujita_r"),
    pytest.param(lambda x: fujita_exponents(0.5, 1, 0.0, x), _NAN_INF, id="fujita_s"),
    pytest.param(lambda x: kernel_column(_OP, 25, x), _NAN_INF, id="kernel_column"),
])
def test_rejects_nan_and_infinite_arguments(call, values):
    # "not" tests: NaN fails every comparison, so a "<= 0" test lets it through
    for bad in values:
        with pytest.raises(ConfigError):
            call(bad)
