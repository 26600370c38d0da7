"""Analytic decision machinery: Osgood tails, smallness index, the global
witness, certificates, critical exponents, the exact kernel's bound of
Gaussian data, and decay-envelope fitting.

Everything here consumes sup-norm traces of the *linear* flow, or the kernel
bound's closed form, plus the forcing data; nothing re-runs the PDE.  Closed
forms are used wherever the built-in nonlinearities admit them, with
quadrature reserved for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .dynamics import ForcingTerm, Nonlinearity
from .weight import WeightSpec


@dataclass
class DecayEnvelope:
    """Fitted large-time envelope ||S(t)u0||_inf ~ C t^(-theta)."""

    theta: float
    constant: float
    window: tuple
    residual: float


@dataclass
class CriteriaReport:
    smallness_index: float | None
    witness: float | None      # (m - 1) * smallness_index; global when < 1
    certificate_tau: float | None
    osgood_tails: dict
    p_star: float | None
    q_star: float | None
    rho_star: float | None
    verdict: str               # "global_by_smallness" | "blowup_certified" | "undetermined"
    envelope: DecayEnvelope | None = None
    notes: list = field(default_factory=list)


def osgood_tail(nl: Nonlinearity, z: float) -> float:
    """Closed-form tail integral int_z^inf d(sigma)/f(sigma).

    A tail beyond the float range, as small data with a large exponent give,
    is ``math.inf``: divergent.
    """
    if not 0.0 < z < math.inf:
        raise ConfigError(f"osgood tail needs finite z > 0, got {z}")
    e = nl.exponent
    # a Python float, so that an overflow raises for a numpy scalar too
    base = float(z) if nl.kind == "power" else math.log1p(z)
    try:
        return base ** (1.0 - e) / (e - 1.0)
    except OverflowError:
        return math.inf


def blowup_certificate(sup_trace, forcings) -> float | None:
    """Smallest trace time at which some single term satisfies the Osgood test.

    The test fires at tau when tail(f_i, ||S(tau)u0||) <= int_0^tau h_i; one
    firing term certifies non-global existence.
    """
    times, sups = _as_trace(sup_trace)
    if times.size == 0:
        raise ConfigError("empty sup trace")
    for tau, s in zip(times, sups):
        if tau <= 0.0 or s <= 0.0:
            continue
        for term in forcings:
            if term.profile.is_zero:
                continue
            if osgood_tail(term.nonlinearity, s) <= term.profile.primitive(tau):
                return float(tau)
    return None


def _as_trace(sup_trace):
    t, s = sup_trace
    return np.asarray(t, dtype=float), np.asarray(s, dtype=float)


def decay_fit(sup_trace, window) -> DecayEnvelope:
    """Least-squares power-law fit of the sup trace over a time window.

    The window must span at least one decade so the slope is meaningful;
    t = 0, where every trace starts, has no logarithm and is left out.
    """
    times, sups = _as_trace(sup_trace)
    lo, hi = window
    mask = (times >= lo) & (times <= hi) & (times > 0) & (sups > 0)
    if mask.sum() < 3 or times[mask].max() < 9.5 * times[mask].min():
        raise ConfigError(f"fit window {window} does not span a usable decade of the trace")
    lt = np.log(times[mask])
    ls = np.log(sups[mask])
    slope, intercept = np.polyfit(lt, ls, 1)
    resid = float(np.sqrt(np.mean((ls - (slope * lt + intercept)) ** 2)))
    return DecayEnvelope(theta=-float(slope), constant=float(math.exp(intercept)),
                         window=(float(lo), float(hi)), residual=resid)


def _tail_exponents(term: ForcingTerm, theta: float):
    """Power exponents of the integrand envelope past T_num, largest first."""
    r, scale = term.profile.exponent, term.profile.value
    e = term.nonlinearity.exponent
    if term.nonlinearity.kind == "power":
        return [(scale, r - theta * (e - 1.0), e - 1.0)]
    # ln(1+x) <= x turns the log term into x^(q-1) + x^q (upper bound)
    return [
        (scale, r - theta * (e - 1.0), e - 1.0),
        (scale, r - theta * e, e),
    ]


def _rate_integral(times, sups, forcings, t: float) -> float:
    """I(t): the integral over [0, t] of the rate a = sum_i h_i f_i(s)/s of the
    trace s, bounded from above by a left-endpoint sum.

    The sum runs over the panels [t_j, t_(j+1)] with t_j < t, the last one cut
    at t, of [H_i(t_(j+1)) - H_i(t_j)] f_i(s_j)/s_j, with the exact profile
    primitives H_i (exact through integrable profile singularities at 0).  It
    bounds the integral from above: a backward-Euler solve never raises the
    sup norm, so the linear trace's sup never increases along a panel, nor
    does a kernel bound's (``KernelBound.trace``), and f(s)/s is
    nondecreasing.  ``math.inf`` when a primitive is past the float range.
    """
    n = int(np.searchsorted(times, t))          # the panels with t_j < t
    edges = np.append(times[:n], t)
    total = 0.0
    for term in forcings:
        if term.profile.is_zero:
            continue
        primitives = [term.profile.primitive(x) for x in edges]
        if math.isinf(primitives[-1]):
            return math.inf
        total += float(np.sum(np.diff(primitives) * term.nonlinearity.slope(sups[:n])))
    return total


def smallness_index(sup_trace, tail_envelope: DecayEnvelope, forcings,
                    t_num: float) -> float:
    """The global-existence index: int_0^inf sum_i h_i f_i(s)/s with s the trace.

    The part on [0, t_num] is the trace's left-endpoint sum I(t_num)
    (``_rate_integral``); the tail substitutes the envelope, fitted or the
    kernel bound's exact one, and integrates in closed form.  Returns math.inf
    when the tail integral diverges, or when a profile's integral over
    [0, t_num] or the envelope's power is past the float range: blow-up-side
    evidence.
    """
    times, sups = _as_trace(sup_trace)
    if times.size < 2 or times[-1] < t_num * (1.0 - 1e-12):
        raise ConfigError(f"trace does not cover [0, {t_num}]")
    # an infinite sum stays infinite: every tail term below is positive
    total = _rate_integral(times, sups, forcings, t_num)

    theta, c_env = tail_envelope.theta, tail_envelope.constant
    for term in forcings:
        if term.profile.is_zero:
            continue
        for scale, exponent, power_of_s in _tail_exponents(term, theta):
            if exponent >= -1.0:
                return math.inf
            try:
                amp = scale * (c_env ** power_of_s)
            except OverflowError:
                return math.inf
            total += amp * t_num ** (exponent + 1.0) / (-exponent - 1.0)
    return total


# Samples per decade of t + t0 in a kernel trace.  On each panel the bound
# falls by the ratio 10^(-theta / K) at most, so the left-endpoint sum
# overstates the integral of a u^m rate by a factor 10^(theta (m - 1) / K) at
# most: 1.055 for theta = 1/2, m = 4.
_KERNEL_SAMPLES_PER_DECADE = 64


@dataclass(frozen=True)
class KernelBound:
    """The comparison bound of the exact kernel of the power weight.

    Gamma(x, t) = t^(-theta) exp(-|x|^beta / (beta^2 t)), beta = 2 - alpha and
    theta = N / beta, solves u_t = div(|x|^alpha grad u) on R^N (the line
    weight, N = 1, and the radial weight).  Data u0 <= A Gamma(., t0) give, by
    comparison, sup S(t)u0 <= min(cap, A (t + t0)^(-theta)) on R^N, with cap =
    sup u0: no fit and no truncation.  The bound is for the flow on R^N, not
    for a solver's truncated, discretised one.
    """

    t0: float
    constant: float     # A
    theta: float
    cap: float

    def trace(self, horizon: float):
        """The bound sampled on a geometric grid in t + t0 from t0 to
        horizon + t0: times run from exactly 0 to exactly ``horizon``.

        The times are t0 expm1(u) for u evenly spaced in [0, log1p(horizon /
        t0)], which stays exact when t0 dwarfs the horizon.  The bound never
        increases, so the left-endpoint sums of ``_rate_integral`` stay upper
        bounds on it.
        """
        u_end = math.log1p(horizon / self.t0)
        panels = math.ceil(_KERNEL_SAMPLES_PER_DECADE * u_end / math.log(10.0))
        times = self.t0 * np.expm1(np.linspace(0.0, u_end, max(panels, 2) + 1))
        times[-1] = horizon
        # (t + t0)^(-theta) past the float range only meets the cap
        with np.errstate(over="ignore"):
            decay = (times + self.t0) ** -self.theta
        return times, np.minimum(self.cap, self.constant * decay)

    def witness(self, forcings, horizon: float) -> float:
        """The global witness (m - 1) I of the bound: the left-endpoint sum of
        its trace to ``horizon``, and past it the exact tail A t^(-theta),
        which lies above A (t + t0)^(-theta)."""
        envelope = DecayEnvelope(self.theta, self.constant, (horizon, math.inf), 0.0)
        return (growth_exponent(forcings) - 1.0) * smallness_index(
            self.trace(horizon), envelope, forcings, horizon)


def gaussian_kernel_bound(alpha: float, dim: int, amplitude: float,
                          sigma: float) -> KernelBound:
    """The kernel bound of Gaussian data a exp(-|x|^2 / (2 sigma^2)) in R^dim.

    u0 <= A Gamma(., t0) needs A >= a t0^(N/beta) exp(max_x g), with
    g(x) = x^beta / (beta^2 t0) - x^2 / (2 sigma^2).  For alpha > 0, g peaks
    at x* = (sigma^2 / (beta t0))^(1/alpha), where g = x*^2 alpha / (2 beta
    sigma^2).  Minimising log A = log a + (N/beta) log t0 + g(x*) over t0 gives
    x*^2 = N sigma^2, so t0 = (sigma^2 / beta) (N sigma^2)^(-alpha/2) and
    A = a (t0 e^(alpha/2))^(N/beta).  At alpha = 0, t0 = sigma^2 / 2 is the
    smallest t0 with g <= 0, A = a t0^(N/2), and the bound is exact: t0 is
    sigma^beta / beta, which at alpha = 0 rounds as the data's 2 sigma^2
    does.  A t0 or A past the float range is ``math.inf``.
    """
    beta = 2.0 - alpha
    theta = dim / beta
    try:
        t0 = sigma ** beta / beta * dim ** (-alpha / 2.0)
        scale = (t0 * math.exp(alpha / 2.0)) ** theta
    except OverflowError:
        t0 = scale = math.inf
    return KernelBound(t0, amplitude * scale, theta, amplitude)


def growth_exponent(forcings) -> float:
    """The largest m over the live terms: p for u^p, q + 1 for (1+u) ln(1+u)^q;
    1 with no live term.

    It makes (m - 1) I, with I the smallness index, a global witness: global
    existence when below 1.  f(u)/u is nondecreasing and f(lam u) <=
    lam^m f(u) for lam >= 1, so psi' = a(t) psi^m, psi(0) = 1,
    a = sum_i h_i f_i(s)/s, makes psi(t) S(t)u0 a supersolution, and psi
    stays below (1 - (m - 1) I)^(-1/(m - 1)) exactly when (m - 1) I < 1.
    """
    m = 1.0
    for term in forcings:
        if not term.profile.is_zero:
            e = term.nonlinearity.exponent
            m = max(m, e if term.nonlinearity.kind == "power" else e + 1.0)
    return m


def horizon_witness(sup_trace, forcings, t: float) -> float | None:
    """The finite-horizon witness (m - 1) I(t): no blow-up before t when below 1.

    I(t) is the trace's left-endpoint sum over [0, t] (``_rate_integral``), with
    no envelope or tail: an upper bound on the integral of
    ``growth_exponent``'s rate.  When (m - 1) I(t) < 1, psi stays finite on
    [0, t], and the solution below psi(t) ||u0||_inf (Lee & Ni's lifespan
    bound).  ``math.inf`` when a primitive is past the float range; None when
    the trace stops before t.
    """
    times, sups = _as_trace(sup_trace)
    if times.size == 0 or times[-1] < t * (1.0 - 1e-12):
        return None
    return (growth_exponent(forcings) - 1.0) * _rate_integral(times, sups, forcings, t)


def fujita_exponents(alpha: float, dim: int, r: float, s: float):
    """Critical powers p* and q* for the two source families."""
    _validate_alpha(alpha)
    # "not" tests, so that NaN is rejected too
    if not 1 <= dim < math.inf:
        raise ConfigError(f"dim must be finite and >= 1, got {dim}")
    if not (-1.0 < r < math.inf and -1.0 < s < math.inf):
        raise ConfigError(f"profile exponents must be finite and exceed -1, "
                          f"got r={r}, s={s}")
    p_star = 1.0 + (2.0 - alpha) * (r + 1.0) / dim
    q_star = 1.0 + (2.0 - alpha) * (s + 1.0) / dim
    return p_star, q_star


def family_exponents(forcings):
    """(p, q, r, s) of the present source families, the last term of each winning.

    A family whose terms are all absent or zero reads p (or q) = inf and
    r (or s) = 0: infinitely supercritical, adding 0 to rho*.
    """
    p = q = math.inf
    r = s = 0.0
    for term in forcings:
        if term.profile.is_zero:
            continue
        if term.nonlinearity.kind == "power":
            p, r = term.nonlinearity.exponent, term.profile.exponent
        else:
            q, s = term.nonlinearity.exponent, term.profile.exponent
    return p, q, r, s


def second_critical_exponent(alpha: float, dim: int, p: float, q: float,
                             r: float, s: float) -> float:
    """Critical initial-data decay rate rho* in the supercritical regime."""
    p_star, q_star = fujita_exponents(alpha, dim, r, s)
    if p <= p_star or q <= q_star:
        raise ConfigError(
            f"second critical exponent needs p > {p_star} and q > {q_star}, "
            f"got p={p}, q={q}"
        )
    return max((2.0 - alpha) * (r + 1.0) / (p - 1.0),
               (2.0 - alpha) * (s + 1.0) / (q - 1.0))


def _validate_alpha(alpha: float):
    if not (0.0 <= alpha < 2.0):
        raise ConfigError(f"alpha must lie in [0, 2), got {alpha}")


def critical_mass_growth(times, window_mass, window):
    """Regression of windowed mass against ln t: (slope, residual).

    A positive slope is the discrete echo of the logarithmic mass growth that
    drives the critical-case blow-up argument.  Diagnostic, not a verdict.
    t = 0 has no logarithm and is left out.
    """
    times = np.asarray(times, dtype=float)
    wm = np.asarray(window_mass, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi) & (times > 0) & np.isfinite(wm) & (wm > 0)
    if mask.sum() < 4:
        raise ConfigError(f"too few usable samples in window {window}")
    x = np.log(times[mask])
    y = wm[mask]
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid


def evaluate(sup_trace, forcings, weight: WeightSpec) -> CriteriaReport:
    """Assemble the full report: envelope fit, index, witness, certificate,
    exponents.

    The envelope is fitted over the trace's last decade, and the index switches
    from the trace to the envelope at the trace's end.  A trace that stops
    before its asymptotic decay may get no witness however small its data;
    ``KernelBound.witness`` closes the tail of Gaussian data exactly.  The
    verdict is ``global_by_smallness`` when the witness is below 1 and no
    certificate fires.
    """
    times, sups = _as_trace(sup_trace)
    if times.size < 4:
        raise ConfigError("trace too short for a criteria report")
    t_end = float(times[-1])

    notes = []
    envelope = None
    index = witness = None
    try:
        envelope = decay_fit((times, sups), (t_end / 10.0, t_end))
        index = smallness_index((times, sups), envelope, forcings, t_end)
        # I is 0, never inf, when m is 1: with no live term
        witness = (growth_exponent(forcings) - 1.0) * index
    except ConfigError as exc:
        notes.append(f"decay fit unavailable: {exc}")

    tau = blowup_certificate((times, sups), forcings)

    p, q, r, s = family_exponents(forcings)
    p_star = q_star = rho_star = None
    if any(not term.profile.is_zero for term in forcings):
        p_star, q_star = fujita_exponents(weight.alpha, weight.dim, r, s)
        try:
            rho_star = second_critical_exponent(weight.alpha, weight.dim, p, q, r, s)
        except ConfigError:
            pass

    tails = {}
    z_ref = float(sups[-1]) if sups[-1] > 0 else None
    if z_ref:
        for term in forcings:
            key = f"{term.nonlinearity.kind}({term.nonlinearity.exponent:g})"
            tails[key] = osgood_tail(term.nonlinearity, z_ref)

    if tau is not None:
        verdict = "blowup_certified"
    elif witness is not None and witness < 1.0:
        verdict = "global_by_smallness"
    else:
        verdict = "undetermined"
        if index == math.inf:
            notes.append("smallness index diverges: blow-up-side evidence")

    return CriteriaReport(index, witness, tau, tails, p_star, q_star, rho_star,
                          verdict, envelope, notes)
