"""Mild-solution integrator for u_t - div(omega grad u) = sum_i h_i(t) f_i(u).

The march is IMEX: diffusion implicit (backward Euler), sources explicit with
the time profile integrated exactly over each step, so profiles t^r with
r in (-1, 0) lose no accuracy on the first step.  Step size adapts on the
relative solution change; blow-up is declared when the sup norm crosses a
threshold or the step collapses to its floor under super-linear growth.  The
source acts on the free rows only: the Dirichlet rows, those outside
``DiffusionOperator.free``, keep the data's values, as the linear flow does.

One march, ``_imex_steps``, advances an (M,) state or an (M, k) block under
shared step control: ``simulate`` is a one-column run of it, and
``compare_runs`` a two-column run of the ordered pair (u, v).

The march's explicit update, ``_explicit_update``, skips the nodes where the
source sum cannot change a bit.  With k terms of weight w_i > 0, take
theta = min(1e-3, min_i (2^-56 / (k w_i))^(1 / (e_i - 1))).  At u <= theta,
w_i u^e_i <= 2^-56 u / k, and (1 + u) log1p(u)^q <= 1.001 u^q bounds the
log_power terms; rounding a term, even to a subnormal, at most doubles it.
So the sum is below 1.001 * 2^-55 u, under half an ulp of u (subnormal u
included, where each term rounds to 0), and u + du == u + 0.  Negative
roundoff values give f = 0 either way.  Every other row is evaluated as in
``_source_increment``, term by term in the same order, so the update is
bit-identical to ``u + _source_increment(...)``.  The rule must be joint:
a term skipped on its own can still move the rounding of the others' sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .grids import Field, GridSpec
from .semigroup import apply_semigroup, build_operator
from .weight import WeightSpec

_TINY = 1e-300
# Step floor: a step this small is never halved, and runaway growth at it is
# blow-up.  Past t ~ 1e3 the floor is 8 ulp(t) instead, so the clock still moves.
_DT_FLOOR = 1e-12
# Trial steps (accepted or rejected) one IMEX march may take.
_STEP_CAP = 5_000_000
# Fixed backward-Euler substeps per mesh panel of the Picard iteration.
_PANEL_STEPS = 8
# Skip rule of the explicit update: a source sum at most 2^-55 u is below half
# an ulp of u.  The rule asks for 2^-56, a factor 2 for rounding each term.
_HALF_ULP_SHARE = 2.0 ** -56
# theta never exceeds this: below it, (1 + u) <= 1.001 bounds the log_power terms.
_SKIP_CAP = 1e-3
_NORMAL_MIN = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TimeProfile:
    """Time dependence of a source term: value * t^exponent."""

    exponent: float = 0.0
    value: float = 1.0

    def __post_init__(self):
        # "not" tests, so that NaN is rejected too
        if not -1.0 < self.exponent < math.inf:
            raise ConfigError(f"profile exponent must be finite and exceed -1, "
                              f"got {self.exponent}")
        if not 0.0 <= self.value < math.inf:
            raise ConfigError(f"profile value must be finite and >= 0, got {self.value}")

    @classmethod
    def power(cls, exponent: float) -> "TimeProfile":
        return cls(exponent)

    @classmethod
    def constant(cls, value: float = 1.0) -> "TimeProfile":
        return cls(0.0, value)

    @classmethod
    def zero(cls) -> "TimeProfile":
        return cls(0.0, 0.0)

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0

    def __call__(self, t: float) -> float:
        if t > 0:
            return self.value * t ** self.exponent
        return self.value if self.exponent == 0 else 0.0

    def primitive(self, t: float) -> float:
        """Closed-form integral over [0, t]."""
        if t < 0.0:
            raise ConfigError(f"time must be nonnegative, got {t}")
        e = self.exponent
        return self.value * t ** (e + 1.0) / (e + 1.0)


@dataclass(frozen=True)
class Nonlinearity:
    """Source nonlinearity: u^p, or (1+u) ln(1+u)^q."""

    kind: str  # "power" | "log_power"
    exponent: float

    def __post_init__(self):
        if self.kind not in ("power", "log_power"):
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}")
        if not 1.0 < self.exponent < math.inf:
            raise ConfigError(
                f"nonlinearity exponent must be finite and exceed 1, got {self.exponent}")

    @classmethod
    def power(cls, p: float) -> "Nonlinearity":
        return cls("power", p)

    @classmethod
    def log_power(cls, q: float) -> "Nonlinearity":
        return cls("log_power", q)

    def __call__(self, u):
        # domain is [0, inf); clip so roundoff-negative states stay evaluable
        u = np.maximum(np.asarray(u, dtype=float), 0.0)
        with np.errstate(over="ignore"):
            if self.kind == "power":
                return u ** self.exponent
            return (1.0 + u) * np.log1p(u) ** self.exponent

    def slope(self, u):
        """f(u)/u, extended by continuity with value 0 at u = 0."""
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u > 0.0, self(np.maximum(u, 0.0)) / np.where(u > 0, u, 1.0), 0.0)
        return out


@dataclass(frozen=True)
class ForcingTerm:
    profile: TimeProfile
    nonlinearity: Nonlinearity


@dataclass
class SimConfig:
    weight: WeightSpec
    grid: GridSpec
    forcings: list
    u0: Field
    horizon: float
    blowup_threshold: float = 1e8
    tol: float = 1e-3
    diffusionless: bool = False

    def __post_init__(self):
        # "not" tests, so that NaN is rejected too
        if not 0.0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be finite and positive, got {self.horizon}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if not self.blowup_threshold > 0.0:
            raise ConfigError(
                f"blowup_threshold must be positive, got {self.blowup_threshold}")
        sup0 = self.u0.sup()
        if sup0 > 0.0 and self.blowup_threshold < 1e3 * sup0:
            raise ConfigError(
                f"blowup_threshold {self.blowup_threshold} is below 1e3 * sup(u0) = {1e3 * sup0}"
            )


@dataclass
class SimResult:
    status: str                # "completed" | "blown_up"
    horizon: float
    t_star: float | None
    times: np.ndarray
    sup_history: np.ndarray
    mass_history: np.ndarray
    window_mass_history: np.ndarray
    step_count: int
    final: Field | None = None

    @property
    def blew_up(self) -> bool:
        return self.status == "blown_up"

    def trace(self):
        """(t, sup) pairs with only finite sup values."""
        ok = np.isfinite(self.sup_history)
        return self.times[ok], self.sup_history[ok]

    def to_json(self) -> str:
        payload = {
            "status": self.status,
            "horizon": self.horizon,
            "steps": self.step_count,
            "history": [
                {"t": float(t), "sup": float(s), "mass": float(m)}
                for t, s, m in zip(self.times, self.sup_history, self.mass_history)
            ],
        }
        if self.t_star is not None:
            payload["t_star"] = float(self.t_star)
        return json.dumps(payload, indent=2)


def _step_weights(forcings, t0, t1) -> list:
    """(w_i, f_i) for each term with w_i = H_i(t1) - H_i(t0) != 0, in order."""
    live = []
    for term in forcings:
        if term.profile.is_zero:
            continue
        weight = term.profile.primitive(t1) - term.profile.primitive(t0)
        if weight != 0.0:
            live.append((weight, term.nonlinearity))
    return live


def _source_increment(forcings, u, t0, t1):
    """Exact-in-time explicit source: sum_i [H_i(t1) - H_i(t0)] f_i(u)."""
    du = np.zeros_like(u)
    for weight, nonlinearity in _step_weights(forcings, t0, t1):
        du += weight * nonlinearity(u)
    return du


def _explicit_update(forcings, u, t0, t1):
    """``u + _source_increment(forcings, u, t0, t1)``, bit for bit, evaluating
    the nonlinearities only on the rows where their sum can move ``u``: the
    rows from the first to the last node above theta (module docstring).
    """
    live = _step_weights(forcings, t0, t1)
    du = np.zeros_like(u)
    rows = _source_rows(live, u)
    for weight, nonlinearity in live:
        du[rows] += weight * nonlinearity(u[rows])
    return u + du


def _source_rows(live, u) -> slice:
    """Rows of ``u`` from the first to the last holding a node above theta.

    All rows when a weight is not finite, or when theta is not a normal
    number: a subnormal theta is too coarse to keep the bound.
    """
    theta = _SKIP_CAP
    for weight, nonlinearity in live:
        if not 0.0 < weight < math.inf:
            return slice(None)
        share = _HALF_ULP_SHARE / (len(live) * weight)
        # a share >= 1 has a root >= 1 > _SKIP_CAP; a float power of it may overflow
        if share < 1.0:
            theta = min(theta, share ** (1.0 / (nonlinearity.exponent - 1.0)))
    if not theta >= _NORMAL_MIN:
        return slice(None)
    # "not <=" tests, so that a NaN node is evaluated, as in the exact sum
    if not (u[0] <= theta).all() and not (u[-1] <= theta).all():
        return slice(None)  # both end rows move: a filled state needs no scan
    moved = ~(u.reshape(-1) <= theta)
    first = int(np.argmax(moved))
    if not moved[first]:
        return slice(0, 0)
    last = moved.size - 1 - int(np.argmax(moved[::-1]))
    width = u.size // len(u)
    return slice(first // width, last // width + 1)


def _growth_runaway(sups) -> bool:
    """Last three recorded sup norms each grew by >= 10x."""
    if len(sups) < 4:
        return False
    a, b, c, d = sups[-4:]
    return b >= 10 * a > 0 and c >= 10 * b and d >= 10 * c


def _imex_steps(config: SimConfig, u: np.ndarray):
    """Adaptive IMEX march of an (M,) or (M, k) state; yields (t, floored, u).

    All columns share one step size.  A trial whose largest per-column
    relative change exceeds ``rc_hi`` is halved and retried unless its step is
    at the floor, max(_DT_FLOOR, 8 ulp(t)); a change below rc_hi / 10 doubles
    the next step.  ``floored`` marks a step taken at the floor, where even a
    non-finite explicit update is accepted, unsolved, for the caller to judge.
    A trial scans its update for non-finite values once: ``solve_shifted``
    makes that scan and raises ValueError.  The solved state needs no scan:
    I - dt A has unit row sums and a non-negative inverse, so it never raises
    the sup norm.  ``_STEP_CAP`` trials raise ``NumericError``.
    """
    op = None if config.diffusionless else build_operator(config.grid, config.weight)
    rows = None if op is None else op.free
    horizon = config.horizon
    rc_hi = min(0.1, math.sqrt(config.tol))
    t = 0.0
    dt = horizon * 1e-4
    for _ in range(_STEP_CAP):
        if t >= horizon * (1.0 - 1e-14):
            return
        dt = min(dt, horizon - t)
        floored = dt <= max(_DT_FLOOR, 8.0 * math.ulp(t))
        u_new = _explicit_update(config.forcings, u, t, t + dt)
        err = math.inf
        if op is None:
            finite = np.isfinite(u_new).all()
        else:
            u_new[:rows.start] = u[:rows.start]    # the Dirichlet rows hold
            u_new[rows.stop:] = u[rows.stop:]
            try:
                u_new = op.solve_shifted(dt, u_new)
                finite = True
            except ValueError:  # a non-finite update; dt is finite
                finite = False
        if finite:
            scale = np.maximum(np.max(np.abs(u), axis=0), _TINY)
            err = float(np.max(np.max(np.abs(u_new - u), axis=0) / scale))
        if err > rc_hi and not floored:
            dt /= 2.0
            continue
        t += dt
        u = u_new
        yield t, floored, u
        if err < rc_hi / 10.0:
            dt *= 2.0
    raise NumericError("IMEX march exceeded the step cap")


def simulate(config: SimConfig) -> SimResult:
    """March the semilinear problem to its horizon or to blow-up."""
    grid = config.grid
    vols = grid.node_volumes()
    # ascending node positions: the window |x| <= rad is one index range
    pos = grid.positions()
    scale_exp = config.weight.scaling_exponent

    u = config.u0.values
    times = [0.0]
    sups = [float(np.max(np.abs(u)))]
    masses = [float(u @ vols)]
    window = [masses[0]]

    def result(status, t_star=None, final=None):
        return SimResult(status, config.horizon, t_star, np.array(times), np.array(sups),
                         np.array(masses), np.array(window), len(times) - 1, final)

    for t, floored, u in _imex_steps(config, u):
        sup_new = float(np.max(np.abs(u)))
        finite = math.isfinite(sup_new)
        if not finite and not _growth_runaway(sups):
            raise NumericError(
                f"non-finite state at t={times[-1]} before the blow-up threshold; "
                f"recent sups: {sups[-5:]}"
            )
        times.append(t)
        sups.append(sup_new)
        masses.append(float(u @ vols) if finite else math.inf)
        rad = t ** (1.0 / scale_exp)
        lo = np.searchsorted(pos, -rad, side="left")
        hi = np.searchsorted(pos, rad, side="right")
        window.append(float(u[lo:hi] @ vols[lo:hi]) if finite else math.inf)

        if sup_new >= config.blowup_threshold or (floored and _growth_runaway(sups)):
            return result("blown_up", t)
    return result("completed", final=Field(grid, u))


@dataclass
class IterateReport:
    """Outcome of the monotone fixed-point iteration on a time mesh."""

    mesh: np.ndarray
    gaps: list            # sup distance between successive iterates
    monotone_ok: bool
    cap_ok: bool
    violations: list = field(default_factory=list)
    delta: float = 0.0
    beta: float = 0.0


def default_mesh(horizon: float, points: int = 24) -> np.ndarray:
    """Geometric time mesh on [horizon/1000, horizon], prefixed with t = 0."""
    inner = np.geomspace(horizon * 1e-3, horizon, points)
    return np.concatenate(([0.0], inner))


def monotone_iterates(config: SimConfig, v0: Field, beta: float, k_max: int,
                      delta: float | None = None, mesh=None) -> IterateReport:
    """Run the Picard iteration u^k = S(t)u0 + Duhamel(u^{k-1}) on a time mesh.

    u0 = delta*v0 with delta below 1/(1+beta) unless the caller overrides it
    (deliberate violations are reported, not raised: a falsification mode).
    Checks nodewise monotonicity in k and the cap u^k <= (1+beta) S(t)u0.
    Each mesh panel is advanced with ``_PANEL_STEPS`` fixed backward-Euler
    substeps so the discrete semigroup is one fixed monotone matrix per panel.
    """
    if beta <= 0.0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    if delta is None:
        delta = 0.9 / (1.0 + beta)
    if mesh is None:
        mesh = default_mesh(config.horizon)
    mesh = np.asarray(mesh, dtype=float)
    if mesh[0] != 0.0 or np.any(np.diff(mesh) <= 0):
        raise ConfigError("mesh must start at 0 and increase strictly")

    op = build_operator(config.grid, config.weight)
    rows = op.free
    u0 = Field(config.grid, delta * v0.values)
    npts = mesh.size

    # linear baseline S(t_j) u0 along the mesh
    lin = [u0.copy()]
    for j in range(1, npts):
        lin.append(apply_semigroup(op, lin[-1], mesh[j] - mesh[j - 1],
                                   n_steps=_PANEL_STEPS))

    scale = max(f.sup() for f in lin)
    slack = 1e-10 * max(scale, _TINY)
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
                src = _source_increment(config.forcings, prev[j - 1].values,
                                        mesh[j - 1], mesh[j])
            src[:rows.start] = 0.0    # the Dirichlet rows hold
            src[rows.stop:] = 0.0
            carried_values = cur[-1].values + src
            if not np.all(np.isfinite(carried_values)):
                # runaway iterate: a cap violation in the making; record and stop
                cap_ok = False
                violations.append(("nonfinite", k, float(mesh[j]), math.inf))
                overflowed = True
                break
            carried = Field(config.grid, carried_values)
            cur.append(apply_semigroup(op, carried, dt_panel, n_steps=_PANEL_STEPS))
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


@dataclass
class ComparisonReport:
    max_defect: float     # max over time of max nodewise (u - v)+
    scale: float          # running max of ||v||_inf
    t_end: float


def compare_runs(config: SimConfig, u0: Field, v0: Field) -> ComparisonReport:
    """Co-advance ordered initial data as one two-column IMEX march.

    The IMEX step is order preserving (monotone sources, M-matrix solve), so
    the positive-part defect stays at roundoff when u0 <= v0.  The run stops
    at the horizon, when sup v crosses the blow-up threshold, or at the last
    finite state when the explicit update overflows at the step floor.
    """
    if np.any(u0.values > v0.values):
        raise ConfigError("compare_runs needs u0 <= v0 nodewise")
    defect = 0.0
    scale = max(v0.sup(), _TINY)
    t_end = 0.0
    for t, _, uv in _imex_steps(config, np.column_stack([u0.values, v0.values])):
        sups = np.max(np.abs(uv), axis=0)
        if not np.isfinite(sups).all():
            break
        t_end = t
        sup_v = float(sups[1])
        scale = max(scale, sup_v)
        defect = max(defect, float(np.max(uv[:, 0] - uv[:, 1])))
        if sup_v >= config.blowup_threshold:
            break
    return ComparisonReport(max(defect, 0.0), scale, t_end)
