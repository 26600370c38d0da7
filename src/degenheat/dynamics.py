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
``compare_runs`` a two-column run of the ordered pair (u, v).  Both, and
``monotone_iterates``, enter through ``_folded``: exactly even line data fold
once onto the line operator's half (``semigroup.fold``), and a diffusionless
run has no operator and runs the line as given.  A trial does only the work its
result needs: one update, one solve and one scan of the change.  The
accepted state's max |u| per column is scanned once, scales the next
trials' change, and goes out with the state, so neither caller scans it
again.  ``simulate`` sums mass with ``grids.volume_sum``, whose order does
not depend on the BLAS thread count.  A caller that reads only the sup
trace, as every march of a sweep does, asks for no mass histories and skips
the sums.

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
from .grids import Field, GridSpec, volume_sum
from .semigroup import _NORMAL, _TINY, build_operator, fold, unfold
from .weight import WeightSpec

# Step floor: a step this small is never halved, and runaway growth at it is
# blow-up.  Past t ~ 1e3 the floor is 8 ulp(t) instead, so the clock still moves.
_DT_FLOOR = 1e-12
# Runaway growth: _RUNAWAY_FACTOR-fold on each of the last _RUNAWAY_STEPS recorded steps
_RUNAWAY_FACTOR, _RUNAWAY_STEPS = 10.0, 3
RUNAWAY_GROWTH = _RUNAWAY_FACTOR ** _RUNAWAY_STEPS
# Trial steps (accepted or rejected) one IMEX march may take.
_STEP_CAP = 5_000_000
# Fixed backward-Euler substeps per mesh panel of the Picard iteration.
_PANEL_STEPS = 8
# Skip rule of the explicit update: a source sum at most 2^-55 u is below half
# an ulp of u.  The rule asks for 2^-56, a factor 2 for rounding each term.
_HALF_ULP_SHARE = 2.0 ** -56
# theta never exceeds this: below it, (1 + u) <= 1.001 bounds the log_power terms.
_SKIP_CAP = 1e-3


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

    def primitive(self, t: float) -> float:
        """Closed-form integral over [0, t]; ``math.inf`` past the float range."""
        if t < 0.0:
            raise ConfigError(f"time must be nonnegative, got {t}")
        e = self.exponent
        try:
            # on a Python float, t ** e raises OverflowError rather than warning
            return self.value * float(t) ** (e + 1.0) / (e + 1.0)
        except OverflowError:
            return math.inf if self.value > 0.0 else 0.0


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
                u **= self.exponent    # in place on the clipped copy; rounds as u ** p
                return u
            return (1.0 + u) * np.log1p(u) ** self.exponent

    def slope(self, u):
        """f(u)/u, extended by continuity with value 0 at u = 0."""
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u > 0.0, self(u) / np.where(u > 0, u, 1.0), 0.0)
        return out


@dataclass(frozen=True)
class ForcingTerm:
    profile: TimeProfile
    nonlinearity: Nonlinearity


def _live_terms(forcings) -> list:
    """The terms whose profile is not identically zero, in order: the one
    reader of a zero profile.  Its primitive is 0.0 at every t, so neither the
    march nor the integrability check needs this filter."""
    return [term for term in forcings if not term.profile.is_zero]


def _check_march(tol: float, blowup_threshold: float) -> None:
    """Raise ConfigError unless a march's ``tol`` and ``blowup_threshold`` are
    positive; "not" tests, so that NaN is rejected too."""
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if not blowup_threshold > 0.0:
        raise ConfigError(f"blowup_threshold must be positive, got {blowup_threshold}")


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
        for term in self.forcings:
            if not math.isfinite(term.profile.primitive(self.horizon)):
                raise ConfigError(f"source {term.profile} has no finite integral up to "
                                  f"horizon {self.horizon}")
        _check_march(self.tol, self.blowup_threshold)
        if self.u0.grid != self.grid:
            raise ConfigError("u0 grid does not match the config grid")
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
    mass_history: np.ndarray | None        # None when the march summed no mass
    window_mass_history: np.ndarray | None
    final: Field | None = None

    @property
    def step_count(self) -> int:
        return len(self.times) - 1

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
            "history": [{"t": float(t), "sup": float(s)}
                        for t, s in zip(self.times, self.sup_history)],
        }
        if self.mass_history is not None:
            for entry, m in zip(payload["history"], self.mass_history):
                entry["mass"] = float(m)
        if self.t_star is not None:
            payload["t_star"] = float(self.t_star)
        return json.dumps(payload, indent=2)


def _step_weights(forcings, t0, t1) -> list:
    """(w_i, f_i) for each term with w_i = H_i(t1) - H_i(t0) != 0, in order."""
    live = []
    for term in forcings:
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

    The other rows are ``u + 0.0``, which is ``u`` with -0.0 turned to +0.0,
    as adding the exact sum's zero does.
    """
    out = u + 0.0
    live = _step_weights(forcings, t0, t1)
    if not live:
        return out
    rows = _source_rows(live, u)
    part = u[rows]
    (weight, nonlinearity), *rest = live
    du = nonlinearity(part)
    du *= weight
    for weight, nonlinearity in rest:
        du += weight * nonlinearity(part)
    out[rows] += du
    return out


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
    if not theta >= _NORMAL:
        return slice(None)
    # find and rfind scan the mask's bytes in C for the first and last 0, a moved
    # node; "not <=", so that a NaN node is evaluated, as in the exact sum
    still = (u <= theta).tobytes()
    first = still.find(0)
    if first < 0:
        return slice(0, 0)
    width = u.size // len(u)
    return slice(first // width, still.rfind(0) // width + 1)


def _growth_runaway(sups) -> bool:
    """Each of the last _RUNAWAY_STEPS recorded sup norms grew _RUNAWAY_FACTOR-fold."""
    recent = sups[-_RUNAWAY_STEPS - 1:]
    return len(recent) > _RUNAWAY_STEPS and recent[0] > 0.0 and all(
        b >= _RUNAWAY_FACTOR * a for a, b in zip(recent, recent[1:]))


def _imex_steps(config: SimConfig, op, u: np.ndarray):
    """Adaptive IMEX march of an (M,) or (M, k) state on the operator ``op``,
    None for a diffusionless run; yields (t, floored, u, sup), ``sup`` the
    accepted state's max |u| per column (a scalar for an (M,) state).

    All columns share one step size.  A trial whose largest per-column
    relative change, against the accepted state's ``sup``, exceeds ``rc_hi``
    is halved and retried unless its step is at the floor,
    max(_DT_FLOOR, 8 ulp(t)); a change below rc_hi / 10 doubles the next
    step.  ``floored`` marks a step taken at the floor, where even a
    non-finite explicit update is accepted, unsolved, for the caller to judge.
    A trial scans its update for non-finite values once: ``solve_shifted``
    makes that scan and raises ValueError.  The solved state needs no scan:
    I - dt A has unit row sums and a non-negative inverse, so it never raises
    the sup norm.  Each accepted state is scanned once more, for ``sup``.
    ``_STEP_CAP`` trials raise ``NumericError``.
    """
    rows = None if op is None else op.free
    horizon = config.horizon
    rc_hi = min(0.1, math.sqrt(config.tol))
    t = 0.0
    dt = horizon * 1e-4
    sup = np.abs(u).max(axis=0)
    scale = np.maximum(sup, _TINY)
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
        change = None
        if finite:
            change = np.subtract(u_new, u)
            np.abs(change, out=change)
            err = float((change.max(axis=0) / scale).max())
        if err > rc_hi and not floored:
            dt /= 2.0
            continue
        t += dt
        u = u_new
        # the change's buffer, when there is one, takes |u| for the scan
        sup = np.abs(u, out=change).max(axis=0)
        scale = np.maximum(sup, _TINY)
        yield t, floored, u, sup
        if err < rc_hi / 10.0:
            dt *= 2.0
    raise NumericError("IMEX march exceeded the step cap")


def _folded(config: SimConfig, u: np.ndarray):
    """``semigroup.fold`` of ``config``'s operator and ``u``; (None, u) for a
    diffusionless run."""
    if config.diffusionless:
        return None, u
    return fold(build_operator(config.grid, config.weight), u)


def simulate(config: SimConfig, *, masses: bool = True) -> SimResult:
    """March the semilinear problem to its horizon or to blow-up.

    With ``masses`` false no step sums the mass or the window mass, and both
    histories are None: a caller that reads only the sup trace skips them.
    Folded data sum them on the half grid.
    """
    op, u = _folded(config, config.u0.values)
    grid = config.grid if op is None else op.grid
    times = [0.0]
    sups = [float(np.abs(u).max())]
    mass = window = None
    if masses:
        vols = grid.node_volumes()
        # ascending node positions: the window |x| <= rad is one index range
        pos = grid.positions()
        scale_exp = config.weight.scaling_exponent
        mass = [volume_sum(u, vols)]
        window = [mass[0]]

    def result(status, t_star=None, final=None):
        return SimResult(status, config.horizon, t_star, np.array(times), np.array(sups),
                         None if mass is None else np.array(mass),
                         None if window is None else np.array(window), final)

    for t, floored, u, sup in _imex_steps(config, op, u):
        sup_new = float(sup)
        finite = math.isfinite(sup_new)
        if not finite and not _growth_runaway(sups):
            raise NumericError(
                f"non-finite state at t={times[-1]} before the blow-up threshold; "
                f"recent sups: {sups[-5:]}"
            )
        times.append(t)
        sups.append(sup_new)
        if masses:
            mass.append(volume_sum(u, vols) if finite else math.inf)
            rad = t ** (1.0 / scale_exp)
            lo = pos.searchsorted(-rad, side="left")
            hi = pos.searchsorted(rad, side="right")
            window.append(volume_sum(u[lo:hi], vols[lo:hi]) if finite else math.inf)

        if sup_new >= config.blowup_threshold or (floored and _growth_runaway(sups)):
            return result("blown_up", t)
    return result("completed", final=Field(config.grid, unfold(config.grid, u)))


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
    substeps so the discrete semigroup is one fixed monotone matrix per panel
    (the identity in a diffusionless run, whose source acts on every row).

    Iterates 0 (the linear flow) to k_max are the rows of one array, advanced
    panel by panel: iterate k takes iterate k-1's source, and the live ones
    are solved as one block, so each panel factors its shift once.  The first
    iterate in k order to go non-finite ends the report with a "nonfinite"
    violation and leaves the block with those after it.  Violations run per
    k and mesh point, "monotone" before "cap"; the flags are read off them.
    """
    # "not" tests, so that NaN is rejected too
    if not 0.0 < beta < math.inf:
        raise ConfigError(f"beta must be finite and positive, got {beta}")
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    if v0.grid != config.grid:
        raise ConfigError("v0 grid does not match the config grid")
    if delta is None:
        delta = 0.9 / (1.0 + beta)
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = delta * v0.values
    if not np.isfinite(u0).all():    # a non-finite delta, or delta * v0 overflows
        raise ConfigError(f"delta must keep delta * v0 finite, got {delta}")
    if mesh is None:
        mesh = default_mesh(config.horizon)
    mesh = np.asarray(mesh, dtype=float)
    if not (mesh.ndim == 1 and mesh.size and mesh[0] == 0.0
            and np.isfinite(mesh).all() and (np.diff(mesh) > 0).all()):
        raise ConfigError("mesh must be a finite 1-D array that starts at 0 "
                          "and increases strictly")

    op, u0 = _folded(config, u0)
    # the rows the source acts on; not slice(None), whose start would zero them all
    rows = slice(0, len(u0)) if op is None else op.free
    its = np.empty((k_max + 1, mesh.size, len(u0)))
    its[:, 0] = u0
    live, nonfinite = k_max + 1, []
    for j in range(1, mesh.size):
        block = its[:live, j - 1].copy()
        with np.errstate(over="ignore"):
            src = _source_increment(config.forcings, block[:-1], mesh[j - 1], mesh[j])
            src[:, :rows.start] = 0.0    # the Dirichlet rows hold
            src[:, rows.stop:] = 0.0
            block[1:] += src
        bad = np.flatnonzero(~np.isfinite(block[1:]).all(axis=1))
        if bad.size:
            # a runaway iterate, a cap violation in the making: it ends the report
            live = int(bad[0]) + 1
            nonfinite = [("nonfinite", live, float(mesh[j]), math.inf)]
            block = block[:live]
        # (nodes, live) columns, each solved as if alone; no solve without diffusion
        for _ in range(0 if op is None else _PANEL_STEPS):
            block = op.solve_shifted((mesh[j] - mesh[j - 1]) / _PANEL_STEPS, block.T).T
        its[:live, j] = block

    lin, cur = its[0], its[1:live]
    slack = 1e-10 * max(float(np.abs(lin).max()), _TINY)
    rise = cur - its[:live - 1]
    gaps = [float(gap) for gap in np.abs(rise).max(axis=(1, 2))]
    drops = rise.min(axis=2)
    overs = (cur - (1.0 + beta) * lin).max(axis=2)
    violations = []
    for k, j in zip(*np.nonzero((drops < -slack) | (overs > slack))):
        if drops[k, j] < -slack:
            violations.append(("monotone", int(k) + 1, float(mesh[j]), float(drops[k, j])))
        if overs[k, j] > slack:
            violations.append(("cap", int(k) + 1, float(mesh[j]), float(overs[k, j])))
    violations += nonfinite
    kinds = {v[0] for v in violations}
    return IterateReport(mesh, gaps, "monotone" not in kinds,
                         not kinds & {"cap", "nonfinite"}, violations, delta, beta)


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
    if u0.grid != config.grid or v0.grid != config.grid:
        raise ConfigError("u0 and v0 grids must match the config grid")
    if np.any(u0.values > v0.values):
        raise ConfigError("compare_runs needs u0 <= v0 nodewise")
    defect = 0.0
    scale = max(v0.sup(), _TINY)
    t_end = 0.0
    op, uv = _folded(config, np.column_stack([u0.values, v0.values]))
    for t, _, uv, sups in _imex_steps(config, op, uv):
        if not np.isfinite(sups).all():
            break
        t_end = t
        sup_v = float(sups[1])
        scale = max(scale, sup_v)
        defect = max(defect, float(np.max(uv[:, 0] - uv[:, 1])))
        if sup_v >= config.blowup_threshold:
            break
    return ComparisonReport(max(defect, 0.0), scale, t_end)
