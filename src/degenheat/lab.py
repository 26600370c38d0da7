"""Sweep orchestration: classify parameter points as blow-up or global-like.

"Global" is undecidable numerically.  Each point first reads a sup trace of
its data's linear flow to the final horizon.  For centred Gaussian data on a
run with diffusion that is the exact kernel's bound (``kernel_bound``), which
holds for the flow on R^N, not the solver's, with no fit and no truncation:
the reasons that rest on it end in " (kernel bound)".  Other data read the
linear trace on the final escalation rung's grid.  The trace's global witness
(m - 1) I < 1 of ``criteria`` makes the point GlobalLike, once a rung has run
and completed or when every rung is ruled out, as below.  Zero data are
witnessed trivially.  Data that are nontrivial, with a source family at or
below its Fujita exponent, get no witness: the theory rules global existence
out there.  Blow-up is the solver's threshold crossing.  Everything else is
Undetermined.

The same trace gives each rung its horizon witness (m - 1) I(T): a rung it
puts below 1, with the lifespan bound's psi(T) too small for the solver's
blow-up test to fire, is not simulated.  ``cell_evidence`` takes every such
linear reading of a point off one unit-amplitude run, scaled by the amplitude,
and ``run_sweep`` shares that run between points that differ only in their
sources and amplitude.

No march here, source rung or linear trace, sums mass.  ``simulate`` runs
each on the grid its config names, and folds even line data itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import evaluate as evaluate_criteria
from .criteria import (KernelBound, family_exponents, fujita_exponents,
                       gaussian_kernel_bound, growth_exponent, horizon_witness)
from .dynamics import RUNAWAY_GROWTH, Nonlinearity, SimConfig, _check_march, simulate
from .errors import ConfigError, NumericError
from .grids import GridSpec, InitialProfile
from .weight import WeightSpec

AXIS_NAMES = ("p", "q", "r", "s", "alpha", "amplitude")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to build a SimConfig, minus the horizon and grid size."""

    weight: WeightSpec
    grid: GridSpec
    forcings: tuple
    profile: InitialProfile
    blowup_threshold: float = 1e8
    tol: float = 1e-2
    diffusionless: bool = False

    def __post_init__(self):
        _check_march(self.tol, self.blowup_threshold)
        if not isinstance(self.diffusionless, bool):
            raise ConfigError(f"diffusionless must be true or false, got {self.diffusionless!r}")
        self.grid.check_weight(self.weight)

    def config(self, horizon: float, grid: GridSpec | None = None) -> SimConfig:
        g = grid or self.grid
        return SimConfig(self.weight, g, list(self.forcings), self.profile.realize(g),
                         horizon, self.blowup_threshold, self.tol,
                         self.diffusionless)


@dataclass(frozen=True)
class EscalationLevel:
    horizon: float
    grid: GridSpec | None = None


def default_escalation(horizons=(10.0, 100.0, 1000.0)) -> tuple:
    return tuple(EscalationLevel(h) for h in horizons)


@dataclass
class PhasePoint:
    axis_values: tuple
    classification: str        # "BlowUp" | "GlobalLike" | "Undetermined"
    t_star: float | None
    horizon: float
    index_I: float | None
    certificate_tau: float | None
    reason: str = ""


def _rungs(run: RunSpec, escalation) -> list:
    """Each rung's (horizon, grid).  A level with no grid refines the base grid
    once per rung before it."""
    rungs, grid = [], run.grid
    for level in escalation:
        rungs.append((level.horizon, level.grid or grid))
        grid = grid.refined()
    return rungs


def kernel_bound(run: RunSpec, horizon: float) -> KernelBound | None:
    """The exact kernel's bound on the linear flow of ``run``'s data
    (``criteria.KernelBound``) to ``horizon``, or None where it does not apply.

    It covers centred Gaussian data of positive amplitude, on a line or a
    radial grid in R^N, with t0 > 0 and A > 0 finite and horizon / t0 too,
    so that the bound's trace can be sampled.  A diffusionless run has no
    diffusion, so no kernel bounds its flow.
    """
    prof = run.profile
    if prof.kind != "gaussian" or run.diffusionless or not prof.amplitude > 0.0:
        return None
    bound = gaussian_kernel_bound(run.weight.alpha, run.weight.dim, prof.amplitude,
                                  prof.sigma)
    finite = (0.0 < bound.t0 and 0.0 < bound.constant < math.inf
              and horizon / bound.t0 < math.inf)
    return bound if finite else None


def linear_trace(run: RunSpec, horizon: float, grid: GridSpec,
                 traces: dict | None = None):
    """Sup trace of the linear flow of ``run``'s data on ``grid`` to ``horizon``.

    The linear flow is homogeneous in the data, so the trace is the
    unit-amplitude one with its sups scaled by the amplitude.  ``traces`` maps
    (unit linear run, grid, horizon) to a unit trace already computed: points
    that differ only in their sources and amplitude share one linear run.
    """
    unit = replace(run, forcings=(), blowup_threshold=math.inf,
                   profile=replace(run.profile, amplitude=1.0))
    traces = {} if traces is None else traces
    key = (unit, grid, horizon)
    if key not in traces:
        traces[key] = simulate(unit.config(horizon, grid), masses=False).trace()
    times, sups = traces[key]
    return times, run.profile.amplitude * sups


def point_criteria(run: RunSpec, horizon: float, traces: dict | None = None):
    """The analytic criteria on the linear trace of the point's data, read off
    the unit-amplitude trace on the base grid to ``horizon``.

    ``traces`` is passed on to ``linear_trace``.
    """
    trace = linear_trace(run, horizon, run.grid, traces)
    return evaluate_criteria(trace, list(run.forcings), run.weight)


def _subcritical(run: RunSpec) -> str:
    """The first source family at or below its Fujita exponent, as text, or ''.

    There every nontrivial solution blows up, so GlobalLike would be wrong.
    """
    p, q, r, s = family_exponents(run.forcings)
    p_star, q_star = fujita_exponents(run.weight.alpha, run.weight.dim, r, s)
    for name, value, star in (("p", p, p_star), ("q", q, q_star)):
        if value <= star:
            return f"{name} = {value:g} <= {name}* = {star:g}"
    return ""


def _rules_out_blowup(run: RunSpec, trace, horizon: float) -> float | None:
    """The horizon witness w = (m - 1) I(T) of ``trace`` to ``horizon`` when it
    rules out the solver's blow-up there, else None.

    Below 1, w gives S(t)u0 <= u <= psi S(t)u0 on [0, T], psi = (1 - w)^(-1/(m-1)),
    and the linear sup never increases: sup u stays below psi sup u0, and
    grows by less than the factor psi over any interval.  The solver calls
    blow-up when sup u reaches ``blowup_threshold`` or grows 1000-fold over
    three floored steps (``dynamics.RUNAWAY_GROWTH``), so w counts only while
    psi stays below both threshold / sup u0 and that growth.
    """
    w = horizon_witness(trace, run.forcings, horizon)
    if w is None or not w < 1.0:
        return None
    # w > 0 only with a live term, where m > 1
    log_psi = -math.log1p(-w) / (growth_exponent(run.forcings) - 1.0) if w > 0.0 else 0.0
    if not (log_psi < math.log(RUNAWAY_GROWTH)
            and math.exp(log_psi) * trace[1][0] < run.blowup_threshold):
        return None
    return w


def cell_evidence(run: RunSpec, rungs: list, traces: dict | None = None) -> tuple:
    """Every linear reading of a point on ``rungs`` (``_rungs``'s list), as the
    module docstring sets out: each rung's ``_rules_out_blowup`` value, and the
    PhasePoint that the point gets when no rung decides it, with
    ``point_criteria``'s columns at the first horizon.  ``traces`` is passed
    on to ``linear_trace``.
    """
    traces = {} if traces is None else traces
    final_horizon = rungs[-1][0]
    kernel = kernel_bound(run, final_horizon)
    basis = "" if kernel is None else " (kernel bound)"
    try:
        report = point_criteria(run, rungs[0][0], traces)
    except (ConfigError, NumericError):
        report = None

    # zero data are witnessed trivially; others read the final horizon's trace
    trace, witness, subcritical = None, 0.0, ""
    if run.config(*rungs[0]).u0.sup() > 0.0:
        witness, subcritical = None, _subcritical(run)
        try:
            trace = (linear_trace(run, *rungs[-1], traces) if kernel is None
                     else kernel.trace(final_horizon))
            if not subcritical:
                witness = (evaluate_criteria(trace, list(run.forcings), run.weight).witness
                           if kernel is None else kernel.witness(run.forcings, final_horizon))
        except (ConfigError, NumericError):
            pass
    bounds = tuple(None if trace is None else _rules_out_blowup(run, trace, horizon)
                   for horizon, _ in rungs)

    witnessed = witness is not None and witness < 1.0
    if witnessed:
        reason = f"global witness (m-1)*I = {witness:.3g} < 1{basis}"
    else:
        reason = (f"subcritical: {subcritical}; horizon too short" if subcritical
                  else "no global witness")
        if bounds[-1] is not None:
            reason += (f"; no blow-up before {final_horizon:.3g}: "
                       f"(m-1)*I(T) = {bounds[-1]:.3g} < 1{basis}")
    return bounds, PhasePoint((), "GlobalLike" if witnessed else "Undetermined", None,
                              final_horizon, report.smallness_index if report else None,
                              report.certificate_tau if report else None, reason)


def classify_point(run: RunSpec, escalation, evidence: tuple | None = None) -> PhasePoint:
    """Climb the rungs: one that ``evidence`` rules out is not simulated, and
    one that blows up or fails decides the point.  Once a rung completes, or
    every rung is ruled out, the point is the one ``evidence`` settles:
    GlobalLike when witnessed, else Undetermined.

    ``evidence`` is ``cell_evidence``'s for ``_rungs(run, escalation)``;
    without it the call reads its own.
    """
    rungs = _rungs(run, escalation)
    if not rungs:
        raise ConfigError("escalation ladder is empty")
    bounds, settled = cell_evidence(run, rungs) if evidence is None else evidence
    for (horizon, grid), bound in zip(rungs, bounds):
        if bound is not None:
            continue
        try:
            result = simulate(run.config(horizon, grid), masses=False)
        except NumericError as exc:
            return replace(settled, classification="Undetermined", horizon=horizon,
                           reason=f"numeric failure: {exc}")
        if result.blew_up:
            return replace(settled, classification="BlowUp", t_star=result.t_star,
                           horizon=horizon, reason="")
        if settled.classification == "GlobalLike":
            break
    return replace(settled)


def apply_axis(run: RunSpec, name: str, value: float) -> RunSpec:
    """Move one sweep axis: nonlinearity powers, profile exponents, alpha, amplitude."""
    if name == "alpha":
        return replace(run, weight=replace(run.weight, alpha=float(value)))
    if name == "amplitude":
        return replace(run, profile=run.profile.scaled(float(value)))
    if name in ("p", "q", "r", "s"):
        kind = "power" if name in ("p", "r") else "log_power"
        if not any(term.nonlinearity.kind == kind for term in run.forcings):
            raise ConfigError(f"axis {name!r} has no matching forcing term")
        terms = []
        for term in run.forcings:
            if term.nonlinearity.kind == kind:
                if name in ("p", "q"):
                    term = replace(term, nonlinearity=Nonlinearity(kind, float(value)))
                else:
                    term = replace(term, profile=replace(term.profile, exponent=float(value)))
            terms.append(term)
        return replace(run, forcings=tuple(terms))
    raise ConfigError(f"unknown sweep axis {name!r}; valid axes: {AXIS_NAMES}")


@dataclass(frozen=True)
class SweepSpec:
    base: RunSpec
    axes: tuple               # 1 or 2 entries of (name, values)
    escalation: tuple = field(default_factory=default_escalation)

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError("a sweep needs 1 or 2 axes")
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"sweep axes must differ, got {names}")
        for name, values in self.axes:
            if name not in AXIS_NAMES:
                raise ConfigError(f"unknown sweep axis {name!r}")
            vals = list(values)
            if not vals:
                raise ConfigError(f"axis {name!r} needs at least one value")
            if not all(map(math.isfinite, vals)):
                raise ConfigError(f"axis {name!r} values must be finite")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ConfigError(f"axis {name!r} grid must be strictly increasing")
        horizons = [lv.horizon for lv in self.escalation]
        if not horizons or any(b <= a for a, b in zip(horizons, horizons[1:])):
            raise ConfigError("escalation horizons must be strictly increasing")
        for h, grid in _rungs(self.base, self.escalation):
            if not 0.0 < h < math.inf:
                raise ConfigError(f"escalation horizons must be finite and positive, got {h}")
            grid.check_weight(self.base.weight)

    def points(self):
        """Deterministically ordered (axis_values, run) pairs, last axis fastest."""
        names = [name for name, _ in self.axes]
        for values in itertools.product(*(vals for _, vals in self.axes)):
            run = self.base
            for name, value in zip(names, values):
                run = apply_axis(run, name, value)
            yield values, run


def _eval_point(job):
    values, run, escalation, evidence = job
    try:
        if isinstance(evidence, ConfigError):
            raise evidence
        point = classify_point(run, escalation, evidence)
    except ConfigError as exc:
        point = PhasePoint((), "Undetermined", None,
                           escalation[-1].horizon, None, None, f"config error: {exc}")
    point.axis_values = values
    return point


def run_sweep(spec: SweepSpec, worker_count: int = 1):
    """Evaluate every grid point in ``points`` order, whatever the worker count.

    Every cell's ``cell_evidence`` is read in process first, with one table of
    unit traces not kept past the call; each job carries its cell's evidence,
    or the ``ConfigError`` its reading raised, so a map runs source rungs
    only.  A pool starts all its workers at once, so it gets at most one per
    point; one worker or one point maps in process.
    """
    traces, jobs = {}, []
    for values, run in spec.points():
        try:
            evidence = cell_evidence(run, _rungs(run, spec.escalation), traces)
        except ConfigError as exc:
            evidence = exc
        jobs.append((values, run, spec.escalation, evidence))
    worker_count = min(worker_count, len(jobs))
    if worker_count <= 1:
        return list(map(_eval_point, jobs))
    # imported here, its only use: the pool loads multiprocessing, which a
    # serial sweep does not need
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=worker_count) as pool:
        return list(pool.map(_eval_point, jobs))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.10g}"


def points_to_csv(points) -> str:
    lines = ["axis1,axis2,classification,t_star,horizon,index_I,certificate_tau"]
    for pt in points:
        ax1 = _fmt(pt.axis_values[0]) if pt.axis_values else ""
        ax2 = _fmt(pt.axis_values[1]) if len(pt.axis_values) > 1 else ""
        lines.append(",".join([ax1, ax2, pt.classification, _fmt(pt.t_star),
                               _fmt(pt.horizon), _fmt(pt.index_I),
                               _fmt(pt.certificate_tau)]))
    return "\n".join(lines) + "\n"


_CLASS_COLORS = {"BlowUp": "#c0392b", "GlobalLike": "#2d72b8", "Undetermined": "#95a5a6"}
# SVG layout in pixels: the side of one sweep cell, and the margin around the map
_CELL = 40
_PAD = 60


def sweep_svg(spec: SweepSpec, points) -> str:
    """Axis-aligned classification heat map with the analytic boundary overlay."""
    name1, vals1 = spec.axes[0]
    vals1 = list(vals1)
    if len(spec.axes) == 2:
        name2, vals2 = spec.axes[1]
        vals2 = list(vals2)
    else:
        name2, vals2 = "", [0.0]
    cell, pad = _CELL, _PAD
    width = pad * 2 + cell * len(vals1)
    height = pad * 2 + cell * len(vals2)
    rows = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    rows.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    grid = {pt.axis_values: pt for pt in points}
    for i, v1 in enumerate(vals1):
        for j, v2 in enumerate(vals2):
            key = (v1, v2) if len(spec.axes) == 2 else (v1,)
            pt = grid.get(key)
            color = _CLASS_COLORS.get(pt.classification if pt else "", "#ffffff")
            x = pad + i * cell
            y = pad + (len(vals2) - 1 - j) * cell
            rows.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                        f'fill="{color}" stroke="black"/>')
    for i, v1 in enumerate(vals1):
        rows.append(f'<text x="{pad + i * cell + cell / 2}" y="{height - pad / 2}" '
                    f'font-size="11" text-anchor="middle">{v1:g}</text>')
    for j, v2 in enumerate(vals2):
        if name2:
            rows.append(f'<text x="{pad / 2}" y="{pad + (len(vals2) - 1 - j) * cell + cell / 2}" '
                        f'font-size="11" text-anchor="middle">{v2:g}</text>')
    boundary = _axis_boundary(spec, name1, vals1)
    if boundary is not None:
        rows.append(f'<line x1="{boundary}" y1="{pad}" x2="{boundary}" '
                    f'y2="{height - pad}" stroke="black" stroke-width="2" '
                    f'stroke-dasharray="6,4"/>')
    rows.append(f'<text x="{width / 2}" y="{pad / 3}" font-size="13" '
                f'text-anchor="middle">{name1}{" x " + name2 if name2 else ""} sweep</text>')
    rows.append("</svg>")
    return "\n".join(rows) + "\n"


def _axis_boundary(spec: SweepSpec, name1: str, vals1):
    """Pixel x of the analytic critical value on the first axis, if crossed."""
    if name1 not in ("p", "q"):
        return None
    _, _, r, s = family_exponents(spec.base.forcings)
    p_star, q_star = fujita_exponents(spec.base.weight.alpha, spec.base.weight.dim, r, s)
    target = p_star if name1 == "p" else q_star
    if not vals1[0] <= target <= vals1[-1]:
        return None
    centers = [_PAD + i * _CELL + _CELL / 2 for i in range(len(vals1))]
    return float(np.interp(target, vals1, centers))
