"""Inputs, operations and correctness gates of the benchmark workloads.

Every input is made from the workload seed.  Seed 0 reproduces the acceptance
configurations exactly (criteria 3, 4, 6 and 11).  Other seeds jitter each
sweep amplitude within +-0.2 decade and draw each probe time log-uniformly
inside its own geometric bin of the criterion's time range, so the range, the
order and every tabled verdict and tolerance still apply.

A workload runs in rounds.  A round is one pass over all of the seed's inputs:
one pass over both criterion-6 sweeps, the 8 kernel probes, or the 3 decay
fits.  An operation (op) is what one timing sample covers: a sweep pass, one
``kernel_column`` call, or one fitted decay exponent.  The sweep workload also
runs pooled passes in its traced runs (criterion 11).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from degenheat import cli, criteria, lab, semigroup
from degenheat.grids import Geometry, GridSpec, InitialProfile
from degenheat.weight import WeightCase, WeightSpec

AMPLITUDES = (1e-3, 1e-1, 1.0, 10.0, 1e3)
AMP_JITTER_DECADES = 0.2
# (alpha, p values, escalation rungs as (horizon, extent, nodes)), criterion 6
SWEEPS = (
    (0.0, (2.0, 4.0), ((10.0, 100.0, 1601), (1e3, 600.0, 4801), (1e5, 4000.0, 16001))),
    (0.5, (2.2, 3.5), ((10.0, 100.0, 1601), (1e3, 1000.0, 4001), (1e5, 5000.0, 20001))),
)
# criterion-6 table: (alpha, p, amplitude index) -> required classification
TABLE = {
    **{(0.0, 2.0, j): "BlowUp" for j in range(4)},
    (0.0, 4.0, 0): "GlobalLike",
    (0.0, 4.0, 4): "BlowUp",
    **{(0.5, 2.2, j): "BlowUp" for j in (1, 2, 3)},
    (0.5, 3.5, 0): "GlobalLike",
    (0.5, 3.5, 4): "BlowUp",
}

PROBE_ALPHA = 0.5
KERNEL = dict(extent=40.0, nodes=2001, tol=1e-6, t_range=(0.5, 5.0), count=8,
              slope_tol=0.05)
DECAY = dict(extent=4000.0, nodes=12001, tol=1e-5, t_range=(4e3, 4.8e4), count=12,
             rhos=(0.25, 0.5, 0.75), theta_tol=0.07)

NAMES = ("fujita_sweep", "kernel_probe", "decay_probe")
POOL_WORKERS = 2


class HarnessError(RuntimeError):
    """The benchmark could not check an output: the run is not correct."""


def stratified_times(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """``geomspace(lo, hi, count)`` for seed 0; else one log-uniform draw per bin."""
    if rng is None:
        return np.geomspace(lo, hi, count)
    base = np.clip(np.arange(count) + rng.uniform(-0.5, 0.5, count), 0.0, count - 1.0)
    return lo * (hi / lo) ** (base / (count - 1))


def _line(extent: float, nodes: int) -> GridSpec:
    return GridSpec(Geometry.LINE, extent, nodes)


def _axis_weight(alpha: float) -> WeightSpec:
    return WeightSpec(WeightCase.AXIS_POWER, alpha, 1)


def _sweep_config(alpha: float, p_values, amplitudes, rungs) -> dict:
    """The criterion-6 sweep as a ``degenheat sweep`` JSON config."""
    return {
        "weight": {"case": "axis_power", "alpha": alpha, "dim": 1},
        "grid": {"geometry": "line", "extent": rungs[0][1], "nodes": rungs[0][2]},
        "u0": {"kind": "gaussian", "amplitude": 1.0, "sigma": 5.0},
        "forcings": [{"profile": {"kind": "power", "exponent": 0.0},
                      "nonlinearity": {"kind": "power", "exponent": 2.0}}],
        "tol": 1e-2,
        "with_criteria": True,
        "axes": [{"name": "p", "values": list(p_values)},
                 {"name": "amplitude", "values": list(amplitudes)}],
        "escalation": [{"horizon": h, "grid": {"geometry": "line", "extent": e,
                                                "nodes": n}}
                       for h, e, n in rungs],
    }


# ---------------------------------------------------------------------------
# sweep workloads


@dataclass
class Sweep:
    alpha: float
    p_values: tuple
    amplitudes: tuple
    config: Path
    csv: Path
    svg: Path


@dataclass
class SweepState:
    sweeps: list
    reasons: list = field(default_factory=list)     # classify_point reasons, call order
    reference: list = field(default_factory=list)   # serial (rows, numeric flags) per sweep


def setup_sweeps(seed: int, workdir: Path) -> SweepState:
    rng = np.random.default_rng(seed) if seed else None
    sweeps = []
    for k, (alpha, p_values, rungs) in enumerate(SWEEPS):
        amps = np.array(AMPLITUDES)
        if rng is not None:
            amps = amps * 10.0 ** rng.uniform(-AMP_JITTER_DECADES, AMP_JITTER_DECADES,
                                              amps.size)
        sweep = Sweep(alpha, p_values, tuple(float(a) for a in amps),
                      workdir / f"sweep{k}.json", workdir / f"sweep{k}.csv",
                      workdir / f"sweep{k}.svg")
        sweep.config.write_text(json.dumps(
            _sweep_config(alpha, p_values, sweep.amplitudes, rungs), indent=1))
        cli.parse_sweep_spec(json.loads(sweep.config.read_text()))
        sweeps.append(sweep)
    return SweepState(sweeps)


def watch_reasons(state: SweepState):
    """Rebind ``lab.classify_point`` to keep each point's reason (untimed).

    The CSV does not say whether a cell ended in numeric failure, so serial
    passes read it here, in call order, which is the CSV order.  A pooled pass
    runs it in worker processes, where the notes are lost; its rows are
    checked against the serial reference instead.  Returns the undo.
    """
    original = lab.classify_point

    def classify_point(*args, **kwargs):
        point = original(*args, **kwargs)
        state.reasons.append(point.reason)
        return point

    lab.classify_point = classify_point

    def undo():
        lab.classify_point = original
    return undo


def _sweep_rows(sweep: Sweep) -> list:
    lines = sweep.csv.read_text().splitlines()
    if not lines or lines[0] != "axis1,axis2,classification,t_star,horizon,index_I,certificate_tau":
        raise HarnessError(f"{sweep.csv.name}: unexpected CSV header")
    rows = [line.split(",") for line in lines[1:]]
    expected = [(f"{p:.10g}", f"{a:.10g}") for p in sweep.p_values for a in sweep.amplitudes]
    if [tuple(r[:2]) for r in rows] != expected:
        raise HarnessError(f"{sweep.csv.name}: rows do not match the sweep axes")
    return rows


def _gate_cells(sweep: Sweep, rows, numeric, reference) -> list:
    """One flag per cell: True when the cell passes every sweep gate."""
    p_star = 1.0 + (2.0 - sweep.alpha)     # r = 0, N = 1
    n_amp = len(sweep.amplitudes)
    ok = []
    for i, p in enumerate(sweep.p_values):
        seen_blowup = False
        for j in range(n_amp):
            k = i * n_amp + j
            cls = rows[k][2]
            good = TABLE.get((sweep.alpha, p, j), cls) == cls
            good &= not (seen_blowup and cls != "BlowUp")   # upward closed in amplitude
            good &= not (cls == "GlobalLike" and p <= p_star)
            good &= not numeric[k]
            if reference is not None:
                good &= rows[k] == reference[k]
            seen_blowup |= cls == "BlowUp"
            ok.append(good)
    return ok


def sweep_pass(state: SweepState, workers: int, clock) -> list:
    """One pass over both sweeps through ``degenheat.cli.main``; one flag per cell.

    A pooled pass (``workers`` > 1) must reproduce the serial reference rows
    byte for byte (criterion 11), so a serial pass has to come first.
    """
    state.reasons.clear()
    with clock.op():
        for sweep in state.sweeps:
            code = cli.main(["sweep", "--config", str(sweep.config), "--out", str(sweep.csv),
                             "--svg", str(sweep.svg), "--workers", str(workers)])
            if code != 0:
                raise HarnessError(f"degenheat sweep exited with {code}")
    rows = [_sweep_rows(sweep) for sweep in state.sweeps]
    if workers == 1:
        if len(state.reasons) != sum(map(len, rows)):
            raise HarnessError("classify_point calls do not match the sweep cells")
        numeric, at = [], 0
        for r in rows:
            numeric.append([why.startswith("numeric failure")
                            for why in state.reasons[at:at + len(r)]])
            at += len(r)
        state.reference = list(zip(rows, numeric))
        checks = [(r, n, None) for r, n in state.reference]
    else:
        if not state.reference:
            raise HarnessError("a pooled pass needs a serial reference pass first")
        checks = [(r, ref_n, ref_r) for r, (ref_r, ref_n) in zip(rows, state.reference)]
    flags = []
    for sweep, (r, numeric, reference) in zip(state.sweeps, checks):
        flags += _gate_cells(sweep, r, numeric, reference)
    return flags


# ---------------------------------------------------------------------------
# probe workloads


@dataclass
class KernelState:
    op: object
    center: int
    times: np.ndarray


def setup_kernel(seed: int) -> KernelState:
    rng = np.random.default_rng(seed) if seed else None
    grid = _line(KERNEL["extent"], KERNEL["nodes"])
    op = semigroup.build_operator(grid, _axis_weight(PROBE_ALPHA))
    return KernelState(op, grid.nodes // 2,
                       stratified_times(rng, *KERNEL["t_range"], KERNEL["count"]))


def kernel_round(state: KernelState, clock) -> list:
    """Criterion-3 probes at every time, each from a unit spike; one flag per probe.

    The on-diagonal decay slope over the round must lie within 0.05 of
    -1/(2-alpha); if it does not, every probe of the round fails.
    """
    sups = []
    for t in state.times:
        with clock.op():
            probe = semigroup.kernel_column(state.op, state.center, float(t),
                                            tol=KERNEL["tol"])
        sups.append(probe.sup())
    sups = np.array(sups)
    flags = [bool(math.isfinite(s) and s > 0.0) for s in sups]
    if all(flags):
        slope = float(np.polyfit(np.log(state.times), np.log(sups), 1)[0])
        if abs(slope + 1.0 / (2.0 - PROBE_ALPHA)) > KERNEL["slope_tol"]:
            flags = [False] * len(flags)
    return flags


@dataclass
class DecayState:
    op: object
    fields: list       # (rho, initial field)
    times: np.ndarray


def setup_decay(seed: int) -> DecayState:
    rng = np.random.default_rng(seed) if seed else None
    grid = _line(DECAY["extent"], DECAY["nodes"])
    op = semigroup.build_operator(grid, _axis_weight(PROBE_ALPHA))
    fields = [(rho, InitialProfile("power_tail", 1.0, rho=rho).realize(grid))
              for rho in DECAY["rhos"]]
    return DecayState(op, fields, stratified_times(rng, *DECAY["t_range"], DECAY["count"]))


def decay_round(state: DecayState, clock) -> list:
    """Criterion-4 fits: chained semigroup steps, then ``decay_fit``; one flag per fit."""
    flags = []
    for rho, u0 in state.fields:
        with clock.op():
            field_t, prev, sups = u0, 0.0, []
            for t in state.times:
                field_t = semigroup.apply_semigroup(state.op, field_t, float(t) - prev,
                                                    tol=DECAY["tol"])
                prev = float(t)
                sups.append(field_t.sup())
            env = criteria.decay_fit((state.times, np.array(sups)), DECAY["t_range"])
        flags.append(abs(env.theta - rho / (2.0 - PROBE_ALPHA)) <= DECAY["theta_tol"])
    return flags


# ---------------------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path):
    """Generate and parse the inputs and build the operators the ops reuse."""
    if name == "fujita_sweep":
        return setup_sweeps(seed, workdir)
    if name == "kernel_probe":
        return setup_kernel(seed)
    if name == "decay_probe":
        return setup_decay(seed)
    raise ValueError(f"unknown workload {name!r}")


def warm_up(name: str, state):
    """One untimed op, so first-call costs stay out of the samples.  For the
    sweep it is a serial pass, which a pooled pass takes as its reference."""
    if name == "fujita_sweep":
        sweep_pass(state, 1, Clock())
    elif name == "kernel_probe":
        semigroup.kernel_column(state.op, state.center, float(state.times[0]),
                                tol=KERNEL["tol"])
    else:
        semigroup.apply_semigroup(state.op, state.fields[0][1], float(state.times[0]),
                                  tol=DECAY["tol"])


def run_round(name: str, state, clock) -> list:
    """One round of the workload, serial; one flag per op (per cell for the sweep)."""
    if name == "fujita_sweep":
        return sweep_pass(state, 1, clock)
    if name == "kernel_probe":
        return kernel_round(state, clock)
    return decay_round(state, clock)


class Clock:
    """Wall time per op; with a tracer, each op is also a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = []
        self.op_ids = []

    @contextmanager
    def op(self):
        span = self.tracer.begin_op() if self.tracer is not None else None
        t0 = perf_counter()
        try:
            yield
        finally:
            self.samples.append(perf_counter() - t0)
            if span is not None:
                self.op_ids.append(self.tracer.end_op(span))
