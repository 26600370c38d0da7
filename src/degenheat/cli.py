"""Command-line front end: simulate, sweep, criteria, kernel-probe, decay-probe.

Exit codes: 0 success, 2 configuration error, 3 numeric failure in single-run
mode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import criteria as crit
from .dynamics import ForcingTerm, Nonlinearity, TimeProfile, simulate
from .errors import ConfigError, NumericError
from .grids import Geometry, GridSpec, InitialProfile
from .lab import (EscalationLevel, RunSpec, SweepSpec, default_escalation,
                  kernel_bound, linear_trace, points_to_csv, run_sweep, sweep_svg)
from .semigroup import apply_semigroup, build_operator, kernel_column
from .weight import WeightCase, WeightSpec


def _integer(key: str, value) -> int:
    """A config's integer field: 1601 and 1601.0 pass, where int() would
    truncate 41.7 to 41 and read true as 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def parse_weight(obj: dict) -> WeightSpec:
    return WeightSpec(WeightCase(obj["case"]), float(obj["alpha"]),
                      _integer("dim", obj.get("dim", 1)))


def parse_grid(obj: dict) -> GridSpec:
    return GridSpec(Geometry(obj["geometry"]), float(obj["extent"]),
                    _integer("nodes", obj["nodes"]), _integer("dim", obj.get("dim", 1)))


def parse_profile(obj: dict) -> TimeProfile:
    kind = obj["kind"]
    if kind == "power":
        return TimeProfile.power(float(obj["exponent"]))
    if kind == "constant":
        return TimeProfile.constant(float(obj.get("value", 1.0)))
    if kind == "zero":
        return TimeProfile.zero()
    raise ConfigError(f"unknown time profile kind {kind!r}")


def parse_forcings(items) -> tuple:
    out = []
    for obj in items:
        nl = obj["nonlinearity"]
        out.append(ForcingTerm(parse_profile(obj["profile"]),
                               Nonlinearity(nl["kind"], float(nl["exponent"]))))
    return tuple(out)


def parse_initial(obj: dict) -> InitialProfile:
    return InitialProfile(obj["kind"], float(obj.get("amplitude", 1.0)),
                          float(obj.get("sigma", 1.0)), float(obj.get("rho", 0.5)))


def parse_run_spec(obj: dict, tol: float = 1e-2) -> RunSpec:
    """Run spec of a config; ``tol`` is the default when the config has none."""
    return RunSpec(
        weight=parse_weight(obj["weight"]),
        grid=parse_grid(obj["grid"]),
        forcings=parse_forcings(obj.get("forcings", [])),
        profile=parse_initial(obj["u0"]),
        blowup_threshold=float(obj.get("blowup_threshold", 1e8)),
        tol=float(obj.get("tol", tol)),
        diffusionless=obj.get("diffusionless", False),
    )


def parse_sweep_spec(obj: dict) -> SweepSpec:
    axes = tuple((ax["name"], list(map(float, ax["values"]))) for ax in obj["axes"])
    if "escalation" in obj:
        escalation = tuple(
            EscalationLevel(float(lv["horizon"]),
                            parse_grid(lv["grid"]) if "grid" in lv else None)
            for lv in obj["escalation"])
    else:
        escalation = default_escalation()
    return SweepSpec(parse_run_spec(obj), axes, escalation)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    obj = _load(args.config)
    result = simulate(parse_run_spec(obj, tol=1e-3).config(float(obj["horizon"])))
    text = result.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"sweep needs --workers >= 1, got {args.workers}")
    spec = parse_sweep_spec(_load(args.config))
    points = run_sweep(spec, worker_count=args.workers)
    csv_text = points_to_csv(points)
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(sweep_svg(spec, points))
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_criteria(args) -> int:
    obj = _load(args.config)
    run = parse_run_spec(obj, tol=1e-3)
    horizon = float(obj.get("horizon", 100.0))
    trace = linear_trace(run, horizon, run.grid)
    report = crit.evaluate(trace, list(run.forcings), run.weight)
    witness_t = crit.horizon_witness(trace, run.forcings, horizon)

    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, float) and math.isinf(v):
            return "divergent"
        return f"{v:.6g}"

    # labels pad to 22 columns and always keep one space before the value
    print(f"{'verdict':<21} {report.verdict}")
    print(f"{'smallness index I':<21} {fmt(report.smallness_index)}")
    print(f"{'global witness':<21} {fmt(report.witness)}")
    print(f"{'witness to horizon':<21} {fmt(witness_t)}")
    # the kernel bound's witnesses, as a sweep cell reads them
    kernel = kernel_bound(run, horizon)
    if kernel is not None:
        print(f"{'kernel t0, A':<21} {fmt(kernel.t0)}, {fmt(kernel.constant)}")
        print(f"{'kernel witness':<21} {fmt(kernel.witness(run.forcings, horizon))}")
        print(f"{'kernel witness to horizon':<21} "
              f"{fmt(crit.horizon_witness(kernel.trace(horizon), run.forcings, horizon))}")
    print(f"{'certificate tau':<21} {fmt(report.certificate_tau)}")
    print(f"{'p_star':<21} {fmt(report.p_star)}")
    print(f"{'q_star':<21} {fmt(report.q_star)}")
    print(f"{'rho_star':<21} {fmt(report.rho_star)}")
    if report.envelope:
        print(f"{'decay theta':<21} {report.envelope.theta:.4f} "
              f"(residual {report.envelope.residual:.2e})")
    for name, tail in report.osgood_tails.items():
        print(f"{'osgood tail ' + name:<21} {fmt(tail)}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def cmd_kernel_probe(args) -> int:
    times = sorted(float(v) for v in args.times.split(","))
    # "not <" tests, so that NaN fails; equal times would make the slope fit singular
    if not all(0.0 < t < math.inf for t in times) or len(set(times)) < len(times):
        raise ConfigError(f"kernel-probe needs finite, positive, distinct probe times, "
                          f"got {args.times}")
    weight = WeightSpec(WeightCase.AXIS_POWER, args.alpha, 1)
    grid = GridSpec(Geometry.LINE, args.extent, args.nodes)
    op = build_operator(grid, weight)
    center = grid.nodes // 2
    rows = []
    for t in times:
        probe = kernel_column(op, center, t, tol=args.tol)
        rows.append((t, probe.values[center], probe.mass()))
    lines = ["t,sup_value,mass,slope_window_estimate"]
    for i, (t, sup, mass) in enumerate(rows):
        if i >= 2:
            ts = np.log([r[0] for r in rows[: i + 1]])
            vs = np.log([r[1] for r in rows[: i + 1]])
            slope = f"{np.polyfit(ts, vs, 1)[0]:.10g}"
        else:
            slope = ""
        lines.append(f"{t:.10g},{sup:.10g},{mass:.10g},{slope}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_decay_probe(args) -> int:
    # "not <" tests, so that NaN fails
    if not 0.0 < args.t_min < args.t_max < math.inf:
        raise ConfigError(f"decay-probe needs 0 < --t-min < --t-max < inf, "
                          f"got --t-min {args.t_min} --t-max {args.t_max}")
    if args.samples < 3:
        raise ConfigError(f"decay-probe needs --samples >= 3, got {args.samples}")
    weight = WeightSpec(WeightCase.AXIS_POWER, args.alpha, 1)
    grid = GridSpec(Geometry.LINE, args.extent, args.nodes)
    op = build_operator(grid, weight)
    u0 = InitialProfile("power_tail", 1.0, rho=args.rho).realize(grid)
    times = np.geomspace(args.t_min, args.t_max, args.samples)
    sups = []
    state = u0
    prev_t = 0.0
    for t in times:
        state = apply_semigroup(op, state, t - prev_t, tol=args.tol)
        prev_t = t
        sups.append(state.sup())
    envelope = crit.decay_fit((times, np.array(sups)), (args.t_min, args.t_max))
    predicted = args.rho / (2.0 - args.alpha)
    print(f"fitted theta    {envelope.theta:.4f}")
    print(f"predicted theta {predicted:.4f}  (rho/(2-alpha))")
    print(f"residual        {envelope.residual:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenheat",
        description="Simulation lab for the degenerate semilinear heat equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep, emit CSV (and SVG)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("criteria", help="evaluate the analytic criteria for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("kernel-probe", help="probe the on-diagonal kernel decay")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--times", required=True, help="comma-separated probe times")
    p.add_argument("--nodes", type=int, default=801)
    p.add_argument("--extent", type=float, default=12.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel_probe)

    p = sub.add_parser("decay-probe", help="fit the sup-norm decay of slow data")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--nodes", type=int, default=2001)
    p.add_argument("--extent", type=float, default=120.0)
    p.add_argument("--t-min", type=float, default=5.0)
    p.add_argument("--t-max", type=float, default=80.0)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_decay_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, TypeError, ValueError) as exc:   # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
