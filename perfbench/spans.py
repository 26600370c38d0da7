"""Outside-in spans around degenheat's public entry points, and the per-layer
metrics derived from them.

The tracer rebinds module attributes and one method at run time and restores
them on ``uninstall``; nothing in the package is edited.  Each call becomes a
span ``[name, start, end, parent index, op id, detail]`` kept in memory and
written out by ``dump``.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP, DETAIL = range(6)

SIMULATE_GRIDS = (1601, 4001, 4801, 16001, 20001)
SOLVE_GRIDS = (1601, 2001, 4001, 4801, 12001, 16001, 20001)
# Work of one DiffusionOperator.solve_shifted call on M nodes, computed from M
# (not measured): assembling the 3-row band is 4 flops per node and LAPACK
# dgtsv without pivoting 10 more; the arrays streamed are the band (zeroed,
# filled, checked, copied for LAPACK), the right-hand side (checked, copied)
# and the solver's own read and write sweeps, about 41 doubles per node.
SOLVE_FLOPS_PER_NODE = 14
SOLVE_BYTES_PER_NODE = 41 * 8

# every per-layer metric as (name, unit, better); setup.* come from run.py
LAYER_METRICS = [
    ("setup.import_s", "s", "lower"), ("setup.build_s", "s", "lower"),
    ("cli.main_s", "s", "lower"), ("cli.self_s", "s", "lower"),
    ("lab.run_sweep_s", "s", "lower"), ("lab.classify_calls", "count", "lower"),
    ("lab.classify_s_p50", "s", "lower"), ("lab.classify_s_max", "s", "lower"),
    ("lab.rungs_per_cell", "count", "lower"), ("lab.point_criteria_s", "s", "lower"),
    ("lab.pool_efficiency", "ratio", "higher"),
    ("lab.verdict.BlowUp", "count", "higher"), ("lab.verdict.GlobalLike", "count", "higher"),
    ("lab.verdict.Undetermined", "count", "lower"),
    ("dynamics.simulate_calls", "count", "lower"), ("dynamics.simulate_s", "s", "lower"),
    ("dynamics.self_s", "s", "lower"), ("dynamics.steps_accepted", "count", "lower"),
    ("dynamics.solve_attempts", "count", "lower"), ("dynamics.accept_ratio", "ratio", "higher"),
    ("dynamics.us_per_step", "us", "lower"),
    *((f"dynamics.simulate_s.m{m}", "s", "lower") for m in SIMULATE_GRIDS),
    ("semigroup.solve_calls", "count", "lower"), ("semigroup.solve_s", "s", "lower"),
    *((f"semigroup.solve_us.m{m}", "us", "lower") for m in SOLVE_GRIDS),
    ("semigroup.solve_flops_computed", "flop", "lower"),
    ("semigroup.solve_bytes_computed", "B", "lower"),
    ("semigroup.build_operator_s", "s", "lower"),
    ("semigroup.solves_per_probe", "count", "lower"), ("semigroup.march_self_s", "s", "lower"),
    ("semigroup.solves_per_fit", "count", "lower"),
    ("criteria.evaluate_s", "s", "lower"), ("criteria.decay_fit_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def entry_points(cli, lab, dynamics, semigroup, criteria) -> list:
    """(owner, attribute, span name, detail function) for every traced boundary.

    Attributes are rebound where the caller looks them up: ``cli.run_sweep`` is
    ``lab.run_sweep`` as the CLI imported it, and ``lab.simulate`` is
    ``dynamics.simulate`` as ``lab`` imported it.
    """
    return [
        (cli, "main", "cli.main", None),
        (cli, "run_sweep", "lab.run_sweep", None),
        (lab, "classify_point", "lab.classify_point",
         lambda args, out: (out.classification, out.reason)),
        (lab, "point_criteria", "lab.point_criteria", None),
        (lab, "simulate", "dynamics.simulate",
         lambda args, out: (args[0].grid.nodes, out.step_count)),
        (lab, "evaluate_criteria", "criteria.evaluate", None),
        (criteria, "decay_fit", "criteria.decay_fit", None),
        (dynamics, "build_operator", "semigroup.build_operator", None),
        (semigroup, "build_operator", "semigroup.build_operator", None),
        (semigroup.DiffusionOperator, "solve_shifted", "semigroup.solve_shifted",
         lambda args, out: args[2].size),
        (semigroup, "apply_semigroup", "semigroup.apply_semigroup", None),
        (semigroup, "kernel_column", "semigroup.kernel_column", None),
    ]


def parent_side(points: list) -> list:
    """The entry points a pooled sweep reaches in the parent process."""
    return [p for p in points if p[2] in ("cli.main", "lab.run_sweep")]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._ops = 0
        self._saved = []

    def _wrap(self, original, name, detail):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if detail is not None:
                rec[DETAIL] = detail(args, out)
            return out
        return traced

    def install(self, points):
        for owner, attr, name, detail in points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, detail))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_op(self) -> list:
        """Open the benchmark's own root span for one operation."""
        self._op = self._ops
        self._ops += 1
        rec = ["bench.op", perf_counter(), 0.0, -1, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_op(self, rec: list) -> int:
        rec[END] = perf_counter()
        self._stack.pop()
        self._op = None
        return rec[OP]

    def dump(self, path: Path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list, traced_ops: set, pooled_ops: set, pool_workers: int) -> dict:
    """Per-layer figures from the spans of the traced ops.

    Totals are per op (a sweep pass, a kernel probe or a decay fit); ``_p50``,
    ``_max`` and the ``solve_us`` and ``build_operator_s`` figures are per call.
    ``pooled_ops`` are pooled sweep passes traced on the parent side only.
    ``lab.pool_efficiency`` is traced serial classify time per pass over
    ``pool_workers`` times the pooled ``run_sweep`` wall time.
    A layer that does no work on a workload reads 0.
    """
    n_ops = max(len(traced_ops), 1)
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]

    by_name: dict = {}
    builds = []
    for i, rec in enumerate(spans):
        if rec[NAME] == "semigroup.build_operator":
            builds.append(rec[END] - rec[START])
        if rec[OP] in traced_ops:
            by_name.setdefault(rec[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def self_total(name):
        return sum(dur(i) - child[i] for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def under(name, parent_name):
        return [i for i in by_name.get(name, ())
                if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent_name]

    m = {}
    m["cli.main_s"] = total("cli.main") / n_ops
    m["cli.self_s"] = self_total("cli.main") / n_ops
    m["lab.run_sweep_s"] = total("lab.run_sweep") / n_ops

    classify = by_name.get("lab.classify_point", [])
    m["lab.classify_calls"] = len(classify) / n_ops
    classify_s = [dur(i) for i in classify]
    m["lab.classify_s_p50"] = _median(classify_s)
    m["lab.classify_s_max"] = max(classify_s, default=0.0)
    rungs = under("dynamics.simulate", "lab.classify_point")
    m["lab.rungs_per_cell"] = len(rungs) / len(classify) if classify else 0.0
    m["lab.point_criteria_s"] = total("lab.point_criteria") / n_ops
    pooled_run_sweep_s = [rec[END] - rec[START] for rec in spans
                          if rec[OP] in pooled_ops and rec[NAME] == "lab.run_sweep"]
    if pooled_run_sweep_s and classify_s:
        m["lab.pool_efficiency"] = (sum(classify_s) / n_ops) / (
            pool_workers * _median(pooled_run_sweep_s))
    else:
        m["lab.pool_efficiency"] = 0.0
    for verdict in ("BlowUp", "GlobalLike", "Undetermined"):
        m[f"lab.verdict.{verdict}"] = sum(
            1 for i in classify if spans[i][DETAIL] and spans[i][DETAIL][0] == verdict) / n_ops

    simulate = by_name.get("dynamics.simulate", [])
    steps = sum(spans[i][DETAIL][1] for i in simulate if spans[i][DETAIL])
    attempts = len(under("semigroup.solve_shifted", "dynamics.simulate"))
    sim_s = total("dynamics.simulate")
    m["dynamics.simulate_calls"] = len(simulate) / n_ops
    m["dynamics.simulate_s"] = sim_s / n_ops
    m["dynamics.self_s"] = self_total("dynamics.simulate") / n_ops
    m["dynamics.steps_accepted"] = steps / n_ops
    m["dynamics.solve_attempts"] = attempts / n_ops
    m["dynamics.accept_ratio"] = steps / attempts if attempts else 0.0
    m["dynamics.us_per_step"] = 1e6 * sim_s / steps if steps else 0.0
    for nodes in SIMULATE_GRIDS:
        m[f"dynamics.simulate_s.m{nodes}"] = sum(
            dur(i) for i in simulate if spans[i][DETAIL] and spans[i][DETAIL][0] == nodes) / n_ops

    solves = by_name.get("semigroup.solve_shifted", [])
    m["semigroup.solve_calls"] = len(solves) / n_ops
    m["semigroup.solve_s"] = total("semigroup.solve_shifted") / n_ops
    per_grid: dict = {}
    for i in solves:
        per_grid.setdefault(spans[i][DETAIL], []).append(dur(i))
    for nodes in SOLVE_GRIDS:
        m[f"semigroup.solve_us.m{nodes}"] = 1e6 * _median(per_grid.get(nodes, []))
    nodes_solved = sum(spans[i][DETAIL] or 0 for i in solves)
    m["semigroup.solve_flops_computed"] = SOLVE_FLOPS_PER_NODE * nodes_solved / n_ops
    m["semigroup.solve_bytes_computed"] = SOLVE_BYTES_PER_NODE * nodes_solved / n_ops
    m["semigroup.build_operator_s"] = _median(builds)
    probes = count("semigroup.kernel_column")
    m["semigroup.solves_per_probe"] = len(solves) / probes if probes else 0.0
    m["semigroup.march_self_s"] = self_total("semigroup.apply_semigroup") / n_ops
    fits = len(under("criteria.decay_fit", "bench.op"))
    m["semigroup.solves_per_fit"] = len(solves) / fits if fits else 0.0

    m["criteria.evaluate_s"] = total("criteria.evaluate") / n_ops
    m["criteria.decay_fit_s"] = total("criteria.decay_fit") / n_ops
    return m
