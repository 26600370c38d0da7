"""One fresh process of the benchmark: set up a workload and, unless
``--setup-only``, measure it.  Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                                [--setup-only]

After one untimed warm-up op, rounds run back to back until ``--seconds``
have passed, and every untraced op is a timing sample.  Traced, an untraced
round and a traced round alternate, so the per-layer figures come from whole
traced rounds and the overhead is read from rounds of identical inputs.  The
sweep's traced cycle adds a pooled pass (2 workers) with parent-side spans
only; its rows must equal the serial pass's (criterion 11).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "lab", "dynamics", "semigroup", "criteria")


def _import_package() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    mods = {name: importlib.import_module(f"degenheat.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"degenheat was imported from {where}, not from {ROOT / 'src'}")
    return mods


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_import = perf_counter()
    mods = _import_package()
    import_s = perf_counter() - t_import

    import numpy
    import scipy

    import spans
    import workloads as wl

    name = args.workload
    if name not in wl.NAMES:
        raise SystemExit(f"unknown workload {name!r}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    tracer = spans.Tracer() if args.trace else None
    points = spans.entry_points(*(mods[m] for m in MODULES))
    try:
        if tracer is not None:
            tracer.install(points)
        t_build = perf_counter()
        state = wl.setup(name, args.seed, workdir)
        build_s = perf_counter() - t_build
        result = {"import_s": import_s, "build_s": build_s,
                  "versions": {"python": sys.version.split()[0],
                               "numpy": numpy.__version__, "scipy": scipy.__version__}}
        if tracer is not None:
            tracer.uninstall()
        if not args.setup_only:
            result.update(_measure(name, state, args, wl, spans, tracer, points))
            if tracer is not None:
                tracer.dump(out_dir / f"spans-{name}-seed{args.seed}.jsonl",
                            {"workload": name, "seed": args.seed, "fields": [
                                "name", "start", "end", "parent", "op", "detail"]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(name, state, args, wl, spans, tracer, points) -> dict:
    sweep = name == "fujita_sweep"
    undo = wl.watch_reasons(state) if sweep else (lambda: None)
    timed = wl.Clock()                     # untraced ops: the end-to-end samples
    traced = wl.Clock(tracer)
    pooled = wl.Clock(tracer)
    flags, error = [], None
    untraced_s = traced_s = 0.0            # paired rounds, for the overhead
    try:
        wl.warm_up(name, state)
        start = perf_counter()
        while True:
            n, m = len(timed.samples), len(traced.samples)
            flags += wl.run_round(name, state, timed)
            if tracer is not None:
                tracer.install(points)
                try:
                    flags += wl.run_round(name, state, traced)
                finally:
                    tracer.uninstall()
                untraced_s += sum(timed.samples[n:])
                traced_s += sum(traced.samples[m:])
                if sweep:
                    tracer.install(spans.parent_side(points))
                    try:
                        flags += wl.sweep_pass(state, wl.POOL_WORKERS, pooled)
                    finally:
                        tracer.uninstall()
            if perf_counter() - start >= args.seconds:
                break
    except wl.HarnessError as exc:
        error = str(exc)
    except Exception as exc:               # an op raised: the run cannot be checked
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    finally:
        undo()

    samples = timed.samples
    out = {
        "attempted": len(flags) + (1 if error else 0),
        "failed": flags.count(False) + (1 if error else 0),
        "error": error,
        "op_samples": samples,
        "op_s_p50": statistics.median(samples) if samples else 0.0,
        "op_s_p90": (statistics.quantiles(samples, n=10, method="inclusive")[-1]
                     if len(samples) > 1 else sum(samples)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["traced_ops"] = len(traced.samples)
        out["layers"] = spans.layer_metrics(tracer.spans, set(traced.op_ids),
                                            set(pooled.op_ids), wl.POOL_WORKERS)
        out["layers"]["trace.overhead_frac"] = (
            traced_s / untraced_s - 1.0 if untraced_s else 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
