"""Benchmark of the degenheat lab: end-to-end metrics, or per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the repository root; it imports the package from ``src/``.  A
single workload runs in fresh processes: four that only set up, then one that
sets up and measures.  ``setup_s`` is the median of the five set-ups.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``failed`` counts
ops whose output fails a correctness gate (see workloads.py); ``correct`` is
false when an output could not be checked at all.  ``all`` runs every
workload, untraced and traced, each in its own process, and prints every
metric with its unit and sample counts.  Spans of traced runs are written to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("fujita_sweep", "kernel_probe", "decay_probe")
SETUP_ONLY_RUNS = 4
TIMEOUT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_p90": "s",
                    "peak_rss_mb": "MB", "ops_ok_frac": "frac"}


def _worker(args: list) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only"]) for _ in range(SETUP_ONLY_RUNS)]
    res = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)])
    setups.append(res)
    import_s = statistics.median(s["import_s"] for s in setups)
    build_s = statistics.median(s["build_s"] for s in setups)
    setup_s = statistics.median(s["import_s"] + s["build_s"] for s in setups)
    if trace:
        values = {"setup.import_s": import_s, "setup.build_s": build_s, **res["layers"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS}
    else:
        values = {"setup_s": setup_s, "op_s_p50": res["op_s_p50"],
                  "op_s_p90": res["op_s_p90"], "peak_rss_mb": res["peak_rss_mb"],
                  "ops_ok_frac": 1.0 - res["failed"] / max(res["attempted"], 1)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "result": {"correct": res["error"] is None and res["attempted"] > 0,
                   "attempted": res["attempted"], "failed": res["failed"],
                   "metrics": metrics},
        "samples": {"setup": len(setups), "ops": len(res["op_samples"]),
                    "traced_ops": res.get("traced_ops", 0)},
        "versions": res["versions"],
        "error": res["error"],
        "setup_samples": [s["import_s"] + s["build_s"] for s in setups],
        "op_samples": res["op_samples"],
    }


def _report(workload: str, trace: int, run: dict):
    res = run["result"]
    print(f"== {workload} (trace {trace}): correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']} samples={run['samples']}")
    if run["error"]:
        print(f"   error: {run['error']}")
    for name, m in res["metrics"].items():
        print(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "degenheat" / "__init__.py").is_file():
        print(f"no degenheat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = environment()
    if args.workload != "all":
        run = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"environment": env, "versions": run["versions"],
                          "samples": run["samples"], "error": run["error"],
                          "setup_s": run["setup_samples"], "op_s": run["op_samples"]}))
        print(json.dumps(run["result"]))
        return 0

    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_one(workload, args.seed, args.seconds, trace)
            _report(workload, trace, run)
            summary[f"{workload}/trace{trace}"] = {**run["result"], "samples": run["samples"]}
    print(json.dumps({"environment": env, "versions": run["versions"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
