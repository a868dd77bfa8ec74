"""Benchmark entry point.

Run from the root of a checkout::

    python3 bench/run.py --workload dominance-ellipse --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's ``src``; without it the script
exits with code 2 and prints no result.  With ``--trace 0`` it runs
operations of the workload back to back for ``--seconds`` seconds (and
past that only while the pooled checks still lack samples), then prints
the end-to-end metrics.  With ``--trace 1`` it first runs a fixed number of
operation pairs, the first of each pair untraced and the second traced, so
that the traced counts repeat exactly for a seed, then untraced operations
until ``--seconds`` have passed; it prints the per-layer metrics and the
tracing overhead (median traced minus median untraced operation time).

Standard output ends with two JSON lines: the run record (machine,
versions, seeds, generated configs, timing details) and the result
``{"correct", "attempted", "failed", "metrics"}``.  Both, and the spans of
a traced run, are also written under ``.bench_run/`` in the checkout.
The exit code is 0 when every output check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPS = 3   # package imports and body/law/certificate builds per run
# A shared host's speed drifts by tens of percent over seconds to minutes,
# and a fixed-work workload drifts with it.  A fixed calibration loop runs
# between operations, and operation times are scaled to a host on which
# that loop takes CAL_NOMINAL_S (about its median on a 2-core x86_64 VM).
# Set-up is not scaled: import time did not follow the loop.  Raw times
# stay in the run record.
CAL_NOMINAL_S = 0.015
# operation pairs of a traced run, sized to fit in 25 s on two cores
TRACE_PAIRS = {"dominance-ellipse": 30, "chain-coupling-ellipse": 40,
               "process-coupling-disc": 5, "general-body-table": 70}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--control", action="store_true",
                    help="negative control: perturb the workload so that"
                         " its check must fail")
    return ap.parse_args(argv)


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    if len(v) < 11:
        return None
    k = len(v) - 11
    return {"value": v[k], "percentile": 100.0 * (k + 1) / len(v),
            "count": len(v)}


def calibrate() -> float:
    """Seconds one pass of the fixed calibration loop takes now.

    It is interpreted Python and numpy calls on tiny arrays, the kind of
    work whose speed tracked the workloads' best.  A loop over 50 000-float
    numpy arrays tracked them worse than no scaling at all.
    """
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    d = np.array([0.6, 0.8])
    for i in range(2_500):
        p = np.asarray((i * 1e-3, 0.5), dtype=float)
        acc += float(np.dot(p, d)) + math.hypot(p[0], p[1])
    return time.perf_counter() - t


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]);"
            " t = time.perf_counter(); import convexbilliards.cli;"
            " print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convexbilliards" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC.relative_to(ROOT)}; run"
              " from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import convexbilliards.cli  # noqa: F401  (imports every layer)
    import_times = [time.perf_counter() - t0]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if not args.trace:
            import_times += [time_import() for _ in range(SETUP_REPS - 1)]
        return run(args, out_dir, statistics.median(import_times))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(args, out_dir, import_s) -> int:
    import numpy as np
    import scipy

    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir,
                                           control=args.control)
    tracer = tracing.Tracer() if args.trace else None
    cals = [calibrate()]

    setup_times = []
    for _ in range(1 if tracer else SETUP_REPS):
        if tracer:
            tracer.install()
        t = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t)
        if tracer:
            tracer.remove()

    raw = {False: [], True: []}      # operation wall times, keyed by traced
    scaled = {False: [], True: []}   # the same, scaled by the calibration
    rates = {"replicas": [], "pair_steps": [], "bounces": []}
    failures = {}
    defect_hits = {}   # operations stopped by the workload's known defect
    check_failures = []
    attempted = 0
    pairs = TRACE_PAIRS[args.workload] if tracer else 0
    cals.append(calibrate())
    deadline = time.perf_counter() + args.seconds
    i = 0
    while (i < 2 * pairs or time.perf_counter() < deadline
           or wl.needs_more()):
        traced = i < 2 * pairs and i % 2 == 1
        inp = wl.inputs(i)
        if traced:
            tracer.op_id = i
            tracer.install()
        t = time.perf_counter()
        try:
            out = wl.run_op(inp)
        except Exception as exc:   # a failed operation; keep running
            out = exc
        finally:
            elapsed = time.perf_counter() - t
            if traced:
                tracer.remove()
        attempted += 1
        i += 1
        done = dict.fromkeys(rates, 0)   # a failed operation did no work
        if isinstance(out, Exception):
            kind = type(out).__name__
            count = defect_hits if wl.known_defect(out) else failures
            count[kind] = count.get(kind, 0) + 1
            if count[kind] == 1:
                traceback.print_exception(out, file=sys.stderr)
        else:
            failed, done = wl.check_op(inp, out)
            if failed:
                check_failures.append({"op": i - 1, "failed": failed})
                failures["check"] = failures.get("check", 0) + 1
                done = dict.fromkeys(rates, 0)
        # the host speed around this operation: calibrations before and after
        cals.append(calibrate())
        op_s = elapsed * CAL_NOMINAL_S / (0.5 * (cals[-2] + cals[-1]))
        raw[traced].append(elapsed)
        scaled[traced].append(op_s)
        for key, val in done.items():
            rates[key].append(val / op_s)
    try:
        run_failed = wl.check_run()
    except Exception as exc:   # e.g. too few samples for a pooled check
        run_failed = [f"pooled check raised {type(exc).__name__}: {exc}"]
    correct = not check_failures and not run_failed

    cal_s = statistics.median(cals)
    all_raw = raw[False] + raw[True]
    if tracer:
        metrics = tracer.layer_metrics()
        med_plain = statistics.median(scaled[False])
        med_traced = statistics.median(scaled[True])
        metrics["trace.overhead_s"] = med_traced - med_plain
        metrics["trace.overhead_frac"] = med_traced / med_plain - 1.0
        tracer.write(RUN_DIR / f"trace-{args.workload}.csv")
        units = _units("per_layer")
    else:
        metrics = {
            "run_s": statistics.median(scaled[False]),
            "setup_s": import_s + statistics.median(setup_times),
            "bounces_per_s": statistics.median(rates["bounces"]),
            "pair_steps_per_s": statistics.median(rates["pair_steps"]),
            "replicas_per_s": statistics.median(rates["replicas"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completed_ops_frac": 1.0 - (sum(failures.values())
                                         + sum(defect_hits.values()))
                                  / attempted,
        }
        units = _units("end_to_end")
    n_failed = sum(failures.values())
    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "trace": args.trace, "control": args.control,
        "machine": platform.machine(), "platform": platform.platform(),
        "processor": platform.processor(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config_op0": wl.config(0),
        "op_seeds": f"seed * 1000003 + i for i in 0..{attempted - 1}",
        "calibration_median_s": cal_s, "calibration_nominal_s": CAL_NOMINAL_S,
        "calibrations_s": cals,
        "import_s": import_s, "build_reps_s": setup_times,
        "ops": attempted, "raw_op_time_median_s": statistics.median(all_raw),
        "raw_op_time_tail_s": tail(all_raw),
        "raw_op_times_s": {"untraced": raw[False], "traced": raw[True]},
        "failed_by_kind": failures, "known_defect_hits": defect_hits,
        "check_failures": check_failures[:20],
        "run_check_failures": run_failed, "pooled": wl.pooled,
    }
    result = {"correct": correct, "attempted": attempted, "failed": n_failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units}}
    (RUN_DIR / f"result-{args.workload}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


def _units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
