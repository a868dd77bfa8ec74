"""In-process layer timings of the general body's bounce kernel.

Run from anywhere, naming the ``src`` directory of the checkout to time::

    python3 tools/layer_timeit.py --src path/to/checkout/src

It times, on the ``general-body-table`` workload's table (a
``CurvatureTable`` of ``Ellipse(2, 1)`` curvature at 1024 samples):

* one ``bounce`` at 16, 4096 and 25 000 chords (uniform starts, angles
  uniform on [-1.5, 1.5]);
* the workload's operation, ``run_chain_ensemble`` of 16 chains x 4
  bounces under ``uniform_half``;
* the table build.

Each figure is the median over ``REPEATS`` timeit repeats of the mean
time per call.  Only the package under ``--src`` is imported, so two
checkouts are compared by running the script once on each in turn,
alternating which goes first.  It prints one JSON object, in the form of
a ``BENCH_*.json`` ``layer_timeit`` entry for one side.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

ARC_SAMPLES = 1024
BATCH, STEPS = 16, 4
CHORDS = (16, 4096, 25_000)
REPEATS = 7


def _per_call(fn):
    """Median over ``REPEATS`` of the mean seconds per call of ``fn``, each
    repeat as many calls as ``timeit``'s autorange takes for 0.2 s."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(t / number
                             for t in timer.repeat(REPEATS, number))


def measure():
    from convexbilliards import dynamics, geometry, reflection

    ellipse = geometry.Ellipse(2.0, 1.0)
    s = np.arange(ARC_SAMPLES) * (ellipse.perimeter / ARC_SAMPLES)
    kappa = np.asarray(ellipse.curvature_at(s))
    body = geometry.CurvatureTable(s, kappa)
    law = reflection.law_from_config("uniform_half")

    out = {}
    gen = np.random.default_rng(21)
    for n in CHORDS:
        u = gen.uniform(0.0, body.perimeter, n)
        theta = gen.uniform(-1.5, 1.5, n)
        out[f"bounce_{n}_us"] = 1e6 * _per_call(
            lambda: body.bounce(u, theta))

    starts = gen.random(BATCH) * (0.125 * body.perimeter)

    def operation():
        g = np.random.Generator(np.random.Philox(key=[12, 1]))
        dynamics.run_chain_ensemble(body, law, starts, STEPS, g)

    out[f"ensemble_{BATCH}x{STEPS}_us"] = 1e6 * _per_call(operation)
    out["table_build_ms"] = 1e3 * _per_call(
        lambda: geometry.CurvatureTable(s, kappa))
    return {k: round(v, 2) for k, v in out.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, type=Path,
                    help="the src directory of the checkout to time")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not (src / "convexbilliards" / "__init__.py").is_file():
        ap.error(f"no convexbilliards package under {src}")
    sys.path.insert(0, str(src))
    record = {"python": platform.python_version(),
              "numpy": np.__version__, "machine": platform.machine(),
              "repeats": REPEATS, "timings": measure()}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
