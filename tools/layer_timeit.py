"""In-process layer timings of every body's bounce kernel and of the
chain and convex process couplings.

Run from anywhere, naming the ``src`` directory of the checkout to time::

    python3 tools/layer_timeit.py --src path/to/checkout/src

On ``Disc(1)``, ``Ellipse(2, 1)`` and the ``general-body-table``
workload's table (a ``CurvatureTable`` of ``Ellipse(2, 1)`` curvature at
1024 samples) it times:

* one ``bounce`` at 16 and 4096 chords, and on the table at 25 000 too
  (uniform starts, angles uniform on [-1.5, 1.5]);
* an untimed ``walk`` of 12 rows of 25 000 chords, run to its end, on
  angles drawn the same way;
* one scalar ``exit_ray`` from the interior origin ``EXIT_ORIGIN`` along
  ``EXIT_DIRECTION``;
* one scalar ``bisector_window_geometry`` for the boundary points at the
  arcs ``WINDOW_ARCS``, at ``PROCESS_PARAMS`` on the disc and at
  ``WINDOW_PARAMS`` on the others, where ``PROCESS_PARAMS`` leave no
  positive window slope h.

On the table it also times the workload's operation, ``run_chain_ensemble``
of 16 chains x 4 bounces under ``uniform_half``, and the table build.

It also times one ``couple_process_convex_batch`` run on ``Disc(1)`` per
seed of ``PROCESS_SEEDS``: ``uniform_half``, the ``convex_process_rate``
certificate at ``PROCESS_PARAMS`` for boundary points 0 and pi, the starts
``PROCESS_STARTS``, ``PROCESS_REPLICAS`` replica pairs to ``PROCESS_T_MAX``.
Stage one succeeds there about once in eight attempts, so a run draws
stage one's common blocks and builds stage two's bisector windows.

It times one ``couple_chains_batch`` run on ``Ellipse(2, 1)`` under
``uniform_half`` from arcs 0 and P/2, ``CHAIN_PAIRS`` pairs x
``CHAIN_STEPS`` steps at seed ``CHAIN_SEED``, for each certificate of
``CHAIN_CERTS``: the ``chain-coupling-ellipse`` workload's one-bounce
``convex_chain`` certificate (width 2.8, floor 1/pi), a two-bounce one
(width 2.0, floor 1/pi, eps 0.1), whose blocks read the block table and
bridge their inner bounce, and no certificate (``none``), the maximal
coupling of the one-bounce landing laws.

Each figure is the median over ``REPEATS`` timeit repeats of the mean
time per call.  Only the package under ``--src`` is imported, so two
checkouts are compared by running the script once on each in turn,
alternating which goes first.  It prints one JSON object, in the form of
a ``BENCH_*.json`` ``layer_timeit`` entry for one side.
"""

from __future__ import annotations

import argparse
import collections
import json
import platform
import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

ARC_SAMPLES = 1024
BATCH, STEPS = 16, 4
CHORDS = (16, 4096)
TABLE_CHORDS = CHORDS + (25_000,)
WALK_ROWS, WALK_CHORDS = 12, 25_000
REPEATS = 7
EXIT_ORIGIN, EXIT_DIRECTION = (0.3, 0.2), (0.6, 0.8)
WINDOW_ARCS = (0.5, 2.8)
WINDOW_PARAMS = dict(eps=5e-4, beta=1.5, delta=1.2)
PROCESS_PARAMS = dict(eps=5e-4, beta=0.6, delta=0.4, zeta=0.5)
PROCESS_STARTS = (((0.5, 0.1), (0.5, 1.0)), ((-0.5, -0.1), (-0.5, -1.0)))
PROCESS_REPLICAS, PROCESS_T_MAX = 400, 12.0
PROCESS_SEEDS = (5, 6, 7)
CHAIN_PAIRS, CHAIN_STEPS, CHAIN_SEED = 1500, 12, 5
CHAIN_CERTS = {"n0_1": dict(width=2.8, floor=1.0 / np.pi),
               "n0_2": dict(width=2.0, floor=1.0 / np.pi, eps=0.1),
               "none": None}


def _per_call(fn):
    """Median over ``REPEATS`` of the mean seconds per call of ``fn``, each
    repeat as many calls as ``timeit``'s autorange takes for 0.2 s."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(t / number
                             for t in timer.repeat(REPEATS, number))


def measure():
    from convexbilliards import dynamics, geometry, rates, reflection

    ellipse = geometry.Ellipse(2.0, 1.0)
    s = np.arange(ARC_SAMPLES) * (ellipse.perimeter / ARC_SAMPLES)
    kappa = np.asarray(ellipse.curvature_at(s))
    body = geometry.CurvatureTable(s, kappa)
    law = reflection.law_from_config("uniform_half")

    out = {}
    gen = np.random.default_rng(21)
    origin, direction = np.array(EXIT_ORIGIN), np.array(EXIT_DIRECTION)
    for name, b, chords in (("disc", geometry.Disc(1.0), CHORDS),
                            ("ellipse", ellipse, CHORDS),
                            ("table", body, TABLE_CHORDS)):
        for n in chords:
            u = b.to_native(gen.uniform(0.0, b.perimeter, n))
            theta = gen.uniform(-1.5, 1.5, n)
            out[f"{name}_bounce_{n}_us"] = 1e6 * _per_call(
                lambda: b.bounce(u, theta))
        u = b.to_native(gen.uniform(0.0, b.perimeter, WALK_CHORDS))
        theta = gen.uniform(-1.5, 1.5, (WALK_ROWS, WALK_CHORDS))
        out[f"{name}_walk_{WALK_ROWS}x{WALK_CHORDS}_ms"] = 1e3 * _per_call(
            lambda: collections.deque(b.walk(u, theta), maxlen=0))
        out[f"{name}_exit_ray_us"] = 1e6 * _per_call(
            lambda: b.exit_ray(origin, direction))
        x, xt = (geometry.point_at(b, a) for a in WINDOW_ARCS)
        params = rates.RateParams(
            **(PROCESS_PARAMS if name == "disc" else WINDOW_PARAMS))
        out[f"{name}_window_us"] = 1e6 * _per_call(
            lambda: rates.bisector_window_geometry(b, x, xt, params))

    starts = gen.random(BATCH) * (0.125 * body.perimeter)

    def operation():
        g = np.random.Generator(np.random.Philox(key=[12, 1]))
        dynamics.run_chain_ensemble(body, law, starts, STEPS, g)

    out[f"table_ensemble_{BATCH}x{STEPS}_us"] = 1e6 * _per_call(operation)
    out["table_build_ms"] = 1e3 * _per_call(
        lambda: geometry.CurvatureTable(s, kappa))
    out.update(_chain_coupling(ellipse, law))
    out.update(_convex_process())
    return {k: round(v, 2) for k, v in out.items()}


def _chain_coupling(body, law):
    from convexbilliards import rates
    from convexbilliards.coupling import couple_chains_batch

    out = {}
    for name, inputs in CHAIN_CERTS.items():
        cert = (None if inputs is None
                else rates.convex_chain_rate(body.summarize(), **inputs))
        out[f"chain_coupling_{name}_{CHAIN_PAIRS}x{CHAIN_STEPS}_ms"] = \
            1e3 * _per_call(lambda: couple_chains_batch(
                body, law, 0.0, 0.5 * body.perimeter, cert, CHAIN_STEPS,
                CHAIN_PAIRS, CHAIN_SEED))
    return out


def _convex_process():
    from convexbilliards import geometry, rates, reflection
    from convexbilliards.coupling import couple_process_convex_batch

    disc = geometry.Disc(1.0)
    law = reflection.law_from_config("uniform_half")
    cert = rates.convex_process_rate(
        disc, 1.0 / np.pi, rates.RateParams(**PROCESS_PARAMS),
        geometry.point_at(disc, 0.0), geometry.point_at(disc, np.pi))
    starts = [tuple(np.array(v) for v in start) for start in PROCESS_STARTS]
    out = {}
    for seed in PROCESS_SEEDS:
        out[f"convex_process_{PROCESS_REPLICAS}_seed{seed}_ms"] = \
            1e3 * _per_call(lambda: couple_process_convex_batch(
                disc, law, *starts, cert, PROCESS_T_MAX, PROCESS_REPLICAS,
                seed))
    return out


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
