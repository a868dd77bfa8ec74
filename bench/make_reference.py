"""Regenerate ``reference.json``, the reference statistics of the checks.

Run from the root of a checkout::

    python3 bench/make_reference.py

Each reference is a large run of the same scenario on seeds that no
benchmark run uses (benchmark operations use ``seed * 1000003 + i`` with a
small i; the references use seeds from 2**40 up).  It takes about two
minutes on two cores.  Regenerate only when the scenario definitions in
``workloads.py`` change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from convexbilliards import coupling, dynamics  # noqa: E402

import workloads as wl  # noqa: E402

REF_SEED = 2 ** 40


def dominance(replicas=1_000_000, chunk=100_000):
    """TV curve and pooled bin probabilities of the two starts."""
    w = wl.DominanceEllipse(0, HERE)
    w.setup()
    cfg = w.config(0)
    P = w.body.perimeter
    hists = []
    for k, s0 in enumerate((cfg["s0"], 0.5 * P)):
        counts = np.zeros((wl.N_MAX + 1, w.BINS))
        for c in range(replicas // chunk):
            gen = np.random.Generator(np.random.Philox(
                key=[REF_SEED + c, k]))
            arcs = dynamics.run_chain_ensemble(w.body, w.law,
                                               np.full(chunk, s0), wl.N_MAX,
                                               gen)
            for n in range(wl.N_MAX + 1):
                counts[n] += np.histogram(np.mod(arcs[n], P), bins=w.BINS,
                                          range=(0.0, P))[0]
        hists.append(counts / replicas)
    tv = 0.5 * np.abs(hists[0] - hists[1]).sum(axis=1)
    return {"replicas": replicas, "tv": tv.tolist(),
            "probs": (0.5 * (hists[0] + hists[1])).tolist()}


def chain_coupling(replicas=200_000):
    """Coupling-index probabilities: steps 1..n_max, then uncoupled."""
    w = wl.ChainCouplingEllipse(0, HERE)
    w.setup()
    cfg = w.config(0)
    res = coupling.couple_chains_batch(w.body, w.law, cfg["s0"],
                                       0.5 * w.body.perimeter, w.cert,
                                       wl.N_MAX, replicas, REF_SEED + 1)
    index = np.where(res.coupled, res.coupling_index, wl.N_MAX + 1)
    counts = np.bincount(index, minlength=wl.N_MAX + 2)[1:]
    return {"replicas": replicas, "index_probs": (counts / replicas).tolist()}


def process_coupling(replicas=16_384):
    """Pooled stage counts and the coupling-time mean and sd."""
    w = wl.ProcessCouplingDisc(0, HERE)
    w.setup()
    cfg = w.config(0)
    start = [np.array(v, float) for v in cfg["start"]]
    start_b = [np.array(v, float) for v in cfg["start_alt"]]
    res = coupling.couple_process_disc_batch(
        1.0, w.law, start, start_b, w.cert, cfg["t_max"], replicas,
        REF_SEED + 2)
    if not res.coupled.all():
        raise SystemExit("reference process run left replicas uncoupled")
    out = {"replicas": replicas}
    for stage in ("stage1", "stage2"):
        for kind in ("attempts", "successes"):
            out[f"{stage}_{kind}"] = int(getattr(res, f"{stage}_{kind}").sum())
    out["mean_coupling_time"] = float(np.mean(res.coupling_time))
    out["sd_coupling_time"] = float(np.std(res.coupling_time))
    return out


def main():
    # the workload classes read the reference at construction; start empty
    if not wl.REFERENCE.exists():
        wl.REFERENCE.write_text(json.dumps(
            {name: {} for name in wl.WORKLOADS}))
    ref = {
        "dominance-ellipse": dominance(),
        "chain-coupling-ellipse": chain_coupling(),
        "process-coupling-disc": process_coupling(),
        "general-body-table": {},
        "generated_by": "bench/make_reference.py",
    }
    wl.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print("wrote", wl.REFERENCE)


if __name__ == "__main__":
    main()
