"""Vectorised chain coupling for single-bounce blocks (replica batches).

Covers certificates with block length one (landing windows exceed half the
perimeter after a single bounce).  All replicas advance in lockstep: each
step every uncoupled pair attempts a plateau coupling of the next landing
position, with the plateau level taken from the certificate (the landing
density per unit arc length dominates it on the reachable arc).  Residual
draws are one bounce of the body's kernel thinned by one
``landing_density`` evaluation, so the whole step is a handful of array
operations on any body.  Each chain carries both its arc length (windows
and outputs) and the body's native coordinate (bounces and frames).

Used for the large-replica marginal-preservation and survival checks;
the scalar engine in ``chains`` remains the reference implementation and
handles multi-bounce blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..dynamics import guarded_angles, landing_density
from ..errors import InvalidParams
from ..geometry import ConvexBody
from ..rates import RateCertificate
from ..reflection import ReflectionLaw
from .base import arc_overlap, draw_arcs, in_arcs, thin_residual
from .chains import _reach_window


@dataclass
class BatchChainResult:
    coupled: np.ndarray
    coupling_index: np.ndarray   # -1 where the horizon was reached uncoupled
    final_a: np.ndarray          # arc positions of the first chain
    final_b: np.ndarray
    attempts: int = 0
    successes: int = 0


def couple_chains_batch(body: ConvexBody, law: ReflectionLaw, s0: float,
                        s0_b: float, cert: RateCertificate, n_steps: int,
                        n_replicas: int, seed: int) -> BatchChainResult:
    """Couple many replica pairs of single-bounce-block chains.

    The certificate must have block length one.  Returns per-replica
    coupling bookkeeping and the final arc positions of both chains after
    exactly ``n_steps`` bounces (coupled pairs keep evolving jointly).
    """
    if cert.constants["n0"] != 1:
        raise InvalidParams("batch engine requires a one-bounce certificate")
    width = cert.inputs["width"]
    floor = cert.inputs["floor"]
    if cert.kind == "disc_chain":
        level = 0.5 * floor / body.r   # per unit arc length
    else:
        level = cert.constants["q_min"]
    P = body.perimeter

    R = int(n_replicas)
    out = BatchChainResult(
        coupled=np.zeros(R, dtype=bool),
        coupling_index=np.full(R, -1, dtype=np.int64),
        final_a=np.empty(R), final_b=np.empty(R))
    starts = body.wrap(np.array([float(s0), float(s0_b)]))
    for lo, hi, gen in rngmod.chunk_streams(seed, "chain-batch", R):
        sl = slice(lo, hi)
        n = hi - lo
        # row 0 is the first chain, row 1 the second
        s = np.repeat(starts[:, None], n, axis=1)
        u = body.to_native(s)
        coupled = np.zeros(n, dtype=bool)
        cidx = np.full(n, -1, dtype=np.int64)
        att = suc = 0
        for step in range(1, n_steps + 1):
            j = np.flatnonzero(coupled)
            if j.size:
                th = guarded_angles(law, gen, j.size)
                u[:, j] = body.bounce(u[0, j], th)[0]
                s[:, j] = body.to_arc(u[0, j])
            i = np.flatnonzero(~coupled)
            if i.size == 0:
                continue
            arcs_a = _reach_window(body, s[0, i], u[0, i], width, 1, 0.0)
            arcs_b = _reach_window(body, s[1, i], u[1, i], width, 1, 0.0)
            arc_lo, arc_len = arc_overlap(*arcs_a, *arcs_b, P)
            mass = level * (arc_len[0] + arc_len[1])
            hit = gen.random(i.size) < mass
            att += i.size
            suc += int(hit.sum())
            j2 = i[hit]
            if j2.size:
                s[:, j2] = draw_arcs(arc_lo.compress(hit, axis=1),
                                     arc_len.compress(hit, axis=1),
                                     gen.random(j2.size), P)
                u[:, j2] = body.to_native(s[0, j2])
                coupled[j2] = True
                cidx[j2] = step
            miss = ~hit
            k = i[miss]
            if k.size:
                for c in (0, 1):
                    _residual_bounce(body, law, level, s[c], u[c], k,
                                     arc_lo.compress(miss, axis=1),
                                     arc_len.compress(miss, axis=1), gen)
        out.coupled[sl] = coupled
        out.coupling_index[sl] = cidx
        out.final_a[sl] = s[0]
        out.final_b[sl] = s[1]
        out.attempts += att
        out.successes += suc
    return out


def _residual_bounce(body, law, level, s, u, idx, arc_lo, arc_len, rng):
    """Residual landing of the chains ``idx`` (arc ``s``, native ``u``).

    Bounces are thinned by level / landing density where they land on the
    plateau arcs.
    """
    def propose(rows):
        sel = idx[rows]
        th = guarded_angles(law, rng, rows.size)
        landed = body.bounce(u[sel], th)[0]
        s_land = body.to_arc(landed)
        member = in_arcs(s_land, arc_lo.take(rows, axis=1),
                         arc_len.take(rows, axis=1), body.perimeter)
        dens = landing_density(body, law, body.frame(u[sel]),
                               body.frame(landed))
        reject = np.where(member,
                          np.minimum(level / np.maximum(dens, 1e-300), 1.0),
                          0.0)
        return (s_land, landed), reject

    s[idx], u[idx] = thin_residual(idx.size, propose, rng)
