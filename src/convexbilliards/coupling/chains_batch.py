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

import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..dynamics import guarded_angles, landing_density
from ..errors import InvalidParams, ResidualSamplingError
from ..geometry import ConvexBody
from ..rates import RateCertificate
from ..reflection import ReflectionLaw

# extreme launch angle of the reachable arc, clear of the tangency guard
_REACH_LIMIT = 0.5 * math.pi - 1e-6


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
    half = min(0.5 * width, _REACH_LIMIT)

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
            lo_a, hi_a = _reach(body, s[0, i], u[0, i], half)
            lo_b, hi_b = _reach(body, s[1, i], u[1, i], half)
            p_lo, p_len, q_lo, q_len = _arc_intersections(
                lo_a, hi_a, lo_b, hi_b, P)
            mass = level * (p_len + q_len)
            hit = gen.random(i.size) < mass
            att += i.size
            suc += int(hit.sum())
            j2 = i[hit]
            if j2.size:
                pick = gen.random(j2.size) * (p_len[hit] + q_len[hit])
                in1 = pick < p_len[hit]
                y = np.where(in1, p_lo[hit] + pick,
                             q_lo[hit] + (pick - p_len[hit]))
                s[:, j2] = np.mod(y, P)
                u[:, j2] = body.to_native(s[0, j2])
                coupled[j2] = True
                cidx[j2] = step
            k = i[~hit]
            if k.size:
                miss = ~hit
                for c in (0, 1):
                    _residual_bounce(body, law, level, s[c], u[c], k,
                                     p_lo[miss], p_len[miss], q_lo[miss],
                                     q_len[miss], gen)
        out.coupled[sl] = coupled
        out.coupling_index[sl] = cidx
        out.final_a[sl] = s[0]
        out.final_b[sl] = s[1]
        out.attempts += att
        out.successes += suc
    return out


def _reach(body, s, u, half):
    """Unwrapped arc [lo, hi) reachable from s with angles in [-half, half]."""
    P = body.perimeter
    lo = s + np.mod(body.to_arc(body.bounce(u, -half)[0]) - s, P)
    hi = s + np.mod(body.to_arc(body.bounce(u, half)[0]) - s, P)
    return lo, np.where(hi < lo, hi + P, hi)


def _arc_intersections(lo_a, hi_a, lo_b, hi_b, P):
    """Intersection of two circle arcs given as unwrapped [lo, hi).

    Returns up to two pieces per pair as (start, length) in the coordinate
    frame of the first arc.
    """
    len_a = np.minimum(hi_a - lo_a, P)
    len_b = np.minimum(hi_b - lo_b, P)
    # offset of b's start relative to a's start, in [0, P)
    d = np.mod(lo_b - lo_a, P)
    # piece 1: b starting inside [0, len_a)
    p1_lo = d
    p1_hi = np.minimum(d + len_b, len_a)
    p1_len = np.maximum(p1_hi - p1_lo, 0.0)
    p1_len = np.where(d < len_a, p1_len, 0.0)
    # piece 2: b wrapped around (start at d - P)
    p2_lo = np.zeros_like(d)
    p2_hi = np.minimum(d + len_b - P, len_a)
    p2_len = np.maximum(p2_hi, 0.0)
    return (lo_a + p1_lo, p1_len, lo_a + p2_lo, p2_len)


def _residual_bounce(body, law, level, s, u, idx, p_lo, p_len, q_lo, q_len,
                     rng):
    """Residual landing of the chains ``idx`` (arc ``s``, native ``u``).

    Bounces are thinned by level / landing density where they land inside
    the plateau pieces.
    """
    P = body.perimeter
    pend = np.arange(idx.size)
    for _ in range(10_000):
        if pend.size == 0:
            return
        sel = idx[pend]
        th = guarded_angles(law, rng, pend.size)
        landed = body.bounce(u[sel], th)[0]
        s_land = body.to_arc(landed)
        member = _in_piece(s_land, p_lo[pend], p_len[pend], P) \
            | _in_piece(s_land, q_lo[pend], q_len[pend], P)
        dens = landing_density(body, law, body.frame(u[sel]),
                               body.frame(landed))
        reject = np.where(member,
                          np.minimum(level / np.maximum(dens, 1e-300), 1.0),
                          0.0)
        acc = rng.random(pend.size) >= reject
        s[sel[acc]] = s_land[acc]
        u[sel[acc]] = landed[acc]
        pend = pend[~acc]
    raise ResidualSamplingError("batch residual bounce exceeded its rejection"
                                " cap")


def _in_piece(x, lo, length, P):
    return np.mod(x - lo, P) < length
