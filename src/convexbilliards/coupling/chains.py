"""Coupling of two boundary chains started from different points.

The chains are coupled in blocks of n0 bounces, n0 taken from the
certificate: one bounce when a single landing window exceeds half the
boundary, n0 >= 2 otherwise.  At the start of a block every uncoupled pair
makes one plateau attempt (``coupling.base``) on its landing position after
the block:

* the windows are the arcs each chain reaches in n0 bounces with certified
  launch angles, shrunk by the certificate's slack per extra bounce
  (``_reach_window``);
* the level is the certificate's block-kernel floor per unit arc length.
  On a general body with blocks of two or more bounces, and on any body but
  a disc without a certificate, it is capped at 0.999 times the minimum of
  the block kernel over the overlap, which keeps the residual valid even
  where the printed kernel bound is optimistic;
* the residual is n0 plain bounces, thinned on the block's landing density
  at the block's end: ``landing_density`` for one bounce, and for longer
  blocks the block table (``_BlockKernel``), the powers of the exact cell
  kernel ``dynamics.cell_kernel`` read bilinearly between cell midpoints;
* on success both chains land on one uniform point of the overlap, and a
  block of two or more bounces fills in its inner bounces with a bridge
  drawn cell by cell from the same powers.

After a success the chains share one stream and remain equal entry for
entry.  ``couple_chains_batch`` advances many replica pairs in lockstep on
fixed chunk streams and keeps the last bounce; ``couple_chains`` is its
one-replica call and keeps every bounce.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..dynamics import _walk, cell_kernel, guarded_angles, landing_density
from ..errors import HypothesisViolated, ResidualSamplingError
from ..geometry import ConvexBody, Disc
from ..parallel import map_jobs
from ..rates import RateCertificate, disc_chain_rate
from ..reflection import ReflectionLaw
from .base import (CouplingOutcome, arc_overlap, draw_arcs, in_arcs,
                   thin_residual)

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
                        s0_b: float, cert: RateCertificate | None,
                        n_steps: int, n_replicas: int, seed: int,
                        workers: int = 1) -> BatchChainResult:
    """Couple many replica pairs of chains started at ``s0`` and ``s0_b``.

    Returns per-replica coupling bookkeeping and the final arc positions of
    both chains after exactly ``n_steps`` bounces (coupled pairs keep
    evolving jointly).  Equal starts are coupled at index 0.  ``cert=None``
    couples as ``couple_chains`` does.  Each chunk of replicas runs on its
    own stream, so any worker count gives the same arrays.
    """
    blocks = _blocks(body, law, cert)
    R = int(n_replicas)
    out = BatchChainResult(
        coupled=np.zeros(R, dtype=bool),
        coupling_index=np.full(R, -1, dtype=np.int64),
        final_a=np.empty(R), final_b=np.empty(R))
    starts = body.wrap(np.array([float(s0), float(s0_b)]))
    chunks = rngmod.chunk_streams(seed, "chain-batch", R)
    jobs = [(body, law, blocks, starts, hi - lo, gen, n_steps)
            for lo, hi, gen in chunks]
    for (lo, hi, _), res in zip(chunks, map_jobs(_chunk_job, jobs, workers)):
        sl = slice(lo, hi)
        (out.coupled[sl], out.coupling_index[sl], out.final_a[sl],
         out.final_b[sl], attempts, successes) = res
        out.attempts += attempts
        out.successes += successes
    return out


def _chunk_job(args):
    body, law, blocks, starts, n, rng, n_steps = args
    pairs = _Pairs(body, law, blocks, starts, n, rng)
    for _ in pairs.run(n_steps):
        pass
    return (pairs.coupled, pairs.index, pairs.s[0], pairs.s[1],
            pairs.attempts, pairs.successes)


def couple_chains(body: ConvexBody, law: ReflectionLaw, s0: float, s0_b: float,
                  cert: RateCertificate | None, n_max: int,
                  rng: np.random.Generator) -> CouplingOutcome:
    """Couple two chains; evolve to n_max bounces regardless of success.

    The certificate fixes the block length and the certified plateau.  With
    ``cert=None`` a disc builds ``disc_chain_rate`` from the law's
    certified floor (slack width/2 when width <= pi/2), and any other body
    couples in one-bounce blocks on the numerically certified plateau, so a
    full-width law still couples where the printed kernel floor would
    vanish.  Trajectories of both chains are recorded per bounce.
    """
    pairs = _Pairs(body, law, _blocks(body, law, cert),
                   body.wrap(np.array([float(s0), float(s0_b)])), 1, rng)
    traj = np.stack([pairs.s.copy(), *pairs.run(n_max)])[:, :, 0]
    coupled = bool(pairs.coupled[0])
    return CouplingOutcome(
        coupled=coupled,
        coupling_index=int(pairs.index[0]) if coupled else None,
        traj_a=traj[:, 0], traj_b=traj[:, 1])


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Blocks:
    """What a certificate fixes about the coupling's blocks."""

    n0: int
    width: float     # certified launch-angle window
    eps: float       # arc-length slack per extra bounce of a window
    level: float     # plateau level per unit arc length; inf: numeric only
    kernel: _BlockKernel | None = None   # n0 >= 2, or a numeric level


def _blocks(body, law, cert) -> _Blocks:
    if cert is not None and (cert.axis != "step" or (
            cert.kind == "disc_chain" and not isinstance(body, Disc))):
        raise HypothesisViolated(f"a {cert.kind} certificate cannot couple"
                                 f" chains on a {type(body).__name__}")
    if cert is None and isinstance(body, Disc):
        fc = law.certify_floor()
        eps = 0.5 * fc.width if fc.width <= 0.5 * math.pi else None
        cert = disc_chain_rate(fc.width, fc.floor, eps)
    if cert is None:
        return _Blocks(1, law.certify_floor().width, 0.0, math.inf,
                       kernel=_cached_tables(body, law, 1))
    width, n0 = cert.inputs["width"], cert.constants["n0"]
    eps = cert.inputs.get("eps", 0.0)
    kernel = _cached_tables(body, law, n0) if n0 > 1 else None
    if cert.kind == "disc_chain":
        # per radian of landing angle, (floor/2)^n0 eps^(n0-1)
        level = (0.5 * cert.inputs["floor"]) ** n0 * eps ** (n0 - 1) / body.r
        return _Blocks(n0, width, eps * body.r, level, kernel)
    reach = 4.0 * width / body.summarize().curvature_max
    level = cert.constants["q_min"] ** n0 * reach ** (n0 - 1)
    return _Blocks(n0, width, eps, level, kernel)


class _Pairs:
    """``n`` replica pairs of chains on one stream, coupled block by block.

    Row 0 of ``s`` (arc length) and ``u`` (the body's native coordinate)
    holds the first chain of every pair, row 1 the second.  ``index`` is
    the bounce at which a pair coupled, -1 while it has not.
    """

    def __init__(self, body, law, blocks: _Blocks, starts, n, rng):
        self.body, self.law, self.blocks, self.rng = body, law, blocks, rng
        self.s = np.repeat(starts[:, None], n, axis=1)
        self.u = body.to_native(self.s)
        self.coupled = np.full(n, starts[0] == starts[1])
        self.index = np.where(self.coupled, 0, -1).astype(np.int64)
        self.attempts = self.successes = 0

    def run(self, n_steps):
        """Advance every pair ``n_steps`` bounces, yielding the landing arcs
        (2, n) of both chains after each bounce.

        Blocks that do not fit before ``n_steps`` are not attempted: the
        last bounces are plain ones.
        """
        n0 = self.blocks.n0
        for b in range(n_steps // n0):
            yield from self._block(b * n0)
        for _ in range(n_steps % n0):
            self._step(slice(0, 2), np.flatnonzero(self.coupled))
            uncoupled = np.flatnonzero(~self.coupled)
            self._step(slice(0, 1), uncoupled)
            self._step(slice(1, 2), uncoupled)
            yield self.s.copy()

    def _step(self, rows: slice, idx):
        """One plain bounce of the chains ``rows`` of the pairs ``idx``;
        the rows take the first row's landing."""
        if idx.size:
            th = guarded_angles(self.law, self.rng, idx.size)
            u = self.body.bounce(self.u[rows.start, idx], th)[0]
            self.u[rows, idx] = u
            self.s[rows, idx] = self.body.to_arc(u)

    def _block(self, step):
        """One block of n0 bounces after ``step`` bounces; yields them."""
        body, blocks, rng = self.body, self.blocks, self.rng
        n0, P = blocks.n0, body.perimeter
        inner = np.empty((n0 - 1, 2, self.s.shape[1]))
        j = np.flatnonzero(self.coupled)
        for k in range(n0):
            self._step(slice(0, 2), j)
            if k + 1 < n0:
                inner[k][:, j] = self.s[:, j]
        i = np.flatnonzero(~self.coupled)
        if i.size:
            arc_lo, arc_len = arc_overlap(
                *_reach_window(body, self.s[0, i], self.u[0, i], blocks.width,
                               n0, blocks.eps),
                *_reach_window(body, self.s[1, i], self.u[1, i], blocks.width,
                               n0, blocks.eps), P)
            level = np.full(i.size, blocks.level)
            if blocks.kernel is not None and not isinstance(body, Disc):
                # a disc's certified level is proven; elsewhere cap it
                rows = tuple(blocks.kernel.block_rows(self.s[c, i],
                                                      self.u[c, i])
                             for c in (0, 1))
                level = blocks.kernel.capped_level(level, rows, arc_lo,
                                                   arc_len)
            mass = level * (arc_len[0] + arc_len[1])
            hit = rng.random(i.size) < mass
            self.attempts += i.size
            self.successes += int(hit.sum())
            j2 = i[hit]
            if j2.size:
                target = draw_arcs(arc_lo.compress(hit, axis=1),
                                   arc_len.compress(hit, axis=1),
                                   rng.random(j2.size), P)
                if n0 > 1:
                    for c in (0, 1):
                        inner[:, c, j2] = blocks.kernel.bridge(
                            self.s[c, j2], target, rng)
                self.s[:, j2] = target
                self.u[:, j2] = body.to_native(self.s[0, j2])
                self.coupled[j2] = True
                self.index[j2] = step + n0
            miss = ~hit
            k = i[miss]
            if k.size:
                for c in (0, 1):
                    inner[:, c, k] = self._residual(
                        c, k, arc_lo.compress(miss, axis=1),
                        arc_len.compress(miss, axis=1), level[miss]).T
        yield from inner
        yield self.s.copy()

    def _residual(self, c, idx, arc_lo, arc_len, level):
        """Residual blocks of chain ``c`` of the pairs ``idx``.

        Each candidate is n0 plain bounces, thinned by level / block
        density where it ends on the plateau arcs.  Sets the chains' new
        positions and returns the inner landings, shape (len(idx), n0 - 1).
        """
        body, law, rng, n0 = self.body, self.law, self.rng, self.blocks.n0
        s0, u0 = self.s[c, idx], self.u[c, idx]
        # one-bounce blocks: the starts' frames, once for every round
        frame0 = body.frame(u0) if n0 == 1 else None

        def propose(rows):
            path = np.empty((n0, rows.size))
            u = _walk(body, u0[rows],
                      guarded_angles(law, rng, (n0, rows.size)), path)
            path = path.T
            member = in_arcs(path[:, -1], arc_lo.take(rows, axis=1),
                             arc_len.take(rows, axis=1), body.perimeter)
            if frame0 is None:
                dens = self.blocks.kernel.density(s0[rows], path[:, -1])
            else:
                dens = landing_density(body, law,
                                       tuple(f[rows] for f in frame0),
                                       body.frame(u))
            reject = np.where(
                member,
                np.minimum(level[rows] / np.maximum(dens, 1e-300), 1.0), 0.0)
            return (path, u), reject

        path, u = thin_residual(idx.size, propose, rng)
        self.s[c, idx] = path[:, -1]
        self.u[c, idx] = u
        return path[:, :-1]


def _reach_window(body, s, u, width, n0, eps):
    """Arc (lo, length) reachable in n0 bounces with certified angles.

    Vectorised over starts at arc length ``s`` (native coordinate ``u``);
    each bounce after the first shrinks the arc by the slack ``eps`` at
    both ends.
    """
    P = body.perimeter
    half = min(0.5 * width, _REACH_LIMIT)
    # both ends in one kernel call, launched at -half (row 0) and +half
    # (row 1); the first bounce launches both from u and frames it once
    angles = np.array([[-half], [half]])
    lo = hi = s
    full = False
    for k in range(n0):
        if k > 1:   # later bounces start from the ends shrunk by eps
            u = body.to_native(np.stack([lo, hi]))
        u = body.bounce(u, angles)[0]
        arc = body.to_arc(u)
        # unwrap: the landing arc from angle -half to +half runs ccw
        lo = lo + np.mod(arc[0] - lo, P)
        hi = hi + np.mod(arc[1] - hi, P)
        hi = np.where(hi < lo, hi + P, hi)
        if k > 0:
            lo, hi = lo + eps, hi - eps
            full = full | (hi - lo >= P)
    return lo, np.where(full, P, np.minimum(np.maximum(hi - lo, 0.0), P))


# ---------------------------------------------------------------------------
# the block table
# ---------------------------------------------------------------------------

class _BlockKernel:
    """Block kernels of up to n0 bounces on equal arc cells.

    ``P[k - 1]`` holds the k-bounce masses between the cells' midpoints,
    the k-th power of the exact one-step ``cell_kernel``; the block's
    density per unit arc length is read off ``P[n0 - 1] / ds`` between
    midpoints.  One-bounce blocks read exact landing densities instead.
    """

    def __init__(self, body: ConvexBody, law: ReflectionLaw, n0: int,
                 n_cells: int = 512):
        self.body = body
        self.law = law
        self.n0 = n0
        self.nodes = (np.arange(n_cells) + 0.5) * body.perimeter / n_cells
        self.frames = body.frame(body.to_native(self.nodes))
        self.ds = body.perimeter / n_cells
        if n0 > 1:
            self.P = [cell_kernel(body, law, n_cells)]
            for _ in range(1, n0):
                self.P.append(self.P[-1] @ self.P[0])
            self.block = self.P[-1] / self.ds

    def _between(self, s):
        """Cells (i0, i0 + 1) of the midpoints around arcs ``s`` and the
        weight of the upper one."""
        pos = np.mod(s, self.body.perimeter) / self.ds - 0.5
        lo = np.floor(pos)
        i0 = lo.astype(np.intp) % self.nodes.size
        return i0, (i0 + 1) % self.nodes.size, pos - lo

    def density(self, s0, s) -> np.ndarray:
        """Block density from each arc in ``s0`` to its arc in ``s``,
        bilinear between midpoints."""
        i0, i1, f = self._between(s0)
        j0, j1, g = self._between(s)
        B = self.block
        return ((1.0 - f) * ((1.0 - g) * B[i0, j0] + g * B[i0, j1])
                + f * ((1.0 - g) * B[i1, j0] + g * B[i1, j1]))

    def block_rows(self, s, u) -> np.ndarray:
        """Block density from each start (arc ``s``, native ``u``) to every
        midpoint, shape (len(s), cells): the exact landing density for one
        bounce, rows of the block table between midpoints otherwise."""
        if self.n0 == 1:
            x = tuple(c[:, None] for c in self.body.frame(u))
            return landing_density(self.body, self.law, x, self.frames)
        i0, i1, f = self._between(s)
        f = f[:, None]
        return (1.0 - f) * self.block[i0] + f * self.block[i1]

    def capped_level(self, level, rows, arc_lo, arc_len):
        """``level`` capped at 0.999 times the smaller block row's minimum
        over the overlap; zero where the overlap holds no midpoint."""
        inside = in_arcs(self.nodes, arc_lo[..., None], arc_len[..., None],
                         self.body.perimeter)
        low = np.where(inside, np.minimum(*rows), np.inf).min(axis=1)
        return np.where(inside.any(axis=1),
                        np.minimum(level, 0.999 * low), 0.0)

    def bridge(self, s, target, rng) -> np.ndarray:
        """Inner landings of blocks from arcs ``s`` that end at arcs
        ``target``, shape (n0 - 1, len(s)).

        Each inner landing draws its cell from the one-step row of the
        previous cell times the column of the bounces left into the
        target's cell, then a uniform offset inside it.
        """
        N = self.nodes.size
        i = np.floor(self.body.wrap(s) / self.ds).astype(np.intp) % N
        j = np.floor(self.body.wrap(target) / self.ds).astype(np.intp) % N
        out = np.empty((self.n0 - 1, i.size))
        for k in range(self.n0 - 1):
            w = self.P[0][i] * self.P[self.n0 - 2 - k][:, j].T
            cdf = np.cumsum(np.maximum(w, 0.0), axis=1)
            if np.any(cdf[:, -1] <= 0.0):
                raise ResidualSamplingError("bridge conditional has no mass")
            u = rng.random(i.size) * cdf[:, -1]
            i = np.minimum((cdf <= u[:, None]).sum(axis=1), N - 1)
            out[k] = self.body.wrap((i + rng.random(i.size)) * self.ds)
        return out


@functools.lru_cache(maxsize=8)
def _cached_tables(body, law, n0) -> _BlockKernel:
    # bodies are immutable and keyed by identity, laws by value, so repeated
    # runs of one config share the kernel powers
    return _BlockKernel(body, law, n0)
