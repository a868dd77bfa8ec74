"""Coupling of two boundary chains started from different points.

The chains are coupled in blocks of n0 bounces, n0 taken from the
certificate: one bounce when a single landing window exceeds half the
boundary, n0 >= 2 otherwise.  At the start of a block every uncoupled pair
makes one rejection step (``coupling.base``) on the common part

    q = min(level * 1_overlap, p_a, p_b)

of the chains' block densities: ``landing_density`` for one bounce, and
for longer blocks the block table (``_BlockKernel``), the powers of the
exact cell kernel ``dynamics.cell_kernel`` read bilinearly between cell
midpoints.  Chain a walks a free block to x, and the pair couples iff a
uniform U has U p_a(x) < q(x), which has probability the integral of q.
Chain b then lands on x too, bridging its inner bounces cell by cell from
the same powers; otherwise it walks free blocks to y until one has
U p_b(y) >= q(y), which draws its residual p_b - q.  Each test reads the
other chain's density only where the level alone would pass it.

The certificate fixes the cap level * 1_overlap:

* the overlap is that of the arcs each chain reaches in n0 bounces with
  certified launch angles, shrunk by the certificate's slack per extra
  bounce (``_reach_window``).  With one-bounce blocks x lies on it iff
  chain a's launch angle and chain b's launch angle toward x both lie in
  [-width/2, width/2], so no window is solved;
* the level is the certificate's block-kernel floor per unit arc length.
  With certified one-bounce blocks, and on a disc, it lies below both
  densities on the overlap, so q is the paper's plateau;
* without a certificate the level is infinite on the whole circle, and
  q = min(p_a, p_b) is the maximal coupling.

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
from ..dynamics import (_walk, cell_kernel, guarded_angles, landing_density,
                        launch_angle)
from ..errors import HypothesisViolated, ResidualSamplingError
from ..geometry import TWO_PI, ConvexBody, Disc
from ..parallel import map_jobs
from ..rates import RateCertificate
from ..reflection import ReflectionLaw
from .base import CouplingOutcome, arc_overlap, in_arcs, thin_residual

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

    The certificate fixes the block length and the plateau that caps the
    common part.  With ``cert=None`` every body couples in one-bounce
    blocks on the maximal coupling of the two landing laws, so a full-width
    law still couples where the printed kernel floor would vanish.
    Trajectories of both chains are recorded per bounce.
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
    level: float     # per unit arc length; inf caps nothing
    kernel: _BlockKernel | None = None   # the block table when n0 >= 2


def _blocks(body, law, cert) -> _Blocks:
    if cert is None:
        # no cap: one-bounce blocks on an infinite level over the whole
        # circle, so the common part is min(p_a, p_b)
        return _Blocks(1, TWO_PI, 0.0, math.inf)
    if cert.axis != "step" or (cert.kind == "disc_chain"
                               and not isinstance(body, Disc)):
        raise HypothesisViolated(f"a {cert.kind} certificate cannot couple"
                                 f" chains on a {type(body).__name__}")
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
        n0 = self.blocks.n0
        inner = np.empty((n0 - 1, 2, self.s.shape[1]))
        j = np.flatnonzero(self.coupled)
        for k in range(n0):
            self._step(slice(0, 2), j)
            if k + 1 < n0:
                inner[k][:, j] = self.s[:, j]
        i = np.flatnonzero(~self.coupled)
        if i.size:
            self._attempt(step, i, inner)
        yield from inner
        yield self.s.copy()

    def _attempt(self, step, i, inner):
        """One rejection step of the uncoupled pairs ``i`` over a block on
        the common part q (module docstring); writes the inner landings
        into ``inner``."""
        body, law, rng = self.body, self.law, self.rng
        n0, level = self.blocks.n0, self.blocks.level
        s0, u0 = self.s[:, i], self.u[:, i]
        inside, density = self._plateau(s0, u0)

        def block(c, rows):
            """Free blocks of chain ``c`` of the pairs ``rows``: landings
            (n0, len(rows)), final native coordinates, and ``below(w)``,
            whether w p_c < q at each block's end for uniforms ``w``."""
            theta = guarded_angles(law, rng, (n0, rows.size))
            path = np.empty((n0, rows.size))
            u = _walk(body, u0[c, rows], theta, path)
            s_end = path[-1]
            end = body.frame(u) if n0 == 1 else None

            def below(w):
                wp = w * density(c, rows, s_end, end)
                hit = inside(c, rows, theta, s_end, end) & (wp < level)
                # the other chain's density only where the level passes
                k = np.flatnonzero(hit)
                if k.size:
                    hit[k] = wp[k] < density(
                        1 - c, rows[k], s_end[k],
                        None if end is None else tuple(e[k] for e in end))
                return hit
            return path, u, below

        path, u, below = block(0, np.arange(i.size))
        hit = below(rng.random(i.size))
        self.attempts += i.size
        self.successes += int(hit.sum())
        self.s[0, i], self.u[0, i] = path[-1], u
        inner[:, 0, i] = path[:-1]
        j = i[hit]
        if j.size:
            if n0 > 1:
                inner[:, 1, j] = self.blocks.kernel.bridge(
                    s0[1, hit], path[-1, hit], rng)
            self.s[1, j], self.u[1, j] = path[-1, hit], u[hit]
            self.coupled[j] = True
            self.index[j] = step + n0
        miss = np.flatnonzero(~hit)
        if miss.size:
            def propose(rows):
                path, u, below = block(1, miss[rows])
                return (path.T, u), below

            path, u = thin_residual(miss.size, propose, rng)
            k = i[miss]
            self.s[1, k], self.u[1, k] = path[:, -1], u
            inner[:, 1, k] = path[:, :-1].T

    def _plateau(self, s, u):
        """The overlap test ``inside(c, rows, theta, s_end, end)`` and the
        block density ``density(c, rows, s_end, end)`` of blocks of chain
        ``c`` of the pairs ``rows``, for pairs started at arcs ``s``
        (native ``u``), both of shape (2, pairs).  A block launched at
        angles ``theta`` ends at arcs ``s_end``, and one-bounce blocks at
        the frames ``end`` (None for longer blocks)."""
        body, law, blocks = self.body, self.law, self.blocks
        if blocks.n0 == 1:
            # a start's reach window is the landing arc of launch angles in
            # [-half, half], so a landing is on the overlap iff its own
            # launch angle and the other start's launch angle toward it
            # both lie there; no chord is launched at +-half, so no
            # tangency clip is needed, and half = pi passes every landing
            frames = [body.frame(u[c]) for c in (0, 1)]
            half = 0.5 * blocks.width

            def at(c, rows):
                return tuple(f[rows] for f in frames[c])

            def inside(c, rows, theta, s_end, end):
                return ((np.abs(theta[0]) <= half)
                        & (np.abs(launch_angle(at(1 - c, rows), end))
                           <= half))

            def density(c, rows, s_end, end):
                return landing_density(body, law, at(c, rows), end)
            return inside, density
        P = body.perimeter
        arc_lo, arc_len = arc_overlap(
            *_reach_window(body, s[0], u[0], blocks.width, blocks.n0,
                           blocks.eps),
            *_reach_window(body, s[1], u[1], blocks.width, blocks.n0,
                           blocks.eps), P)

        def inside(c, rows, theta, s_end, end):
            return in_arcs(s_end, arc_lo.take(rows, axis=1),
                           arc_len.take(rows, axis=1), P)

        def density(c, rows, s_end, end):
            return blocks.kernel.density(s[c, rows], s_end)
        return inside, density


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
    """Block kernels of n0 >= 2 bounces on equal arc cells.

    ``P[k - 1]`` holds the k-bounce masses between the cells' midpoints,
    the k-th power of the exact one-step ``cell_kernel``; the block's
    density per unit arc length, p_a and p_b of the common part, is read
    off ``P[n0 - 1] / ds`` bilinearly between midpoints, and the same
    powers draw the bridge of a coupled chain's inner landings.
    """

    def __init__(self, body: ConvexBody, law: ReflectionLaw, n0: int,
                 n_cells: int = 512):
        self.body = body
        self.n0 = n0
        self.n_cells = n_cells
        self.ds = body.perimeter / n_cells
        self.P = [cell_kernel(body, law, n_cells)]
        for _ in range(1, n0):
            self.P.append(self.P[-1] @ self.P[0])
        self.block = self.P[-1] / self.ds

    def _between(self, s):
        """Cells (i0, i0 + 1) of the midpoints around arcs ``s`` and the
        weight of the upper one."""
        pos = np.mod(s, self.body.perimeter) / self.ds - 0.5
        lo = np.floor(pos)
        i0 = lo.astype(np.intp) % self.n_cells
        return i0, (i0 + 1) % self.n_cells, pos - lo

    def density(self, s0, s) -> np.ndarray:
        """Block density from each arc in ``s0`` to its arc in ``s``,
        bilinear between midpoints."""
        i0, i1, f = self._between(s0)
        j0, j1, g = self._between(s)
        B = self.block
        return ((1.0 - f) * ((1.0 - g) * B[i0, j0] + g * B[i0, j1])
                + f * ((1.0 - g) * B[i1, j0] + g * B[i1, j1]))

    def bridge(self, s, target, rng) -> np.ndarray:
        """Inner landings of blocks from arcs ``s`` that end at arcs
        ``target``, shape (n0 - 1, len(s)).

        Each inner landing draws its cell from the one-step row of the
        previous cell times the column of the bounces left into the
        target's cell, then a uniform offset inside it.
        """
        N = self.n_cells
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
