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
  the discretised block kernel over the overlap, which keeps the residual
  valid even where the printed kernel bound is optimistic;
* the residual is n0 plain bounces, thinned on the block's landing density
  at the block's end: ``landing_density`` for one bounce, circular
  convolutions of the angle law on a disc (``_BlockTables``) and powers of
  the discretised kernel elsewhere (``_ConvexKernelTables``);
* on success both chains land on one uniform point of the overlap, and a
  block of two or more bounces fills in its inner bounces with bridges
  sampled from the same tables.

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
from ..dynamics import (_walk, guarded_angles, landing_density,
                        transition_matrix)
from ..errors import HypothesisViolated, ResidualSamplingError
from ..geometry import ConvexBody, Disc, TWO_PI
from ..parallel import map_jobs
from ..rates import RateCertificate, disc_chain_rate
from ..reflection import ReflectionLaw
from .base import (CouplingOutcome, _wrap_pi, arc_overlap, draw_arcs,
                   in_arcs, thin_residual)

_GRID = 8192
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
    disc: _BlockTables | None = None             # block densities, disc
    kernel: _ConvexKernelTables | None = None    # block rows of the cap


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
    if cert.kind == "disc_chain":
        # per radian of landing angle, (floor/2)^n0 eps^(n0-1)
        level = (0.5 * cert.inputs["floor"]) ** n0 * eps ** (n0 - 1) / body.r
        return _Blocks(n0, width, eps * body.r, level,
                       disc=_cached_block_tables(law, n0) if n0 > 1 else None)
    reach = 4.0 * width / body.summarize().curvature_max
    level = cert.constants["q_min"] ** n0 * reach ** (n0 - 1)
    return _Blocks(n0, width, eps, level,
                   kernel=_cached_tables(body, law, n0) if n0 > 1 else None)


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
            rows = (None, None)
            if blocks.kernel is not None:
                rows = tuple(blocks.kernel.block_rows(self.u[c, i])
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
                    for p, t in zip(j2, target):
                        for c in (0, 1):
                            inner[:, c, p] = self._bridge(c, p, t)
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
                        arc_len.compress(miss, axis=1), level[miss],
                        None if rows[c] is None else rows[c][miss]).T
        yield from inner
        yield self.s.copy()

    def _residual(self, c, idx, arc_lo, arc_len, level, row):
        """Residual blocks of chain ``c`` of the pairs ``idx``.

        Each candidate is n0 plain bounces, thinned by level / block
        density where it ends on the plateau arcs.  Sets the chains' new
        positions and returns the inner landings, shape (len(idx), n0 - 1).
        """
        body, law, rng, n0 = self.body, self.law, self.rng, self.blocks.n0
        u0 = self.u[c, idx]

        def propose(rows):
            path = np.empty((n0, rows.size))
            u = _walk(body, u0[rows],
                      guarded_angles(law, rng, (n0, rows.size)), path)
            path = path.T
            member = in_arcs(path[:, -1], arc_lo.take(rows, axis=1),
                             arc_len.take(rows, axis=1), body.perimeter)
            dens = self._block_density(u0[rows], u, path[:, -1],
                                       None if row is None else row[rows])
            reject = np.where(
                member,
                np.minimum(level[rows] / np.maximum(dens, 1e-300), 1.0), 0.0)
            return (path, u), reject

        path, u = thin_residual(idx.size, propose, rng)
        self.s[c, idx] = path[:, -1]
        self.u[c, idx] = u
        return path[:, :-1]

    def _block_density(self, u0, u, s, row):
        """Density per unit arc length of landing at native ``u`` (arc
        ``s``) n0 bounces after native ``u0``."""
        body, blocks = self.body, self.blocks
        if blocks.n0 == 1:
            return landing_density(body, self.law, body.frame(u0),
                                   body.frame(u))
        if blocks.disc is not None:
            rel = _wrap_pi(u - u0 - blocks.n0 * math.pi)
            return blocks.disc.circular_density(blocks.n0, rel) / body.r
        return blocks.kernel.row_value(row, s)

    def _bridge(self, c, p, target):
        """Inner landings of chain ``c`` of pair ``p`` given that its block
        ends at arc ``target``."""
        body, blocks = self.body, self.blocks
        if blocks.disc is None:
            return blocks.kernel.bridge(
                body.point_of(self.s[c, p], self.u[c, p]), target, self.rng)
        phi = self.u[c, p]
        rel = float(_wrap_pi(target / body.r - phi - blocks.n0 * math.pi))
        total = blocks.disc.pick_branch(blocks.n0, rel, self.rng)
        thetas = blocks.disc.bridge(blocks.n0, total, self.rng)
        return body.to_arc(phi + np.cumsum(math.pi + 2.0 * thetas[:-1]))


def _reach_window(body, s, u, width, n0, eps):
    """Arc (lo, length) reachable in n0 bounces with certified angles.

    Vectorised over starts at arc length ``s`` (native coordinate ``u``);
    each bounce after the first shrinks the arc by the slack ``eps`` at
    both ends.
    """
    P = body.perimeter
    half = min(0.5 * width, _REACH_LIMIT)
    lo = hi = s
    u_lo = u_hi = u
    full = False
    for k in range(n0):
        u_lo = body.bounce(u_lo, -half)[0]
        u_hi = body.bounce(u_hi, half)[0]
        # unwrap: the landing arc from angle -half to +half runs ccw
        lo = lo + np.mod(body.to_arc(u_lo) - lo, P)
        hi = hi + np.mod(body.to_arc(u_hi) - hi, P)
        hi = np.where(hi < lo, hi + P, hi)
        if k > 0:
            lo, hi = lo + eps, hi - eps
            full = full | (hi - lo >= P)
            if k + 1 < n0:
                u_lo, u_hi = body.to_native(lo), body.to_native(hi)
    return lo, np.where(full, P, np.minimum(np.maximum(hi - lo, 0.0), P))


# ---------------------------------------------------------------------------
# block tables: disc
# ---------------------------------------------------------------------------

class _BlockTables:
    """Densities of twice the sum of k reflection angles, on a line grid."""

    def __init__(self, law: ReflectionLaw, n0: int):
        m = 0.5 * law.support_width
        half = max(2.0 * m, 1e-3)
        n = _GRID
        grids = []
        # density of y = 2*theta on [-2m, 2m]
        x1 = np.linspace(-half, half, int(n / n0) + 1)
        g1 = 0.5 * law.density(0.5 * x1)
        grids.append((x1, g1))
        for _ in range(1, n0):
            xk, gk = grids[-1]
            xn, gn = _convolve(xk, gk, x1, g1)
            grids.append((xn, gn))
        self.grids = grids

    def density(self, k: int, x):
        xk, gk = self.grids[k - 1]
        return np.interp(np.asarray(x, dtype=float), xk, gk,
                         left=0.0, right=0.0)

    def _branches(self, k: int, rel):
        """Line preimages of a circle value under reduction mod 2*pi."""
        xk, _ = self.grids[k - 1]
        shift = TWO_PI * math.ceil((xk[0] - rel) / TWO_PI)
        out = []
        while rel + shift <= xk[-1]:
            out.append(rel + shift)
            shift += TWO_PI
        return out

    def circular_density(self, k: int, rel):
        """Density of (2 * sum of k angles) mod 2*pi at rel in [-pi, pi)."""
        xk, _ = self.grids[k - 1]
        rel = np.asarray(rel, dtype=float)
        branch = rel + TWO_PI * np.ceil((xk[0] - rel) / TWO_PI)
        out = np.zeros_like(rel)
        while np.any(branch <= xk[-1]):
            out += self.density(k, branch)
            branch = branch + TWO_PI
        return out

    def pick_branch(self, k: int, rel, rng) -> float:
        """Sample the line-value of the block sum given its circle class."""
        branches = self._branches(k, rel)
        weights = np.array([float(self.density(k, b)) for b in branches])
        keep = weights > 0.0
        branches = [b for b, ok in zip(branches, keep) if ok]
        weights = weights[keep]
        idx = int(rng.choice(len(branches), p=weights / weights.sum()))
        return branches[idx]

    def bridge(self, n0: int, total: float, rng) -> np.ndarray:
        """Sample the n0 individual angles given their doubled sum."""
        ys = []
        remaining = total
        for k in range(n0, 1, -1):
            x1, g1 = self.grids[0]
            w = g1 * self.density(k - 1, remaining - x1)
            y = _grid_sample(x1, w, rng)
            ys.append(y)
            remaining -= y
        ys.append(remaining)
        return 0.5 * np.asarray(ys)


@functools.lru_cache(maxsize=16)
def _cached_block_tables(law, n0) -> _BlockTables:
    # laws compare by value, so repeated runs of one law share the
    # convolution grids, the per-call bottleneck otherwise
    return _BlockTables(law, n0)


def _convolve(xa, ga, xb, gb):
    dx = xa[1] - xa[0]
    g = np.convolve(ga, gb) * dx
    x = (xa[0] + xb[0]) + np.arange(g.size) * dx
    return x, g


def _grid_sample(x, w, rng) -> float:
    w = np.maximum(np.asarray(w, dtype=float), 0.0)
    cdf = np.cumsum(w)
    if cdf[-1] <= 0.0:
        raise ResidualSamplingError("bridge conditional has no mass")
    u = rng.random() * cdf[-1]
    i = int(np.searchsorted(cdf, u))
    frac = (u - (cdf[i - 1] if i else 0.0)) / max(w[i], 1e-300)
    return float(x[i] + (min(frac, 1.0) - 0.5) * (x[1] - x[0]))


# ---------------------------------------------------------------------------
# block tables: general body
# ---------------------------------------------------------------------------

class _ConvexKernelTables:
    """Block kernel rows of a general body, on midpoint nodes."""

    def __init__(self, body: ConvexBody, law: ReflectionLaw, n0: int,
                 n_nodes: int = 512):
        self.body = body
        self.law = law
        self.n0 = n0
        self.nodes, self.M = transition_matrix(body, law, n_nodes)
        self.frames = body.frame(body.to_native(self.nodes))
        self.ds = body.perimeter / n_nodes
        # the kernel of the block's last n0 - 1 bounces
        self.K_tail = np.linalg.matrix_power(self.M * self.ds, n0 - 1)

    def block_rows(self, u) -> np.ndarray:
        """Block kernel from each native coordinate ``u`` to every node,
        shape (len(u), nodes)."""
        x = tuple(c[:, None] for c in self.body.frame(u))
        rows = landing_density(self.body, self.law, x, self.frames)
        return rows @ self.K_tail if self.n0 > 1 else rows

    def capped_level(self, level, rows, arc_lo, arc_len):
        """``level`` capped at 0.999 times the smaller block row's minimum
        over the overlap; zero where the overlap holds no node."""
        inside = in_arcs(self.nodes, arc_lo[..., None], arc_len[..., None],
                         self.body.perimeter)
        low = np.where(inside, np.minimum(*rows), np.inf).min(axis=1)
        return np.where(inside.any(axis=1),
                        np.minimum(level, 0.999 * low), 0.0)

    def row_value(self, row, s) -> np.ndarray:
        """Each row of ``row`` interpolated at its arc length in ``s``."""
        pos = np.mod(s, self.body.perimeter) / self.ds - 0.5
        i0 = np.floor(pos).astype(np.intp) % self.nodes.size
        i1 = (i0 + 1) % self.nodes.size
        frac = pos - np.floor(pos)
        r = np.arange(len(s))
        return (1.0 - frac) * row[r, i0] + frac * row[r, i1]

    def bridge(self, x, target_s, rng):
        """Intermediate landing points given the block endpoint."""
        body = self.body
        points = []
        cur = x
        for k in range(self.n0 - 1):
            row = landing_density(body, self.law, cur.frame, self.frames)
            tail = self._target_column(target_s, self.n0 - 1 - k)
            idx = _categorical(row * tail, rng)
            s_mid = self.nodes[idx] + (rng.random() - 0.5) * self.ds
            points.append(float(np.mod(s_mid, body.perimeter)))
            cur = body.point_at(points[-1])
        return points

    def _target_column(self, target_s, steps_left) -> np.ndarray:
        """Density of reaching target_s in steps_left bounces, per node."""
        body = self.body
        col = landing_density(body, self.law, self.frames,
                              body.point_at(target_s).frame)
        for _ in range(steps_left - 1):
            col = (self.M * self.ds) @ col
        return col


def _categorical(w, rng) -> int:
    w = np.maximum(w, 0.0)
    tot = w.sum()
    if tot <= 0.0:
        raise ResidualSamplingError("empty bridge conditional on convex body")
    return int(rng.choice(w.size, p=w / tot))


@functools.lru_cache(maxsize=8)
def _cached_tables(body, law, n0) -> _ConvexKernelTables:
    # bodies are immutable and keyed by identity, laws by value; the
    # discretised kernel is the dominant per-call cost otherwise
    return _ConvexKernelTables(body, law, n0)
