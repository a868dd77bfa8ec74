"""Coupling of two boundary chains started from different points.

Every ``n0`` bounces the two chains attempt a plateau coupling of their
landing positions:

* on a disc the landing law after a block of n0 bounces is the start angle
  shifted by n0*pi plus twice the sum of the block's reflection angles, so
  block densities, residual rejection and bridge sampling all reduce to
  one-dimensional circular convolutions computed on fine grids;

* on a general convex body the landing windows are built from the true
  reachable arcs (boundary hits of the extreme certified angles, shrunk by
  the slack per extra bounce) and the plateau level is the smaller of the
  certificate's kernel floor and the numerically computed block-kernel
  minimum over the overlap, which keeps residual acceptance probabilities
  valid even where the printed kernel bound is optimistic.

After a successful attempt the chains share one stream and remain equal
entry for entry.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..dynamics import chain_step, guarded_angles, landing_density, \
    make_chain_state, transition_density_row, transition_matrix
from ..errors import ResidualSamplingError
from ..geometry import ConvexBody, Disc, TWO_PI
from ..rates import RateCertificate
from ..reflection import ReflectionLaw
from .base import (AttemptRecord, CouplingOutcome, _wrap_pi, arc_overlap,
                   draw_arcs, in_arcs, thin_residual)

_GRID = 8192
# extreme launch angle of the reachable arc, clear of the tangency guard
_REACH_LIMIT = 0.5 * math.pi - 1e-6


def couple_chains(body: ConvexBody, law: ReflectionLaw, s0: float, s0_b: float,
                  cert: RateCertificate | None, n_max: int,
                  rng: np.random.Generator) -> CouplingOutcome:
    """Couple two chains; evolve to n_max bounces regardless of success.

    The certificate fixes the block length and the certified plateau; with
    ``cert=None`` a numerically certified plateau is used (convex bodies
    with a full-width law still couple, where the printed kernel floor
    would vanish).  Trajectories of both chains are recorded per bounce.
    """
    if isinstance(body, Disc) and (cert is None or cert.kind == "disc_chain"):
        return _couple_disc(body, law, s0, s0_b, cert, n_max, rng)
    return _couple_convex(body, law, s0, s0_b, cert, n_max, rng)


# ---------------------------------------------------------------------------
# disc engine
# ---------------------------------------------------------------------------

class _BlockTables:
    """Densities of twice the sum of k reflection angles, on a line grid."""

    def __init__(self, law: ReflectionLaw, n0: int):
        m = 0.5 * law.support_width
        half = max(2.0 * m, 1e-3)
        n = _GRID
        self.dx = 2.0 * half * n0 / n
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
        """Density of (2 * sum of k angles) mod 2*pi at rel in (-pi, pi]."""
        return float(sum(self.density(k, b) for b in self._branches(k, rel)))

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
    # laws are immutable; the convolution grids are the per-call bottleneck
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


def _couple_disc(body: Disc, law, s0, s0_b, cert, n_max, rng):
    r = body.r
    if cert is not None:
        width = cert.inputs["width"]
        n0 = cert.constants["n0"]
        eps = cert.inputs.get("eps", 0.0)
    else:
        fc = law.certify_floor()
        width, n0, eps = fc.width, 1 if fc.width > 0.5 * math.pi else 2, 0.0
        if n0 == 2 and eps == 0.0:
            eps = 0.5 * width
    floor = cert.inputs["floor"] if cert is not None else law.certify_floor(width).floor
    if n0 == 1:
        level = 0.5 * floor          # per radian of landing angle
        halfwidth = width
    else:
        level = (0.5 * floor) ** n0 * eps ** (n0 - 1)
        halfwidth = n0 * width - (n0 - 1) * eps
    tables = _cached_block_tables(law, n0)

    phi_a = (s0 / r) % TWO_PI
    phi_b = (s0_b / r) % TWO_PI
    out_a, out_b = [phi_a], [phi_b]
    attempts: list[AttemptRecord] = []
    coupled = phi_a == phi_b
    coupling_index = 0 if coupled else None
    step = 0

    def window(centre):
        return centre + n0 * math.pi - halfwidth, min(2.0 * halfwidth, TWO_PI)

    while step < n_max:
        if coupled:
            th = guarded_angles(law, rng, 1)
            phi_a = (phi_a + math.pi + 2.0 * th[0]) % TWO_PI
            phi_b = phi_a
            out_a.append(phi_a)
            out_b.append(phi_b)
            step += 1
            continue
        if step + n0 > n_max:
            break
        arcs = arc_overlap(*window(phi_a), *window(phi_b), TWO_PI)
        mass = level * float(arcs[1].sum())
        success = mass > 0.0 and rng.random() < mass
        attempts.append(AttemptRecord(1, success, mass))
        if success:
            target = float(draw_arcs(*arcs, rng.random(), TWO_PI))
            for phi, out in ((phi_a, out_a), (phi_b, out_b)):
                rel = _wrap_pi(target - phi - n0 * math.pi)
                total = tables.pick_branch(n0, rel, rng)
                thetas = tables.bridge(n0, total, rng)
                cur = phi
                for j, th in enumerate(thetas):
                    cur = (cur + math.pi + 2.0 * th) % TWO_PI
                    if j == len(thetas) - 1:
                        cur = target  # enforce exact equality of endpoints
                    out.append(cur)
            phi_a = phi_b = target
            coupled = True
            coupling_index = step + n0
        else:
            phi_a = _disc_residual_block(phi_a, n0, law, tables, level,
                                         arcs, out_a, rng)
            phi_b = _disc_residual_block(phi_b, n0, law, tables, level,
                                         arcs, out_b, rng)
        step += n0
    # top up to exactly n_max bounces when a block would not fit
    while step < n_max:
        th = guarded_angles(law, rng, 1)
        phi_a = (phi_a + math.pi + 2.0 * th[0]) % TWO_PI
        if coupled:
            phi_b = phi_a
        else:
            tb = guarded_angles(law, rng, 1)
            phi_b = (phi_b + math.pi + 2.0 * tb[0]) % TWO_PI
        out_a.append(phi_a)
        out_b.append(phi_b)
        step += 1

    return CouplingOutcome(
        coupled=coupled, coupling_index=coupling_index,
        attempts=attempts,
        traj_a=np.asarray(out_a) * r, traj_b=np.asarray(out_b) * r)


def _disc_residual_block(phi, n0, law, tables: _BlockTables, level, arcs,
                         out, rng) -> float:
    def propose(rows):
        thetas = guarded_angles(law, rng, n0)
        landing = (phi + n0 * math.pi + 2.0 * float(np.sum(thetas))) % TWO_PI
        reject = 0.0
        if in_arcs(landing, *arcs, TWO_PI):
            dens = tables.circular_density(
                n0, _wrap_pi(landing - phi - n0 * math.pi))
            reject = min(level / max(dens, 1e-300), 1.0)
        return (thetas[None],), reject

    (thetas,) = thin_residual(1, propose, rng)
    cur = phi
    for th in thetas[0]:
        cur = (cur + math.pi + 2.0 * th) % TWO_PI
        out.append(cur)
    return cur


# ---------------------------------------------------------------------------
# convex engine
# ---------------------------------------------------------------------------

class _ConvexKernelTables:
    """Discretised block kernel rows for a convex body."""

    def __init__(self, body: ConvexBody, law: ReflectionLaw, n0: int,
                 n_nodes: int = 512):
        self.body = body
        self.law = law
        self.n0 = n0
        self.nodes, M = transition_matrix(body, law, n_nodes)
        self.ds = body.perimeter / n_nodes
        self.M = M
        K = M * self.ds
        self.K_pows = [np.eye(n_nodes)]
        for _ in range(n0 - 1):
            self.K_pows.append(self.K_pows[-1] @ K)

    def block_row(self, x) -> np.ndarray:
        row = transition_density_row(self.body, self.law, x, self.nodes)
        return row @ self.K_pows[self.n0 - 1] if self.n0 > 1 else row

    def row_value(self, row, s) -> float:
        P = self.body.perimeter
        pos = (np.mod(s, P) / self.ds) - 0.5
        i0 = int(np.floor(pos)) % row.size
        i1 = (i0 + 1) % row.size
        frac = pos - np.floor(pos)
        return float((1.0 - frac) * row[i0] + frac * row[i1])

    def bridge(self, x, target_s, rng):
        """Intermediate landing points given the block endpoint."""
        body = self.body
        points = []
        cur = x
        for k in range(self.n0 - 1):
            row = transition_density_row(body, self.law, cur, self.nodes)
            tail = self._target_column(target_s, self.n0 - 1 - k)
            idx = _categorical(row * tail, rng)
            s_mid = self.nodes[idx] + (rng.random() - 0.5) * self.ds
            points.append(float(np.mod(s_mid, body.perimeter)))
            cur = body.point_at(points[-1])
        return points

    def _target_column(self, target_s, steps_left) -> np.ndarray:
        """Density of reaching target_s in steps_left bounces, per node."""
        body = self.body
        col = landing_density(body, self.law,
                              body.frame(body.to_native(self.nodes)),
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
    # bodies and laws are immutable, so caching by identity is sound; the
    # discretised kernel is the dominant per-call cost otherwise
    return _ConvexKernelTables(body, law, n0)


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


def _couple_convex(body, law, s0, s0_b, cert, n_max, rng):
    if cert is not None:
        width = cert.inputs["width"]
        n0 = cert.constants["n0"]
        eps = cert.inputs.get("eps", 0.0)
        reach = 4.0 * width / body.summarize().curvature_max
        level_cert = cert.constants["q_min"] ** n0 * reach ** (n0 - 1)
    else:
        fc = law.certify_floor()
        width, n0, eps, level_cert = fc.width, 1, 0.0, math.inf
    tables = _cached_tables(body, law, n0)
    P = body.perimeter

    s_a, s_b = float(body.wrap(s0)), float(body.wrap(s0_b))
    out_a, out_b = [s_a], [s_b]
    attempts: list[AttemptRecord] = []
    coupled = s_a == s_b
    coupling_index = 0 if coupled else None
    step = 0
    state_a = make_chain_state(body, s_a)
    state_b = make_chain_state(body, s_b)

    while step < n_max:
        if coupled:
            state_a, _, _ = chain_step(body, law, state_a, rng)
            state_b = state_a
            out_a.append(state_a.s)
            out_b.append(state_a.s)
            step += 1
            continue
        if step + n0 > n_max:
            state_a, _, _ = chain_step(body, law, state_a, rng)
            state_b2, _, _ = chain_step(body, law, state_b, rng)
            state_b = state_b2
            out_a.append(state_a.s)
            out_b.append(state_b.s)
            step += 1
            continue
        arcs = arc_overlap(
            *_reach_window(body, s_a, state_a.u, width, n0, eps),
            *_reach_window(body, s_b, state_b.u, width, n0, eps), P)
        row_a = tables.block_row(state_a.point)
        row_b = tables.block_row(state_b.point)
        in_overlap = in_arcs(tables.nodes, *arcs, P)
        if not np.any(in_overlap):
            level = 0.0
            mass = 0.0
        else:
            row_min = float(min(row_a[in_overlap].min(),
                                row_b[in_overlap].min()))
            level = min(level_cert, 0.999 * row_min)
            mass = max(level, 0.0) * float(arcs[1].sum())
        success = mass > 0.0 and rng.random() < mass
        attempts.append(AttemptRecord(1, success, mass))
        if success:
            target = float(draw_arcs(*arcs, rng.random(), P))
            for st, out in ((state_a, out_a), (state_b, out_b)):
                for mid in tables.bridge(st.point, target, rng):
                    out.append(mid)
                out.append(target)
            state_a = make_chain_state(body, target)
            state_b = state_a
            s_a = s_b = target
            coupled = True
            coupling_index = step + n0
        else:
            state_a, s_a = _convex_residual_block(
                body, law, tables, state_a, level, arcs, row_a, out_a, rng)
            state_b, s_b = _convex_residual_block(
                body, law, tables, state_b, level, arcs, row_b, out_b, rng)
        step += n0

    return CouplingOutcome(
        coupled=coupled, coupling_index=coupling_index, attempts=attempts,
        traj_a=np.asarray(out_a), traj_b=np.asarray(out_b))


def _convex_residual_block(body, law, tables, state, level, arcs, row,
                           out, rng):
    def propose(rows):
        cur, landings = state, []
        for _ in range(tables.n0):
            cur, _, _ = chain_step(body, law, cur, rng)
            landings.append(cur.s)
        reject = 0.0
        if level > 0.0 and in_arcs(landings[-1], *arcs, body.perimeter):
            dens = tables.row_value(row, landings[-1])
            reject = min(level / max(dens, 1e-300), 1.0)
        return (np.array([cur], dtype=object), np.array([landings])), reject

    cur, landings = thin_residual(1, propose, rng)
    out.extend(landings[0])
    return cur[0], float(landings[0, -1])
