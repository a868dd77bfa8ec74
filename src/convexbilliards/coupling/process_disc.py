"""Two-stage coupling of the continuous-time billiard in a disc.

Stage one repeatedly couples the *clocks*: after aligning within one
diameter, each process makes two bounces and the accumulated hitting times
are plateau-coupled on the certified two-bounce time window (floor delta,
guaranteed overlap h).  On failure the earlier process bounces until its
clock strictly passes the later one and the attempt repeats.

Once the clocks agree, stage two attempts to couple landing position and
time jointly on the product window of the pair profile; success makes the
two processes share position, velocity and clock forever.  On failure the
clocks are realigned and stage one resumes.

The engine is vectorised across replicas: all replicas advance through the
attempt state machine in lockstep under boolean masks, drawing from one
counter-based stream per fixed-size replica chunk.  Both processes of a
chunk live in one state (``_Processes``): row 0 of the landing-angle and
clock arrays holds process a of every replica, row 1 process b, and a flat
index addresses either row.  Each step of a tick is one vectorised call
over both processes: one residual thinning loop over every failing
process, one conditional-angle draw over every succeeding one, and one
realignment over the lagging process of each replica.  The per-attempt
success probabilities are exactly the certified plateau masses, so the
recorded attempt statistics are directly comparable with the certificate
constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..dynamics import guarded_angles
from ..errors import HorizonExceeded, HypothesisViolated
from ..geometry import Disc, TWO_PI
from ..rates import RateCertificate, disc_pair_profile
from ..reflection import ReflectionLaw
from .base import (AttemptRecord, CouplingOutcome, _wrap_pi, arc_overlap,
                   draw_arcs, in_arcs, thin_residual)

_T_GRID = 2049
_T_CELLS = 512       # substituted-angle cells per w-node of the tables
_U_GRID = 192        # probability steps of the conditional inverse CDF
_REALIGN_BOUNCES = 4  # bounces drawn per lagging process per round
_MAX_TICKS = 2_000_000


# ---------------------------------------------------------------------------
# two-bounce time density (table) and conditional angle sampler
# ---------------------------------------------------------------------------

class _TwoBounceTables:
    """Density of cos(A) + cos(B) for two independent law angles, and the
    law of A given the sum.

    Both are tabulated on one fixed w-grid with a square-root substitution
    at the endpoint where the inner arccosine degenerates, which removes the
    integrable singularity of the integrand.
    """

    def __init__(self, law: ReflectionLaw):
        self.law = law
        self.m = 0.5 * law.support_width
        w_min = 2.0 * math.cos(self.m)
        self.w_grid = np.linspace(w_min + 1e-12, 2.0 - 1e-12, _T_GRID)
        n = _T_CELLS
        self.pdf_grid = np.empty(_T_GRID)
        # inverse CDF of t / t_hi at probabilities 0, 1/_U_GRID, ..., 1
        self.quantiles = np.empty((_T_GRID, _U_GRID + 1), dtype=np.float32)
        # 16 rows at a time keep the grid's temporaries small
        for lo in range(0, _T_GRID, 16):
            rows = slice(lo, lo + 16)
            wgt, t_hi = self._grid(self.w_grid[rows], n)
            # both signs of each angle, and du = 2 t dt with dt = t_hi / n
            self.pdf_grid[rows] = 8.0 * (t_hi / n) * wgt.sum(axis=1)
            self.quantiles[rows] = _inverse_cdf(wgt, _U_GRID)

    def _u_range(self, w):
        """Largest magnitude u_hi of the first angle given cos(u) + cos(v)
        = w with both angles on the support, and t_hi = sqrt of the width
        of the range of u."""
        cos_m = math.cos(self.m)
        u_lo = np.arccos(np.clip(np.minimum(w - cos_m, 1.0), -1.0, 1.0))
        u_hi = np.arccos(np.clip(np.maximum(w - 1.0, cos_m), -1.0, 1.0))
        return u_hi, np.sqrt(np.maximum(u_hi - u_lo, 1e-300))

    def _grid(self, w, n):
        """Weights f(u) f(v) t / sin(v) of the substitution u = u_hi - t^2
        at n midpoints of t in [0, t_hi], one row per w; with t_hi."""
        u_hi, t_hi = self._u_range(w)
        t = (np.arange(n) + 0.5)[None, :] * (t_hi[:, None] / n)
        u = u_hi[:, None] - t * t
        v = _partner(w[:, None], u)
        sin_v = np.maximum(np.sin(v), 1e-300)
        wgt = self.law.density(u) * self.law.density(v) / sin_v * t
        return wgt, t_hi

    def pdf(self, w):
        """Density of the cosine sum, interpolated from the table."""
        return np.interp(np.asarray(w, dtype=float), self.w_grid,
                         self.pdf_grid, left=0.0, right=0.0)

    def conditional_pair(self, w_targets, rng: np.random.Generator):
        """Sample (angle1, angle2) given cos(angle1) + cos(angle2) = w.

        The magnitude of angle1 comes from the inverse-CDF table,
        interpolated in w and in probability; angle2 is the arccosine of
        w - cos(angle1), so the constraint holds to rounding.
        """
        w = np.atleast_1d(np.asarray(w_targets, dtype=float))
        pos = np.clip((w - self.w_grid[0]) / (self.w_grid[1] - self.w_grid[0]),
                      0.0, _T_GRID - 1.0)
        i0 = np.minimum(pos.astype(np.intp), _T_GRID - 2)
        fw = pos - i0
        p = rng.random(w.size) * _U_GRID
        j0 = np.minimum(p.astype(np.intp), _U_GRID - 1)
        fp = p - j0
        q = self.quantiles
        tau = ((1.0 - fw) * ((1.0 - fp) * q[i0, j0] + fp * q[i0, j0 + 1])
               + fw * ((1.0 - fp) * q[i0 + 1, j0] + fp * q[i0 + 1, j0 + 1]))
        u_hi, t_hi = self._u_range(w)
        t = tau * t_hi
        u = u_hi - t * t
        v = _partner(w, u)
        signs = np.where(rng.random((2, w.size)) < 0.5, -1.0, 1.0)
        return signs[0] * u, signs[1] * v


def _partner(w, u):
    """The angle v in [0, pi] with cos(u) + cos(v) = w.

    Computed from sin(v/2)^2 = (2 - w)/2 - sin(u/2)^2, which keeps its
    precision as w nears 2, where w - cos(u) rounds to 1.
    """
    h = np.clip(0.5 * (2.0 - w) - np.sin(0.5 * u) ** 2, 0.0, 1.0)
    return 2.0 * np.arcsin(np.sqrt(h))


def _inverse_cdf(wgt, levels):
    """Quantiles at probabilities k / levels, k = 0..levels, of the law
    with piecewise-constant density ``wgt`` on equal cells of [0, 1], one
    row per law."""
    rows, n = wgt.shape
    cdf = np.zeros((rows, n + 1))
    np.cumsum(wgt, axis=1, out=cdf[:, 1:])
    cdf /= np.maximum(cdf[:, -1:], 1e-300)
    p = np.linspace(0.0, 1.0, levels + 1)
    # one search for every row: row r's values are shifted by 2 r
    shift = 2.0 * np.arange(rows)[:, None]
    edge = np.searchsorted((cdf + shift).ravel(), (p + shift).ravel())
    cell = np.clip(edge.reshape(rows, -1) - (n + 1) * np.arange(rows)[:, None]
                   - 1, 0, n - 1)
    c0 = np.take_along_axis(cdf, cell, axis=1)
    c1 = np.take_along_axis(cdf, cell + 1, axis=1)
    frac = np.clip((p - c0) / np.maximum(c1 - c0, 1e-300), 0.0, 1.0)
    return (cell + frac) / n


@functools.lru_cache(maxsize=8)
def _cached_two_bounce_tables(law) -> _TwoBounceTables:
    # laws compare by value, so repeated runs of one law share the table
    return _TwoBounceTables(law)


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------

@dataclass
class BatchCouplingResult:
    coupled: np.ndarray          # bool per replica
    coupling_time: np.ndarray    # clock of coupling, NaN when uncoupled
    stage1_attempts: np.ndarray
    stage1_successes: np.ndarray
    stage2_attempts: np.ndarray
    stage2_successes: np.ndarray
    # (replicas, 2, k) landing angles of processes a and b
    first_bounces: np.ndarray | None = None

    @property
    def stage1_rate(self) -> float:
        return float(self.stage1_successes.sum() / max(self.stage1_attempts.sum(), 1))

    @property
    def stage2_rate(self) -> float:
        return float(self.stage2_successes.sum() / max(self.stage2_attempts.sum(), 1))


def couple_process_disc_batch(r: float, law: ReflectionLaw, start_a, start_b,
                              cert: RateCertificate, t_max: float,
                              n_replicas: int, seed: int,
                              record_first: int = 0,
                              trace: list | None = None,
                              workers: int = 1) -> BatchCouplingResult:
    """Run the two-stage coupling for many replicas of one start pair.

    ``start_*`` are (position, velocity) pairs anywhere in the closed disc.
    Replicas share the deterministic first flight and then evolve on
    independent chunk streams, so any worker count reproduces the same
    outcome arrays.  ``record_first`` keeps the first k landing angles of
    both processes for marginal checks; ``trace`` (single replica only)
    collects per-attempt records.
    """
    if cert.kind != "disc_process":
        raise HypothesisViolated("certificate kind must be disc_process")
    width = cert.inputs["width"]
    if not (2.0 * math.pi / 3.0 < width < math.pi):
        raise HypothesisViolated("certified width outside (2*pi/3, pi)")
    floor, eta, eps = (cert.inputs["floor"], cert.inputs["eta"],
                       cert.inputs["eps"])
    delta = cert.constants["delta"]
    prof2 = disc_pair_profile(r, width, floor, eps)
    tables = _cached_two_bounce_tables(law)

    pos_a, vel_a = (np.asarray(start_a[0], float), np.asarray(start_a[1], float))
    pos_b, vel_b = (np.asarray(start_b[0], float), np.asarray(start_b[1], float))
    disc = Disc(r)
    T0a, hit_a = disc.exit_ray(pos_a, vel_a / np.hypot(*vel_a))
    T0b, hit_b = disc.exit_ray(pos_b, vel_b / np.hypot(*vel_b))
    phi0a, phi0b = hit_a.s / r, hit_b.s / r

    R = int(n_replicas)
    out = BatchCouplingResult(
        coupled=np.zeros(R, dtype=bool),
        coupling_time=np.full(R, np.nan),
        stage1_attempts=np.zeros(R, dtype=np.int64),
        stage1_successes=np.zeros(R, dtype=np.int64),
        stage2_attempts=np.zeros(R, dtype=np.int64),
        stage2_successes=np.zeros(R, dtype=np.int64),
        first_bounces=(np.full((R, 2, record_first), np.nan)
                       if record_first else None),
    )
    if np.allclose(pos_a, pos_b) and np.allclose(vel_a, vel_b):
        out.coupled[:] = True
        out.coupling_time[:] = T0a
        if record_first:
            # both processes are one free chain from the common first hit
            _fill_plain_chain(out.first_bounces.reshape(2 * R, -1),
                              np.zeros(2 * R, dtype=np.int64),
                              np.full(2 * R, phi0a), law,
                              rngmod.substream(seed, "pd-fill"))
        return out

    from ..parallel import map_jobs
    chunks = rngmod.chunk_streams(seed, "process-disc", R)
    jobs = [(hi - lo, seed, idx, r, law, tables, delta, prof2, width, eta,
             T0a, phi0a, T0b, phi0b, t_max, record_first,
             trace if len(chunks) == 1 else None)
            for idx, (lo, hi, _) in enumerate(chunks)]
    results = map_jobs(_chunk_job, jobs, workers)
    for (lo, hi, _), res in zip(chunks, results):
        sl = slice(lo, hi)
        for name in ("coupled", "coupling_time", "stage1_attempts",
                     "stage1_successes", "stage2_attempts",
                     "stage2_successes"):
            getattr(out, name)[sl] = res[name]
        if record_first:
            out.first_bounces[sl] = res["first_bounces"]
        if trace is not None and res.get("trace"):
            trace.extend(res["trace"])
    return out


def _chunk_job(args):
    (n, seed, chunk_idx, r, law, tables, delta, prof2, width, eta,
     T0a, phi0a, T0b, phi0b, t_max, record_first, trace) = args
    rng = rngmod.substream(seed, "process-disc", chunk_idx)
    procs = _Processes(n, rng, r, law, tables, delta, prof2, width, eta,
                       (phi0a, phi0b), (T0a, T0b), record_first,
                       [] if trace is not None else None)
    return procs.run(t_max)


class _Processes:
    """``n`` replica pairs of processes on one stream, coupled in lockstep.

    Row 0 of ``phi`` (landing angle) and ``clock`` (hitting time) holds
    process a of every replica, row 1 process b.  Flat index ``f`` of the
    views ``phi_f`` and ``clock_f`` addresses process ``f // n`` of replica
    ``f % n``, so one call serves any set of processes of either row.
    """

    def __init__(self, n, rng, r, law, tables, delta, prof2, width, eta,
                 phi0, clock0, record_first, trace):
        self.n, self.rng, self.r, self.law = n, rng, r, law
        self.tables, self.delta = tables, delta
        self.phi = np.repeat(np.asarray(phi0, float)[:, None], n, axis=1)
        self.clock = np.repeat(np.asarray(clock0, float)[:, None], n, axis=1)
        self.phi_f = self.phi.reshape(-1)
        self.clock_f = self.clock.reshape(-1)
        self.phase = np.ones(n, dtype=np.int8)
        self.active = np.ones(n, dtype=bool)
        self.coupled = np.zeros(n, dtype=bool)
        self.that = np.full(n, np.nan)
        self.s1a = np.zeros(n, dtype=np.int64)
        self.s1s = np.zeros(n, dtype=np.int64)
        self.s2a = np.zeros(n, dtype=np.int64)
        self.s2s = np.zeros(n, dtype=np.int64)
        # landing angles per process (flat index), and how many were kept;
        # recording stops once every active process has its first k
        self.bounces = (np.full((2 * n, record_first), np.nan)
                        if record_first else None)
        self.cursor = np.zeros(2 * n, dtype=np.int64)
        self.recording = bool(record_first)
        self.trace = trace

        self.w1_lo = 4.0 * r * math.cos(0.5 * width) + eta
        self.w1_hi = 4.0 * r - eta
        self.level2 = prof2["level"]
        self.aw = prof2["angle_halfwidth"]
        self.B_lo, self.B_hi = prof2["t_lo"], prof2["t_hi"]

    def run(self, t_max) -> dict:
        for _ in range(_MAX_TICKS):
            if not self.active.any():
                break
            i1 = np.flatnonzero(self.active & (self.phase == 1))
            if i1.size:
                self.stage1(i1)
            i2 = np.flatnonzero(self.active & (self.phase == 2))
            if i2.size:
                self.stage2(i2)
            self.active &= ~(self.coupled | (self.clock.min(axis=0) > t_max))
            if self.recording:
                short = self.cursor.reshape(2, -1) < self.bounces.shape[1]
                self.recording = bool(short[:, self.active].any())
        else:
            raise HorizonExceeded("coupling state machine exceeded its tick"
                                  " budget")
        bounces = None
        if self.bounces is not None:
            _fill_plain_chain(self.bounces, self.cursor, self.phi_f, self.law,
                              self.rng)
            bounces = self.bounces.reshape(2, self.n, -1).transpose(1, 0, 2)
        return {
            "coupled": self.coupled,
            "coupling_time": self.that,
            "stage1_attempts": self.s1a,
            "stage1_successes": self.s1s,
            "stage2_attempts": self.s2a,
            "stage2_successes": self.s2s,
            "first_bounces": bounces,
            "trace": self.trace,
        }

    # -- bookkeeping ---------------------------------------------------------

    def attempted(self, stage, i, mass):
        """One attempt per replica of ``i`` at the given plateau masses;
        returns the success mask."""
        suc = self.rng.random(i.size) < mass
        att, ok = (self.s1a, self.s1s) if stage == 1 else (self.s2a, self.s2s)
        att[i] += 1
        ok[i[suc]] += 1
        if self.trace is not None:
            for m_, s_ in zip(mass, suc):
                self.trace.append(AttemptRecord(stage, bool(s_), float(m_)))
        return suc

    def record(self, f, values):
        cur = self.cursor[f]
        ok = cur < self.bounces.shape[1]
        self.bounces[f[ok], cur[ok]] = values[ok]
        self.cursor[f] += 1

    def land(self, f, th1, end):
        """Move processes ``f`` by two bounces, the first launched at
        ``th1``, to landing angle ``end``."""
        if self.recording:
            self.record(f, np.mod(self.phi_f[f] + math.pi + 2.0 * th1, TWO_PI))
            self.record(f, end)
        self.phi_f[f] = end

    def realign(self, i):
        """The earlier process of each replica in ``i`` bounces until its
        clock strictly passes the other's; the later one stays put.

        Each round draws a few bounces per lagging process and keeps them
        up to the first crossing, found from cumulative clocks.
        """
        n, B = self.n, _REALIGN_BOUNCES
        b_lags = self.clock[0, i] > self.clock[1, i]
        f = i + n * b_lags
        target = self.clock_f[i + n * ~b_lags]
        while f.size:
            th = guarded_angles(self.law, self.rng, (f.size, B))
            clock = self.clock_f[f][:, None] + np.cumsum(
                2.0 * self.r * np.cos(th), axis=1)
            phi = self.phi_f[f][:, None] + np.cumsum(math.pi + 2.0 * th,
                                                     axis=1)
            # clocks increase along a row, so crossings end every row
            crossed = clock > target[:, None]
            last = B - np.maximum(crossed.sum(axis=1), 1)
            if self.recording:
                for b in range(B):
                    kept = last >= b
                    self.record(f[kept], np.mod(phi[kept, b], TWO_PI))
            rows = np.arange(f.size)
            self.phi_f[f] = np.mod(phi[rows, last], TWO_PI)
            self.clock_f[f] = clock[rows, last]
            more = ~crossed[:, -1]
            f, target = f[more], target[more]

    # -- stage 1: clocks -----------------------------------------------------

    def stage1(self, i):
        n, r, rng = self.n, self.r, self.rng
        c = self.clock[:, i]
        lo = c.max(axis=0) + self.w1_lo
        hi = c.min(axis=0) + self.w1_hi
        wlen = hi - lo
        suc = self.attempted(1, i, self.delta * np.maximum(wlen, 0.0))

        if suc.any():
            j = i[suc]
            S = lo[suc] + rng.random(j.size) * wlen[suc]
            f = np.concatenate([j, j + n])
            th1, th2 = self.tables.conditional_pair(
                (_both(S) - self.clock_f[f]) / (2.0 * r), rng)
            self.land(f, th1, np.mod(self.phi_f[f] + TWO_PI
                                     + 2.0 * (th1 + th2), TWO_PI))
            self.clock[:, j] = S
            self.phase[j] = 2
            i, lo, hi = i[~suc], lo[~suc], hi[~suc]
        if i.size:
            self.residual_two_bounce(i, lo, hi)
            self.realign(i)

    def residual_two_bounce(self, k, lo, hi):
        """Both processes of the replicas ``k`` make two bounces whose time
        lands in the clock window [lo, hi] with the plateau removed."""
        r, law, rng, tables, delta = (self.r, self.law, self.rng,
                                      self.tables, self.delta)
        f = np.concatenate([k, k + self.n])
        c0 = self.clock_f[f]
        lo, hi = _both(lo), _both(hi)

        def propose(rows):
            th1, th2 = guarded_angles(law, rng, (2, rows.size))
            T = 2.0 * r * (np.cos(th1) + np.cos(th2))
            S = c0[rows] + T
            inw = (S >= lo[rows]) & (S <= hi[rows])
            dens = tables.pdf(T / (2.0 * r)) / (2.0 * r)
            reject = np.where(inw, np.minimum(delta / np.maximum(dens, 1e-300),
                                              1.0), 0.0)
            return (th1, th2, T), reject

        th1, th2, T = thin_residual(f.size, propose, rng)
        self.land(f, th1, np.mod(self.phi_f[f] + TWO_PI + 2.0 * (th1 + th2),
                                 TWO_PI))
        self.clock_f[f] += T

    # -- stage 2: position and time -----------------------------------------

    def stage2(self, i):
        n, r, rng = self.n, self.r, self.rng
        # the joint window is anchored at the pre-attempt positions
        aw = self.aw
        arc_lo, arc_len = arc_overlap(self.phi[0, i] - aw, 2.0 * aw,
                                      self.phi[1, i] - aw, 2.0 * aw, TWO_PI)
        lenB = self.B_hi - self.B_lo
        suc = self.attempted(
            2, i, self.level2 * (arc_len[0] + arc_len[1]) * lenB)

        if suc.any():
            j = i[suc]
            phistar = draw_arcs(arc_lo[:, suc], arc_len[:, suc],
                                rng.random(j.size), TWO_PI)
            # both clocks agree in stage 2
            dt = self.B_lo + rng.random(j.size) * lenB
            tstar = self.clock[0, j] + dt
            f = np.concatenate([j, j + n])
            end = _both(phistar)
            m = _wrap_pi(end - self.phi_f[f]) / 4.0
            z = _both(dt) / (4.0 * r)
            dd = np.arccos(np.clip(z / np.cos(m), -1.0, 1.0))
            th1 = np.where(rng.random(f.size) < 0.5, m - dd, m + dd)
            self.land(f, th1, end)
            self.clock[:, j] = tstar
            self.coupled[j] = True
            self.that[j] = tstar
            i, arc_lo, arc_len = i[~suc], arc_lo[:, ~suc], arc_len[:, ~suc]
        if i.size:
            self.residual_pair(i, arc_lo, arc_len)
            self.realign(i)
            self.phase[i] = 1

    def residual_pair(self, k, arc_lo, arc_len):
        """Both processes of the replicas ``k`` make two bounces whose
        (landing, time) lies in the joint window with the plateau
        removed."""
        r, law, rng = self.r, self.law, self.rng
        level2, B_lo, B_hi = self.level2, self.B_lo, self.B_hi
        f = np.concatenate([k, k + self.n])
        p0 = self.phi_f[f]
        arc_lo, arc_len = _both(arc_lo), _both(arc_len)

        def propose(rows):
            th = guarded_angles(law, rng, (2, rows.size))
            th1, th2 = th
            T = 2.0 * r * (np.cos(th1) + np.cos(th2))
            phip = np.mod(p0[rows] + TWO_PI + 2.0 * (th1 + th2), TWO_PI)
            member = ((T >= B_lo) & (T <= B_hi)
                      & in_arcs(phip, arc_lo.take(rows, axis=1),
                                arc_len.take(rows, axis=1), TWO_PI))
            m = 0.5 * (th1 + th2)
            dd = 0.5 * (th1 - th2)
            dens = law.density(th)
            reject = np.where(
                member,
                np.minimum(level2 * 4.0 * r * np.cos(m) * np.abs(np.sin(dd))
                           / np.maximum(dens[0] * dens[1], 1e-300), 1.0),
                0.0)
            return (th1, T, phip), reject

        th1, T, phip = thin_residual(f.size, propose, rng)
        self.land(f, th1, phip)
        self.clock_f[f] += T


def _both(x):
    """Per-replica values ``x`` (last axis) once for each process row."""
    return np.concatenate([x, x], axis=-1)


def _fill_plain_chain(bounces, cursor, phi, law, rng):
    k_max = bounces.shape[1]
    phi = phi.copy()
    while True:
        idx = np.flatnonzero(cursor < k_max)
        if idx.size == 0:
            break
        th = guarded_angles(law, rng, idx.size)
        phi[idx] = np.mod(phi[idx] + math.pi + 2.0 * th, TWO_PI)
        bounces[idx, cursor[idx]] = phi[idx]
        cursor[idx] += 1


# ---------------------------------------------------------------------------
# single-pair wrapper
# ---------------------------------------------------------------------------

def couple_process_disc(r: float, law: ReflectionLaw, start, start_b,
                        cert: RateCertificate, t_max: float,
                        rng_or_seed) -> CouplingOutcome:
    """Couple one pair of continuous-time processes in a disc.

    Accepts (position, velocity) starts; returns the coupling time (clock
    at the joint success) and per-attempt records.  See the batch runner
    for the construction.
    """
    seed = rng_or_seed if isinstance(rng_or_seed, (int, np.integer)) \
        else int(rng_or_seed.integers(1 << 62))
    trace: list[AttemptRecord] = []
    res = couple_process_disc_batch(r, law, start, start_b, cert, t_max,
                                    n_replicas=1, seed=seed, trace=trace)
    return CouplingOutcome(
        coupled=bool(res.coupled[0]),
        coupling_time=(float(res.coupling_time[0]) if res.coupled[0] else None),
        attempts=trace)
