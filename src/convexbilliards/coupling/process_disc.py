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
counter-based stream per fixed-size replica chunk.  The per-attempt success
probabilities are exactly the certified plateau masses, so the recorded
attempt statistics are directly comparable with the certificate constants.
"""

from __future__ import annotations

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
_U_GRID = 192


# ---------------------------------------------------------------------------
# two-bounce time density (table) and conditional angle sampler
# ---------------------------------------------------------------------------

class _TwoBounceTables:
    """Density of cos(A) + cos(B) for two independent law angles.

    Built on a fixed grid with a square-root substitution at the endpoint
    where the inner arccosine degenerates, which removes the integrable
    singularity of the integrand.
    """

    def __init__(self, law: ReflectionLaw):
        self.law = law
        self.m = 0.5 * law.support_width
        w_min = 2.0 * math.cos(self.m)
        self.w_grid = np.linspace(w_min + 1e-12, 2.0 - 1e-12, _T_GRID)
        n = 512
        pdf = []
        # 16 rows at a time keep the grid's temporaries small
        for w in np.array_split(self.w_grid, 128):
            _, _, wgt, t_hi = self._grid(w, n)
            # both signs of each angle, and du = 2 t dt with dt = t_hi / n
            pdf.append(8.0 * (t_hi / n) * wgt.sum(axis=1))
        self.pdf_grid = np.concatenate(pdf)

    def _grid(self, w, n):
        """The first angle's magnitude u given cos(u) + cos(v) = w, one row
        per w: n midpoints of t with u = u_hi - t^2, the matching v, and the
        weights f(u) f(v) t / sin(v) of the substitution; with t_hi."""
        cos_m = math.cos(self.m)
        u_lo = np.arccos(np.clip(np.minimum(w - cos_m, 1.0), -1.0, 1.0))
        u_hi = np.arccos(np.clip(np.maximum(w - 1.0, cos_m), -1.0, 1.0))
        t_hi = np.sqrt(np.maximum(u_hi - u_lo, 1e-300))
        t = (np.arange(n) + 0.5)[None, :] * (t_hi[:, None] / n)
        u = u_hi[:, None] - t * t
        z = w[:, None] - np.cos(u)
        v = np.arccos(np.clip(z, -1.0, 1.0))
        sin_v = np.maximum(np.sin(v), 1e-300)
        wgt = self.law.density(u) * self.law.density(v) / sin_v * t
        return u, v, wgt, t_hi

    def pdf(self, w):
        """Density of the cosine sum, interpolated from the table."""
        return np.interp(np.asarray(w, dtype=float), self.w_grid,
                         self.pdf_grid, left=0.0, right=0.0)

    def conditional_pair(self, w_targets, rng: np.random.Generator):
        """Sample (angle1, angle2) given cos(angle1) + cos(angle2) = w."""
        w_targets = np.atleast_1d(np.asarray(w_targets, dtype=float))
        n = w_targets.size
        u, v, wgt, _ = self._grid(w_targets, _U_GRID)
        cdf = np.cumsum(wgt, axis=1)
        tot = np.maximum(cdf[:, -1], 1e-300)
        pick = rng.random(n) * tot
        idx = np.minimum((cdf < pick[:, None]).sum(axis=1), _U_GRID - 1)
        rows = np.arange(n)
        sign_u = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        sign_v = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return sign_u * u[rows, idx], sign_v * v[rows, idx]


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
    first_bounces: np.ndarray | None = None  # (replicas, k) angles of process a

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
    the first process for marginal checks; ``trace`` (single replica only)
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
    tables = _TwoBounceTables(law)

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
        first_bounces=np.full((R, record_first), np.nan) if record_first else None,
    )
    if np.allclose(pos_a, pos_b) and np.allclose(vel_a, vel_b):
        out.coupled[:] = True
        out.coupling_time[:] = T0a
        if record_first:
            _fill_plain_chain(out.first_bounces, np.zeros(R, dtype=np.int64),
                              np.full(R, phi0a), law, rngmod.substream(seed, "pd-fill"))
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
    local_trace = [] if trace is not None else None
    res = _run_chunk(n, rng, r, law, tables, delta, prof2, width, eta,
                     T0a, phi0a, T0b, phi0b, t_max, record_first,
                     local_trace)
    res["trace"] = local_trace
    return res


def _run_chunk(n, rng, r, law, tables, delta, prof2, width, eta,
               T0a, phi0a, T0b, phi0b, t_max, record_first, trace):
    phi = np.full(n, phi0a)
    phit = np.full(n, phi0b)
    c = np.full(n, T0a)
    ct = np.full(n, T0b)
    phase = np.ones(n, dtype=np.int8)
    active = np.ones(n, dtype=bool)
    coupled = np.zeros(n, dtype=bool)
    that = np.full(n, np.nan)
    s1a = np.zeros(n, dtype=np.int64)
    s1s = np.zeros(n, dtype=np.int64)
    s2a = np.zeros(n, dtype=np.int64)
    s2s = np.zeros(n, dtype=np.int64)
    cursor = np.zeros(n, dtype=np.int64)
    bounces = np.full((n, record_first), np.nan) if record_first else None

    w1_lo = 4.0 * r * math.cos(0.5 * width) + eta
    w1_hi = 4.0 * r - eta
    level2 = prof2["level"]
    aw = prof2["angle_halfwidth"]
    B_lo, B_hi = prof2["t_lo"], prof2["t_hi"]

    def record(idx, values):
        if bounces is None or idx.size == 0:
            return
        cur = cursor[idx]
        ok = cur < bounces.shape[1]
        bounces[idx[ok], cur[ok]] = values[ok]
        cursor[idx] += 1

    def bounce(idx, phi_arr, clock_arr, do_record):
        th = guarded_angles(law, rng, idx.size)
        phi_arr[idx] = np.mod(phi_arr[idx] + math.pi + 2.0 * th, TWO_PI)
        clock_arr[idx] += 2.0 * r * np.cos(th)
        if do_record:
            record(idx, phi_arr[idx])

    def realign(idx):
        # the initially earlier process bounces until its clock strictly
        # passes the other's; the later process stays put
        a_lags = c[idx] <= ct[idx]
        ia = idx[a_lags]
        ib = idx[~a_lags]
        while ia.size:
            bounce(ia, phi, c, True)
            ia = ia[c[ia] <= ct[ia]]
        while ib.size:
            bounce(ib, phit, ct, False)
            ib = ib[ct[ib] <= c[ib]]

    max_ticks = 2_000_000
    for _ in range(max_ticks):
        if not np.any(active):
            break
        i1 = np.flatnonzero(active & (phase == 1))
        if i1.size:
            _stage1_tick(i1, rng, r, law, tables, delta, w1_lo, w1_hi,
                         phi, phit, c, ct, phase, s1a, s1s, record, bounce,
                         realign, trace)
        i2 = np.flatnonzero(active & (phase == 2))
        if i2.size:
            _stage2_tick(i2, rng, r, law, level2, aw, B_lo, B_hi,
                         phi, phit, c, ct, phase, coupled, that, s2a, s2s,
                         record, realign, trace)
        finished = active & (coupled | (np.minimum(c, ct) > t_max))
        active &= ~finished
    else:
        raise HorizonExceeded("coupling state machine exceeded its tick"
                              " budget")

    if bounces is not None:
        _fill_plain_chain(bounces, cursor, phi, law, rng)

    return {
        "coupled": coupled,
        "coupling_time": that,
        "stage1_attempts": s1a,
        "stage1_successes": s1s,
        "stage2_attempts": s2a,
        "stage2_successes": s2s,
        "first_bounces": bounces,
    }


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


def _stage1_tick(i, rng, r, law, tables, delta, w1_lo, w1_hi,
                 phi, phit, c, ct, phase, s1a, s1s, record, bounce, realign,
                 trace):
    lo = np.maximum(c[i], ct[i]) + w1_lo
    hi = np.minimum(c[i], ct[i]) + w1_hi
    wlen = hi - lo
    mass = delta * np.maximum(wlen, 0.0)
    suc = rng.random(i.size) < mass
    s1a[i] += 1
    s1s[i[suc]] += 1
    if trace is not None:
        for m_, s_ in zip(mass, suc):
            trace.append(AttemptRecord(1, bool(s_), float(m_)))

    j = i[suc]
    if j.size:
        S = lo[suc] + rng.random(j.size) * wlen[suc]
        for phi_arr, clock_arr, rec in ((phi, c, True), (phit, ct, False)):
            w_t = (S - clock_arr[j]) / (2.0 * r)
            th1, th2 = tables.conditional_pair(w_t, rng)
            mid = np.mod(phi_arr[j] + math.pi + 2.0 * th1, TWO_PI)
            fin = np.mod(mid + math.pi + 2.0 * th2, TWO_PI)
            if rec:
                record(j, mid)
                record(j, fin)
            phi_arr[j] = fin
        c[j] = S
        ct[j] = S
        phase[j] = 2

    k = i[~suc]
    if k.size:
        for phi_arr, clock_arr, rec in ((phi, c, True), (phit, ct, False)):
            _residual_two_bounce(k, rng, r, law, tables, delta,
                                 lo[~suc], hi[~suc], phi_arr, clock_arr,
                                 rec, record)
        realign(k)


def _residual_two_bounce(k, rng, r, law, tables, delta, lo, hi,
                         phi_arr, clock_arr, rec, record):
    def propose(rows):
        th1 = guarded_angles(law, rng, rows.size)
        th2 = guarded_angles(law, rng, rows.size)
        T = 2.0 * r * (np.cos(th1) + np.cos(th2))
        S = clock_arr[k[rows]] + T
        inw = (S >= lo[rows]) & (S <= hi[rows])
        dens = tables.pdf(T / (2.0 * r)) / (2.0 * r)
        reject = np.where(inw, np.minimum(delta / np.maximum(dens, 1e-300),
                                          1.0), 0.0)
        return (th1, th2, T), reject

    th1, th2, T = thin_residual(k.size, propose, rng)
    mid = np.mod(phi_arr[k] + math.pi + 2.0 * th1, TWO_PI)
    fin = np.mod(mid + math.pi + 2.0 * th2, TWO_PI)
    if rec:
        record(k, mid)
        record(k, fin)
    phi_arr[k] = fin
    clock_arr[k] += T


def _stage2_tick(i, rng, r, law, level2, aw, B_lo, B_hi,
                 phi, phit, c, ct, phase, coupled, that, s2a, s2s,
                 record, realign, trace):
    # the joint window is anchored at the pre-attempt positions
    arc_lo, arc_len = arc_overlap(phi[i] - aw, 2.0 * aw, phit[i] - aw,
                                  2.0 * aw, TWO_PI)
    lenB = B_hi - B_lo
    mass = level2 * (arc_len[0] + arc_len[1]) * lenB
    suc = rng.random(i.size) < mass
    s2a[i] += 1
    s2s[i[suc]] += 1
    if trace is not None:
        for m_, s_ in zip(mass, suc):
            trace.append(AttemptRecord(2, bool(s_), float(m_)))

    j = i[suc]
    if j.size:
        phistar = draw_arcs(arc_lo[:, suc], arc_len[:, suc],
                            rng.random(j.size), TWO_PI)
        tstar = c[j] + B_lo + rng.random(j.size) * lenB
        for phi_arr in (phi, phit):
            rel = _wrap_pi(phistar - phi_arr[j])
            m = rel / 4.0
            z = (tstar - c[j]) / (4.0 * r)
            dd = np.arccos(np.clip(z / np.cos(m), -1.0, 1.0))
            swap = rng.random(j.size) < 0.5
            th1 = np.where(swap, m - dd, m + dd)
            th2 = np.where(swap, m + dd, m - dd)
            mid = np.mod(phi_arr[j] + math.pi + 2.0 * th1, TWO_PI)
            if phi_arr is phi:
                record(j, mid)
                record(j, phistar)
            phi_arr[j] = phistar
        c[j] = tstar
        ct[j] = tstar
        coupled[j] = True
        that[j] = tstar

    k = i[~suc]
    if k.size:
        for phi_arr, clock_arr, rec in ((phi, c, True), (phit, ct, False)):
            _residual_pair(k, rng, r, law, level2, arc_lo[:, ~suc],
                           arc_len[:, ~suc], B_lo, B_hi, phi_arr, clock_arr,
                           rec, record)
        realign(k)
        phase[k] = 1


def _residual_pair(k, rng, r, law, level2, arc_lo, arc_len, B_lo, B_hi,
                   phi_arr, clock_arr, rec, record):
    def propose(rows):
        th1 = guarded_angles(law, rng, rows.size)
        th2 = guarded_angles(law, rng, rows.size)
        T = 2.0 * r * (np.cos(th1) + np.cos(th2))
        phip = np.mod(phi_arr[k[rows]] + TWO_PI + 2.0 * (th1 + th2), TWO_PI)
        member = ((T >= B_lo) & (T <= B_hi)
                  & in_arcs(phip, arc_lo.take(rows, axis=1),
                            arc_len.take(rows, axis=1), TWO_PI))
        m = 0.5 * (th1 + th2)
        dd = 0.5 * (th1 - th2)
        f12 = law.density(th1) * law.density(th2)
        reject = np.where(
            member,
            np.minimum(level2 * 4.0 * r * np.cos(m) * np.abs(np.sin(dd))
                       / np.maximum(f12, 1e-300), 1.0),
            0.0)
        return (th1, T, phip), reject

    th1, T, phip = thin_residual(k.size, propose, rng)
    if rec:
        record(k, np.mod(phi_arr[k] + math.pi + 2.0 * th1, TWO_PI))
        record(k, phip)
    phi_arr[k] = phip
    clock_arr[k] += T


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
