"""The lockstep engine of the two-stage process coupling, for any body.

Stage one couples the *clocks*: both processes make one block of bounces
whose accumulated hitting times are plateau-coupled on the clock window
[later clock + a, earlier clock + b].  Once the clocks agree, stage two
couples landing point and time jointly, and success makes the processes
equal forever.  After a failed attempt each process draws its residual
block by thinning (``coupling.base``), the earlier one bounces until its
clock passes the other's, and stage one resumes.  The per-attempt success
probabilities are exactly the certified plateau masses.

``_Processes`` runs this state machine for many replicas in lockstep on one
stream per fixed-size replica chunk: the tick loop and its budget, attempt
counters and trace, realignment, first hits and first-bounce recording.
A tick (``ticks`` sums them over chunks) gives each live replica a
stage-one attempt and, where that succeeds, a stage-two attempt; it costs
mostly numpy's call overhead (disc: 0.3 ms, 2 x86 cores).
``process_disc`` (two-bounce tables and the pair profile of a disc) and
``process_convex`` (time boxes and bisector windows of a general body)
subclass it with their blocks and joint windows.

Each stage builds the flat indices ``f`` of both processes of its replicas
(process a's, then b's) and passes them with one value per process:
``block_to(f, total)`` makes blocks of flight time ``total``,
``block_residual(f, lo, hi)`` residual blocks whose clocks end in
[lo, hi], and ``residual2(f, win)`` residual blocks on stage two's windows.
``couple2(f, win)`` makes the common block on each replica's window from
``window2(i)`` and advances the equal clocks by its time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..dynamics import guarded_angles, run_chain_ensemble
from ..errors import HorizonExceeded
from ..parallel import map_jobs
from .base import AttemptRecord, CouplingOutcome

_REALIGN_BOUNCES = 4  # bounces drawn per lagging process per round
_MAX_TICKS = 2_000_000
_FIELDS = ("coupled", "coupling_time", "stage1_attempts", "stage1_successes",
           "stage2_attempts", "stage2_successes")


@dataclass
class BatchCouplingResult:
    coupled: np.ndarray          # bool per replica
    coupling_time: np.ndarray    # clock of coupling, NaN when uncoupled
    stage1_attempts: np.ndarray
    stage1_successes: np.ndarray
    stage2_attempts: np.ndarray
    stage2_successes: np.ndarray
    # (replicas, 2, k) landing arcs on any body of processes a and b; the
    # two rows of a coupled replica agree from their common landing on
    first_bounces: np.ndarray | None = None
    ticks: int = 0               # 0 when the first hits agree

    @property
    def stage1_rate(self) -> float:
        return float(self.stage1_successes.sum() / max(self.stage1_attempts.sum(), 1))

    @property
    def stage2_rate(self) -> float:
        return float(self.stage2_successes.sum() / max(self.stage2_attempts.sum(), 1))


def _run_batch(cls, setup, body, law, start_a, start_b, t_max, n_replicas,
               seed, record_first, trace, workers) -> BatchCouplingResult:
    """Couple ``n_replicas`` pairs of processes on the engine ``cls``,
    built with the keyword arguments ``setup`` that the certificate fixes.

    Replicas share the deterministic first flight and then evolve on
    independent chunk streams, so any worker count reproduces the same
    arrays.  Processes whose first hits agree exactly (clock and landing)
    are coupled there.
    """
    hits = [body.exit_ray(np.asarray(pos, float),
                          np.asarray(vel, float) / np.hypot(*vel))
            for pos, vel in (start_a, start_b)]
    clock0, s0 = [h[0] for h in hits], [h[1].s for h in hits]

    R = int(n_replicas)
    out = BatchCouplingResult(
        np.zeros(R, dtype=bool), np.full(R, np.nan),
        *np.zeros((4, R), dtype=np.int64),
        first_bounces=(np.full((R, 2, record_first), np.nan)
                       if record_first else None))
    if clock0[0] == clock0[1] and s0[0] == s0[1]:
        out.coupled[:] = True
        out.coupling_time[:] = clock0[0]
        if record_first:
            # both processes are one free chain from the common first hit
            out.first_bounces[:] = run_chain_ensemble(
                body, law, np.full(R, s0[0]), record_first,
                rngmod.substream(seed, "process-fill"))[1:].T[:, None]
        return out

    chunks = rngmod.chunk_streams(seed, cls.stream_tag, R)
    keep_trace = trace is not None and len(chunks) == 1
    jobs = [(cls, setup, t_max, (hi - lo, gen, body, law, body.to_native(s0),
                                 clock0, record_first,
                                 [] if keep_trace else None))
            for lo, hi, gen in chunks]
    for (lo, hi, _), res in zip(chunks, map_jobs(_chunk_job, jobs, workers)):
        sl = slice(lo, hi)
        for name in _FIELDS:
            getattr(out, name)[sl] = res[name]
        if record_first:
            out.first_bounces[sl] = res["first_bounces"]
        out.ticks += res["ticks"]
        if trace is not None and res.get("trace"):
            trace.extend(res["trace"])
    return out


def _chunk_job(args):
    cls, setup, t_max, common = args
    return cls(*common, **setup).run(t_max)


def _one_replica(batch, args, t_max, rng_or_seed) -> CouplingOutcome:
    """One replica of ``batch(*args, t_max, ...)`` with its attempt trace;
    a generator in place of a seed supplies the seed."""
    seed = rng_or_seed if isinstance(rng_or_seed, (int, np.integer)) \
        else int(rng_or_seed.integers(1 << 62))
    trace: list[AttemptRecord] = []
    res = batch(*args, t_max, n_replicas=1, seed=seed, trace=trace)
    return CouplingOutcome(
        coupled=bool(res.coupled[0]),
        coupling_time=(float(res.coupling_time[0]) if res.coupled[0] else None),
        attempts=trace)


class _Processes:
    """``n`` replica pairs of processes on one stream, coupled in lockstep.

    Row 0 of ``u`` (the body's native coordinate of the last landing) and
    ``clock`` (its hitting time) holds process a of every replica, row 1
    process b.  Flat index ``f`` of the views ``u_f`` and ``clock_f``
    addresses process ``f // n`` of replica ``f % n``, so one call serves
    any set of processes of either row.  A subclass sets ``stream_tag``,
    stage one's window offsets ``w1`` and level ``level1``, and the hooks.
    """

    def __init__(self, n, rng, body, law, u0, clock0, record_first, trace):
        self.n, self.rng, self.body, self.law = n, rng, body, law
        self.u = np.repeat(np.asarray(u0, float)[:, None], n, axis=1)
        self.clock = np.repeat(np.asarray(clock0, float)[:, None], n, axis=1)
        self.u_f = self.u.reshape(-1)
        self.clock_f = self.clock.reshape(-1)
        self.coupled = np.zeros(n, dtype=bool)
        self.coupling_time = np.full(n, np.nan)
        # attempts and successes of stage one, then of stage two
        self.counts = np.zeros((2, 2, n), dtype=np.int64)
        # landing arcs per process (flat index), and how many were kept;
        # recording stops once every live process has its first k
        self.bounces = (np.full((2 * n, record_first), np.nan)
                        if record_first else None)
        self.cursor = np.zeros(2 * n, dtype=np.int64)
        self.recording = bool(record_first)
        self.trace = trace

    def run(self, t_max) -> dict:
        live = np.arange(self.n)   # replicas neither coupled nor past t_max
        for ticks in range(_MAX_TICKS):
            if not live.size:
                break
            # every live replica starts a tick in stage one; those whose
            # clocks couple go on to stage two in the same tick
            j = self.stage1(live)
            if j.size:
                self.stage2(j)
            a, b = self.clock[0][live], self.clock[1][live]
            live = live[~(self.coupled[live] | (np.minimum(a, b) > t_max))]
            if self.recording:
                self.recording = bool((self.cursor.reshape(2, -1)[:, live]
                                       < self.bounces.shape[1]).any())
        else:
            raise HorizonExceeded("coupling state machine exceeded its tick"
                                  " budget")
        bounces = None
        if self.bounces is not None:
            self.fill()
            bounces = self.bounces.reshape(2, self.n, -1).transpose(1, 0, 2)
        return dict(zip(_FIELDS, (self.coupled, self.coupling_time,
                                  *self.counts.reshape(4, -1))),
                    first_bounces=bounces, trace=self.trace, ticks=ticks)

    # -- the two stages ------------------------------------------------------

    def stage1(self, i):
        """One stage-one attempt per replica of ``i``; returns the replicas
        whose clocks coupled, each at a common clock."""
        a, b = self.clock[0][i], self.clock[1][i]
        lo = np.maximum(a, b) + self.w1[0]
        hi = np.minimum(a, b) + self.w1[1]
        wlen = hi - lo
        suc, j = self.attempted(1, i, self.level1 * np.maximum(wlen, 0.0))
        if j.size:
            S = lo[suc] + self.rng.random(j.size) * wlen[suc]
            self.block_to(np.concatenate([j, j + self.n]),
                          (S - self.clock[:, j]).ravel())
            self.clock[:, j] = S
            i, lo, hi = i[~suc], lo[~suc], hi[~suc]
        if i.size:
            self.block_residual(np.concatenate([i, i + self.n]), _both(lo),
                                _both(hi))
            self.realign(i)
        return j

    def stage2(self, i):
        # windows at the pre-attempt positions, one replica per last index
        mass, win = self.window2(i)
        suc, j = self.attempted(2, i, mass)
        if j.size:
            self.couple2(np.concatenate([j, j + self.n]), win[..., suc])
            self.coupled[j] = True
            self.coupling_time[j] = self.clock[0][j]
            i, win = i[~suc], win[..., ~suc]
        if i.size:
            self.residual2(np.concatenate([i, i + self.n]), _both(win))
            self.realign(i)

    # -- bookkeeping ---------------------------------------------------------

    def attempted(self, stage, i, mass):
        """One attempt per replica of ``i`` at the given plateau masses;
        returns the success mask and the replicas that succeeded."""
        suc = self.rng.random(i.size) < mass
        j = i[suc]
        self.counts[stage - 1, 0][i] += 1
        self.counts[stage - 1, 1][j] += 1
        if self.trace is not None:
            for m_, s_ in zip(mass, suc):
                self.trace.append(AttemptRecord(stage, bool(s_), float(m_)))
        return suc, j

    def record(self, f, arcs):
        cur = self.cursor[f]
        ok = cur < self.bounces.shape[1]
        self.bounces[f[ok], cur[ok]] = arcs[ok]
        self.cursor[f] += 1

    def land(self, f, u, arcs):
        """Processes ``f`` end at native ``u``; ``arcs()`` gives the arc of
        every landing on the way, one row per bounce, and is only called
        while the first bounces are recorded."""
        if self.recording:
            for row in arcs():
                self.record(f, row)
        self.u_f[f] = u

    def _flights(self, f, th):
        """Native coordinates and clocks of the processes ``f`` after each
        plain bounce on the angles ``th`` (one row per process)."""
        u = np.empty(th.shape)
        clock = np.empty(th.shape)
        tau = np.empty(th.shape[::-1])
        ck = self.clock_f[f]
        for b, uk in enumerate(self.body.walk(self.u_f[f], th.T, tau)):
            ck = ck + tau[b]
            u[:, b], clock[:, b] = uk, ck
        return u, clock

    def realign(self, i):
        """The earlier process of each replica in ``i`` bounces until its
        clock strictly passes the other's; the later one stays put.

        Each round draws a few bounces per lagging process and keeps them
        up to the first crossing.
        """
        n, B = self.n, _REALIGN_BOUNCES
        a, b = self.clock[0][i], self.clock[1][i]
        f = i + n * (a > b)
        target = np.maximum(a, b)
        while f.size:
            u, clock = self._flights(
                f, guarded_angles(self.law, self.rng, (f.size, B)))
            # clocks increase along a row, so crossings end every row
            crossings = (clock > target[:, None]).sum(axis=1)
            last = B - np.maximum(crossings, 1)
            if self.recording:
                for k in range(B):
                    kept = last >= k
                    self.record(f[kept], self.body.to_arc(u[kept, k]))
            rows = np.arange(f.size)
            self.u_f[f] = u[rows, last]
            self.clock_f[f] = clock[rows, last]
            behind = crossings == 0
            f, target = f[behind], target[behind]

    def fill(self):
        """Plain bounces until every process has its first k landings.

        A coupled replica is one chain from its common landing, written
        into both rows at their own cursors.  Every pending row still draws
        one angle per round, so no fill depends on which replicas coupled.
        """
        n, k = self.n, self.bounces.shape[1]
        u = self.u_f.copy()
        while True:
            f = np.flatnonzero(self.cursor < k)
            if f.size == 0:
                break
            th = guarded_angles(self.law, self.rng, f.size)
            # row b of a coupled replica follows its pending row a
            lead = ~(self.coupled[f % n] & (f >= n)
                     & (self.cursor[f % n] < k))
            f, th = f[lead], th[lead]
            u[f] = self.body.bounce(u[f], th)[0]
            arcs = self.body.to_arc(u[f])
            self.record(f, arcs)
            joint = self.coupled[f % n]
            mate = (f[joint] + n) % (2 * n)
            u[mate] = u[f[joint]]
            self.record(mate, arcs[joint])


def _both(x):
    """Per-replica values ``x`` (last axis) once for each process row."""
    return np.concatenate([x, x], axis=-1)
