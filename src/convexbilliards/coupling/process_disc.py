"""Two-stage coupling of the continuous-time billiard in a disc.

The disc's two stages on the lockstep engine of ``coupling.process``.  A
block is two bounces.  Stage one plateau-couples the two-bounce hitting
times on the certified window (floor delta, guaranteed overlap h): on
success both processes draw their angle pairs from the conditional law of
the two-bounce time (``_TwoBounceTables``), and on failure the residual
two-bounce time law by thinning.  Stage two couples landing angle and time
jointly on the product window of the pair profile, and its success pins
both processes to one landing at one clock.  Realignment bounces run in
closed form, several per lagging process at once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..dynamics import guarded_angles
from ..errors import HypothesisViolated
from ..geometry import Disc, TWO_PI
from ..rates import RateCertificate, disc_pair_profile
from ..reflection import ReflectionLaw
from .base import (CouplingOutcome, _wrap_pi, arc_overlap, draw_arcs,
                   in_arcs, thin_residual)
from .process import (BatchCouplingResult, _both, _one_replica, _Processes,
                      _run_batch)

_T_GRID = 2049
_T_CELLS = 512       # substituted-angle cells per w-node of the tables
_U_GRID = 192        # probability steps of the conditional inverse CDF


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
        u_lo = np.arccos(np.minimum(w - cos_m, 1.0).clip(-1.0, 1.0))
        u_hi = np.arccos(np.maximum(w - 1.0, cos_m).clip(-1.0, 1.0))
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

    def conditional_pair(self, w_targets, rng: np.random.Generator):
        """Sample (angle1, angle2) given cos(angle1) + cos(angle2) = w.

        The magnitude of angle1 comes from the inverse-CDF table,
        interpolated in w and in probability; angle2 is the arccosine of
        w - cos(angle1), so the constraint holds to rounding.
        """
        w = np.atleast_1d(np.asarray(w_targets, dtype=float))
        w0, dw = self.w_grid[0], self.w_grid[1] - self.w_grid[0]
        pos = ((w - w0) / dw).clip(0.0, _T_GRID - 1.0)
        i0 = np.minimum(pos.astype(np.intp), _T_GRID - 2)
        fw = pos - i0
        p = rng.random(w.size) * _U_GRID
        j0 = np.minimum(p.astype(np.intp), _U_GRID - 1)
        fp = p - j0
        # one flat index reads the same elements as q[i0, j0] and neighbours
        row = _U_GRID + 1
        q, k = self.quantiles.ravel(), i0 * row + j0
        tau = ((1.0 - fw) * ((1.0 - fp) * q[k] + fp * q[k + 1])
               + fw * ((1.0 - fp) * q[k + row] + fp * q[k + row + 1]))
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
    h = (0.5 * (2.0 - w) - np.sin(0.5 * u) ** 2).clip(0.0, 1.0)
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
    outcome arrays.  ``record_first`` keeps the first k landing arcs of
    both processes for marginal checks; ``trace`` (single replica only)
    collects per-attempt records.
    """
    if cert.kind != "disc_process":
        raise HypothesisViolated("certificate kind must be disc_process")
    width = cert.inputs["width"]
    if not (2.0 * math.pi / 3.0 < width < math.pi):
        raise HypothesisViolated("certified width outside (2*pi/3, pi)")
    setup = dict(tables=_cached_two_bounce_tables(law), width=width,
                 eta=cert.inputs["eta"], delta=cert.constants["delta"],
                 prof2=disc_pair_profile(r, width, cert.inputs["floor"],
                                         cert.inputs["eps"]))
    return _run_batch(_DiscProcesses, setup, Disc(r), law, start_a, start_b,
                      t_max, n_replicas, seed, record_first, trace, workers)


def couple_process_disc(r: float, law: ReflectionLaw, start, start_b,
                        cert: RateCertificate, t_max: float,
                        rng_or_seed) -> CouplingOutcome:
    """Couple one pair of continuous-time processes in a disc: the
    one-replica call of ``couple_process_disc_batch``, with the coupling
    time (clock at the joint success) and per-attempt records."""
    return _one_replica(couple_process_disc_batch,
                        (r, law, start, start_b, cert), t_max, rng_or_seed)


class _DiscProcesses(_Processes):
    """The lockstep engine with the disc's blocks of two bounces; the
    native coordinate is the landing angle."""

    stream_tag = "process-disc"

    def __init__(self, *common, tables, width, eta, delta, prof2):
        super().__init__(*common)
        self.r = r = self.body.r
        self.tables = tables
        self.w1 = (4.0 * r * math.cos(0.5 * width) + eta, 4.0 * r - eta)
        self.level1 = delta
        self.level2, self.aw, self.B_lo, self.B_hi = (
            prof2[k] for k in ("level", "angle_halfwidth", "t_lo", "t_hi"))

    def _flights(self, f, th):
        # the polar recursion summed in closed form over the round
        return (np.mod(self.u_f[f][:, None]
                       + np.add.accumulate(math.pi + 2.0 * th, 1), TWO_PI),
                self.clock_f[f][:, None]
                + np.add.accumulate(2.0 * self.r * np.cos(th), 1))

    def land2(self, f, u0, th1, end):
        """Processes ``f`` leave ``u0`` at ``th1`` and land at ``end``."""
        self.land(f, end, lambda: self.body.to_arc(
            np.stack([u0 + math.pi + 2.0 * th1, end])))

    # -- stage 1: clocks -----------------------------------------------------

    def block_to(self, f, total):
        u0 = self.u_f[f]
        th1, th2 = self.tables.conditional_pair(total / (2.0 * self.r),
                                                self.rng)
        self.land2(f, u0, th1, np.mod(u0 + TWO_PI + 2.0 * (th1 + th2), TWO_PI))

    def block_residual(self, f, lo, hi):
        """The processes ``f`` make two bounces whose time lands in their
        clock windows [lo, hi] with the plateau removed."""
        r, law, rng, delta = self.r, self.law, self.rng, self.level1
        w_grid, pdf_grid = self.tables.w_grid, self.tables.pdf_grid
        u0, c0 = self.u_f[f], self.clock_f[f]

        def propose(rows):
            th1, th2 = guarded_angles(law, rng, (2, rows.size))
            T = 2.0 * r * (np.cos(th1) + np.cos(th2))
            S = c0[rows] + T
            inw = (S >= lo[rows]) & (S <= hi[rows])
            dens = np.interp(T / (2.0 * r), w_grid, pdf_grid,
                             left=0.0, right=0.0) / (2.0 * r)
            reject = np.where(inw, np.minimum(delta / np.maximum(dens, 1e-300),
                                              1.0), 0.0)
            return (th1, th2, T), reject

        th1, th2, T = thin_residual(f.size, propose, rng)
        self.land2(f, u0, th1, np.mod(u0 + TWO_PI + 2.0 * (th1 + th2), TWO_PI))
        self.clock_f[f] = c0 + T

    # -- stage 2: position and time -----------------------------------------

    def window2(self, i):
        aw = self.aw
        win = arc_overlap(self.u[0][i] - aw, 2.0 * aw,
                          self.u[1][i] - aw, 2.0 * aw, TWO_PI)
        lenB = self.B_hi - self.B_lo
        return self.level2 * (win[1, 0] + win[1, 1]) * lenB, win

    def couple2(self, f, win):
        r, rng, k = self.r, self.rng, win.shape[-1]
        end = _both(draw_arcs(win[0], win[1], rng.random(k), TWO_PI))
        dt = _both(self.B_lo + rng.random(k) * (self.B_hi - self.B_lo))
        u0 = self.u_f[f]
        m = _wrap_pi(end - u0) / 4.0
        z = dt / (4.0 * r)
        dd = np.arccos(np.clip(z / np.cos(m), -1.0, 1.0))
        th1 = np.where(rng.random(f.size) < 0.5, m - dd, m + dd)
        self.land2(f, u0, th1, end)
        # both clocks agree in stage 2
        self.clock_f[f] += dt

    def residual2(self, f, win):
        """The processes ``f`` make two bounces whose (landing, time) lies
        in their joint windows with the plateau removed."""
        r, law, rng = self.r, self.law, self.rng
        level2, B_lo, B_hi = self.level2, self.B_lo, self.B_hi
        u0 = self.u_f[f]

        def propose(rows):
            th = guarded_angles(law, rng, (2, rows.size))
            th1, th2 = th[0], th[1]
            T = 2.0 * r * (np.cos(th1) + np.cos(th2))
            phip = np.mod(u0[rows] + TWO_PI + 2.0 * (th1 + th2), TWO_PI)
            member = ((T >= B_lo) & (T <= B_hi)
                      & in_arcs(phip, *win.take(rows, axis=-1), TWO_PI))
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
        self.land2(f, u0, th1, phip)
        self.clock_f[f] += T
