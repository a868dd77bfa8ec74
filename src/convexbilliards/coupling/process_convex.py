"""Two-stage coupling of the continuous-time billiard in a convex body.

The general body's blocks on the lockstep engine of ``coupling.process``.
Stage one's block is n0 bounces, plateau-coupled on the product of
per-bounce flight-time windows [0, 2/C] at level (c floor)^n0 zeta^(n0-1).
Stage one realises all its common totals at once: flight times drawn
exactly uniform on the box slice (density ``box_slice_volume``), then at
each hop a launch angle with that chord time, weighted over the chord-time
branches.  Stage two couples landing point and time on the bisector
windows, where the bridge is deterministic because the two-leg path time is
strictly monotone in the first landing.  Chord times and bridges are
inverted for many pairs at once, bracketed by one scan and solved by
``geometry._safeguarded_newton`` on exact derivatives.  Residual blocks are
plain bounces of ``dynamics._walk``, thinned by the level over their density.
Certified per-attempt masses are tiny on realistic bodies, so finite
horizons routinely end uncoupled, and the outcome records that.
"""

from __future__ import annotations

import math

import numpy as np

from ..dynamics import _walk, guarded_angles, landing_density
from ..errors import (GeometryDegenerate, HypothesisViolated,
                      NoAdmissibleWindow, ResidualSamplingError)
from ..geometry import (ConvexBody, _safeguarded_newton, _sign_change_cells,
                        _turn)
from ..rates import (RateCertificate, RateParams, _path_time, _path_time_dds,
                     bisector_window_geometry)
from ..reflection import ReflectionLaw
from .base import CouplingOutcome, in_arcs, thin_residual
from .process import (BatchCouplingResult, _both, _one_replica, _Processes,
                      _run_batch)


# ---------------------------------------------------------------------------
# box-slice volumes (n-fold convolution of an interval indicator)
# ---------------------------------------------------------------------------

def box_slice_volume(t, n: int, w: float):
    """(n-1)-volume of the slice {sum tau = t} of the box [0, w]^n."""
    x = np.asarray(t, dtype=float) / w
    if n == 1:
        out = ((x >= 0.0) & (x <= 1.0)).astype(float)
    else:
        # the n-fold convolution of the unit interval's indicator,
        # rescaled to [0, w]^n
        out = sum((-1.0) ** k * math.comb(n, k)
                  * np.maximum(x - k, 0.0) ** (n - 1) for k in range(n + 1))
        out = np.where((x >= 0.0) & (x <= n),
                       out / math.factorial(n - 1) * w ** (n - 1), 0.0)
    return out if out.ndim else float(out)


def _slice_times(total, n: int, w: float, rng: np.random.Generator):
    """Flight times uniform on the box slice {tau in [0, w]^n : sum = total},
    one row of n per entry of the array ``total``.

    The gaps of n - 1 sorted uniforms on [0, t] are uniform on the simplex
    {tau >= 0 : sum = t} (Devroye, *Non-Uniform Random Variate Generation*,
    1986, ch. V); ``thin_residual`` redraws a row until its gaps fit in
    [0, w].  A total above n w / 2 is drawn as w - tau for n w - total, so
    a round keeps a row at least as often as at the slice's midpoint.
    """
    flip = total > 0.5 * n * w
    t = np.where(flip, n * w - total, total)[:, None]

    def propose(rows):
        cuts = np.sort(rng.random((rows.size, n - 1)), axis=1) * t[rows]
        tau = np.diff(cuts, axis=1, prepend=0.0, append=t[rows])
        return (tau,), lambda _: tau.max(axis=1) > w

    (tau,) = thin_residual(total.size, propose, rng)
    return np.where(flip[:, None], w - tau, tau)


# ---------------------------------------------------------------------------
# chord-time inversion
# ---------------------------------------------------------------------------

# launch angles scanned for chord-time roots, short of the tangents
_THETA_SCAN = np.linspace(-(0.5 * math.pi - 1e-7), 0.5 * math.pi - 1e-7, 129)
_CHORD_NEWTON, _BRIDGE_NEWTON = 8, 4  # Newton steps of the two inversions


def _chord_branches(body, law, u, tau):
    """Launch angles whose chord time from native ``u`` equals ``tau``, for
    1-d arrays of (u, tau) pairs: (pair index, angle, weight) of every root
    of weight f(theta)/|d tau/d theta| > 0, ordered by pair and then angle.
    Cells of one scan bracket the roots, and Newton steps solve them on
    the exact d tau/d theta = -tau (e' . n)/(e . n), e the launch
    direction, e' e turned by pi/2, n the inward normal at the landing."""
    u, tau = np.atleast_1d(u), np.atleast_1d(tau)
    vals = body.bounce(u[:, None], _THETA_SCAN)[1] - tau[:, None]
    k, i = _sign_change_cells(vals, periodic=False)
    lo, hi = _THETA_SCAN[i], _THETA_SCAN[i + 1]
    _, _, nx, ny = body.frame(u[k])
    sign = np.where(vals[k, i] > 0.0, 1.0, -1.0)  # Newton's f > 0 at lo

    def chord(theta):
        land, t = body.bounce(u[k], theta)
        ex, ey = _turn(nx, ny, theta)
        _, _, mx, my = body.frame(land)
        return t - tau[k], -t * (ex * my - ey * mx) / (ex * mx + ey * my)

    def newton(theta):
        g, dg = chord(theta)
        return sign * g, g / dg

    theta = np.where(vals[k, i] == 0.0, lo,
                     _safeguarded_newton(newton, lo, hi, _CHORD_NEWTON))
    weight = law.density(theta) / np.maximum(np.abs(chord(theta)[1]), 1e-12)
    keep = weight > 0.0
    return k[keep], theta[keep], weight[keep]


def couple_process_convex_batch(body: ConvexBody, law: ReflectionLaw,
                                start_a, start_b, cert: RateCertificate,
                                t_max: float, n_replicas: int, seed: int,
                                record_first: int = 0,
                                trace: list | None = None,
                                workers: int = 1) -> BatchCouplingResult:
    """Run the two-stage coupling on a convex body for many replicas.

    Takes the arguments of ``couple_process_disc_batch``, with the body in
    place of the radius.  Requires a law with a positive floor on the full
    half-circle (the joint windows assume every boundary point is
    reachable in one bounce).
    """
    if cert.kind != "convex_process":
        raise HypothesisViolated("certificate kind must be convex_process")
    floor = cert.inputs["floor"]
    if law.floor_on(math.pi) <= 0.0:
        raise HypothesisViolated("convex process coupling needs a density"
                                 " floor on the full half-circle")
    params = RateParams(**{k: cert.inputs.get(k)
                           for k in ("eps", "beta", "delta", "zeta")})
    summary = body.summarize()
    n0 = cert.constants["n0"]
    setup = dict(n0=n0, zeta=params.zeta, w_box=2.0 / summary.curvature_max,
                 level1=((summary.curvature_min * floor) ** n0
                         * params.zeta ** (n0 - 1)),
                 floor=floor, params=params)
    return _run_batch(_ConvexProcesses, setup, body, law, start_a, start_b,
                      t_max, n_replicas, seed, record_first, trace, workers)


def couple_process_convex(body: ConvexBody, law: ReflectionLaw, start, start_b,
                          cert: RateCertificate, t_max: float,
                          rng_or_seed) -> CouplingOutcome:
    """Couple two continuous-time processes on a convex body: the
    one-replica call of ``couple_process_convex_batch``, with the coupling
    time if the joint stage succeeds within the horizon and the attempts."""
    return _one_replica(couple_process_convex_batch,
                        (body, law, start, start_b, cert), t_max, rng_or_seed)


class _ConvexProcesses(_Processes):
    """The lockstep engine with a general body's blocks: n0 bounces in
    stage one, two bounces on the bisector windows in stage two."""

    stream_tag = "process-convex"

    def __init__(self, *common, n0, zeta, w_box, level1, floor, params):
        super().__init__(*common)
        self.n0, self.w_box, self.level1 = n0, w_box, level1
        self.w1 = ((n0 - 1) * zeta, n0 * w_box - (n0 - 1) * zeta)
        self.floor, self.params = floor, params

    # -- stage 1: clocks -----------------------------------------------------

    def block_to(self, f, total):
        path, _ = _realise_block_times(self.body, self.law, self.u_f[f],
                                       total, self.n0, self.w_box, self.rng)
        self.land(f, path[-1], lambda: self.body.to_arc(path))

    def block_residual(self, f, lo, hi):
        """The processes ``f`` make n0 bounces whose total time lands in
        their clock windows [lo, hi] with the plateau removed."""
        body, law, rng, n0, w_box = (self.body, self.law, self.rng, self.n0,
                                     self.w_box)
        u0, c0 = self.u_f[f], self.clock_f[f]

        def propose(rows):
            s, tau = np.empty((2, n0, rows.size))
            u = _walk(body, u0[rows],
                      guarded_angles(law, rng, (n0, rows.size)), s, tau)
            T = tau.sum(axis=0)
            member = ((c0[rows] + T >= lo[rows]) & (c0[rows] + T <= hi[rows])
                      & np.all(tau <= w_box, axis=0))
            m = np.flatnonzero(member)
            # the block's time density: the slice of the box times the hop
            # time densities along the path, one row per hop
            u_prev = np.vstack([u0[rows[m]], body.to_native(s[:-1, m])])
            pair, _, w = _chord_branches(body, law, u_prev.ravel(),
                                         tau[:, m].ravel())
            hop = np.bincount(pair, w, minlength=u_prev.size).reshape(n0, -1)
            box = box_slice_volume(T[m], n0, w_box)
            reject = np.zeros(rows.size)
            reject[m] = np.minimum(self.level1 / np.maximum(box, 1e-300)
                                   / np.maximum(hop, 1e-300).prod(axis=0), 1.0)
            return (s.T, u, T), lambda w: w < reject

        s, u, T = thin_residual(f.size, propose, rng)
        self.land(f, u, lambda: s.T)
        self.clock_f[f] += T

    # -- stage 2: position and time -----------------------------------------

    def window2(self, i):
        """Bisector windows of the replicas ``i``: rows R1, R2, patch and
        target arcs (lo, length) and level; all zero (no mass, no plateau)
        for a pair without a window."""
        body = self.body
        win = np.zeros((7, i.size))
        s = body.to_arc(self.u[:, i])
        for m, p in enumerate(i):
            try:
                w = bisector_window_geometry(
                    body, body.point_of(s[0, m], self.u[0, p]),
                    body.point_of(s[1, m], self.u[1, p]), self.params)
            except (GeometryDegenerate, NoAdmissibleWindow):
                continue
            win[:, m] = (w.R1, w.R2, w.s_ybar - w.eps, 2.0 * w.eps,
                         w.I_star[0], w.I_star[1] - w.I_star[0],
                         w.eta_level * self.floor ** 2)
        return win[6] * win[5] * (win[1] - win[0]), win

    def couple2(self, f, win):
        body, rng, k = self.body, self.rng, win.shape[-1]
        R1, R2, p_lo, p_len, t_lo, t_len, _ = win
        t_land = body.wrap(t_lo + rng.random(k) * t_len)
        u_time = R1 + rng.random(k) * (R2 - R1)
        pos = np.stack(body.frame(self.u_f[f])[:2], axis=-1)

        def arcs():
            # the bridge's first landing realises the common time
            lo, t, target = _both(np.stack([p_lo, t_land, u_time]))
            mid = _bridge_roots(body, pos, lo, lo + _both(p_len), t, target)
            return np.stack([mid, t])

        self.land(f, _both(body.to_native(t_land)), arcs)
        self.clock_f[f] += _both(u_time)

    def residual2(self, f, win):
        """The processes ``f`` make two bounces whose (first landing, second
        landing, time) lies in their bisector windows with the plateau
        removed."""
        body, law, rng = self.body, self.law, self.rng
        P = body.perimeter
        u0 = self.u_f[f]
        x = body.frame(u0)
        R1, R2, p_lo, p_len, t_lo, t_len, eta = win

        def propose(rows):
            s, tau = np.empty((2, 2, rows.size))
            u = _walk(body, u0[rows],
                      guarded_angles(law, rng, (2, rows.size)), s, tau)
            T = tau.sum(axis=0)
            m = np.flatnonzero(
                (T >= R1[rows]) & (T <= R2[rows])
                & in_arcs(s[0], p_lo[None, rows], p_len[None, rows], P)
                & in_arcs(s[1], t_lo[None, rows], t_len[None, rows], P))
            reject = np.zeros(rows.size)
            if m.size:
                xm = tuple(c[rows[m]] for c in x)
                y = body.frame(body.to_native(s[0, m]))
                q = (landing_density(body, law, xm, y)
                     * landing_density(body, law, y, body.frame(u[m]))
                     / np.maximum(np.abs(_path_time_dds(
                         body, np.stack(xm[:2], axis=-1), s[0, m], s[1, m])),
                         1e-12))
                reject[m] = np.minimum(eta[rows[m]] / np.maximum(q, 1e-300),
                                       1.0)
            return (s.T, u, T), lambda w: w < reject

        s, u, T = thin_residual(f.size, propose, rng)
        self.land(f, u, lambda: s.T)
        self.clock_f[f] += T


def _realise_block_times(body, law, u, total, n0, w_box, rng):
    """Native landings and flight times, both (n0, rows), of n0 bounces from
    each native ``u`` whose flight times sum to its ``total``: the times
    uniform on the box slice, then at each hop a launch angle with that
    chord time, drawn over the hop's chord-time roots by their weights."""
    path, taus = np.empty((2, n0, u.size))
    for k, tau in enumerate(_slice_times(total, n0, w_box, rng).T):
        pair, theta, weight = _chord_branches(body, law, u, tau)
        count = np.bincount(pair, minlength=u.size)
        if not count.all():
            raise ResidualSamplingError(
                "no chord realises the prescribed flight time")
        # a row's roots are contiguous and its normalised weights sum to 1,
        # so row r picks at r + uniform, clipped to its roots for rounding
        end = np.cumsum(count)
        cum = np.cumsum(weight / np.bincount(pair, weight)[pair])
        pick = np.searchsorted(cum, np.arange(u.size) + rng.random(u.size))
        u, taus[k] = body.bounce(u, theta[np.clip(pick, end - count, end - 1)])
        path[k] = u
    return path, taus


def _bridge_roots(body, w_pos, s1, s2, t_land, u_time):
    """First landings in the bisector patches [s1, s2] realising the
    prescribed two-leg times, one per row of ``w_pos``: unique as the path
    time is strictly monotone there, and bracketed by the window extrema."""
    # Newton's f > 0 at s1 where the path time falls through the patch
    gt = body.position_at(t_land)
    sign = np.where(_path_time_dds(body, w_pos, s1, gt=gt) < 0.0, 1.0, -1.0)

    def newton(s):
        g = _path_time(body, w_pos, s, gt=gt) - u_time
        return sign * g, g / _path_time_dds(body, w_pos, s, gt=gt)

    return body.wrap(_safeguarded_newton(newton, s1, s2, _BRIDGE_NEWTON))
