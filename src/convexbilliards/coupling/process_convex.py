"""Two-stage coupling of the continuous-time billiard in a convex body.

Stage one plateau-couples the accumulated hitting times of blocks of n0
bounces.  The plateau is the product of per-bounce flight-time windows
[0, 2/C]; realising a common total time draws the block's flight times from
the uniform slice of the box (sequentially, through box-slice volumes) and
then picks, at each hop, a launch angle whose chord time matches, weighted
by density over the inverse chord-time branches.

Stage two, once the clocks agree, plateau-couples landing point and time
jointly on the bisector windows; the bridge is deterministic there because
the two-leg path time is strictly monotone in the first landing coordinate
on the window.  On failure the clocks realign and stage one resumes.

The certified per-attempt success probabilities are extremely small for
realistic bodies, so finite horizons routinely end uncoupled; the outcome
records this honestly (the tail bound is then vacuously respected).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from ..dynamics import _walk, guarded_angles, landing_density
from ..errors import (
    GeometryDegenerate,
    HypothesisViolated,
    NoAdmissibleWindow,
    ResidualSamplingError,
)
from ..geometry import ConvexBody
from ..rates import (
    RateCertificate,
    RateParams,
    _path_time,
    _path_time_dds,
    bisector_window_geometry,
)
from ..reflection import ReflectionLaw
from .base import AttemptRecord, CouplingOutcome, in_arcs, thin_residual


# ---------------------------------------------------------------------------
# box-slice volumes (n-fold convolution of an interval indicator)
# ---------------------------------------------------------------------------

def box_slice_volume(t, n: int, w: float):
    """(n-1)-volume of the slice {sum tau = t} of the box [0, w]^n."""
    x = np.asarray(t, dtype=float) / w
    out = np.zeros_like(x)
    for k in range(n + 1):
        term = (-1.0) ** k * math.comb(n, k) * np.maximum(x - k, 0.0) ** (n - 1)
        out = out + term
    out /= math.factorial(n - 1)
    if n == 1:
        out = ((x >= 0.0) & (x <= 1.0)).astype(float)
        return out if out.ndim else float(out)
    out = out * w ** (n - 1)  # rescale the unit-box density to [0, w]^n
    out = np.where((x >= 0.0) & (x <= n), out, 0.0)
    return out if out.ndim else float(out)


def _slice_conditional_times(total: float, n: int, w: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Flight times uniform on {tau in [0,w]^n : sum = total}, sequentially."""
    taus = []
    remaining = total
    for k in range(n, 1, -1):
        lo = max(0.0, remaining - (k - 1) * w)
        hi = min(w, remaining)
        grid = np.linspace(lo, hi, 257)
        wgt = box_slice_volume(remaining - grid, k - 1, w)
        cdf = np.cumsum(0.5 * (wgt[1:] + wgt[:-1]) * np.diff(grid))
        if cdf[-1] <= 0.0:
            raise ResidualSamplingError("time-slice conditional has no mass")
        u = rng.random() * cdf[-1]
        i = int(np.searchsorted(cdf, u))
        tau = grid[i] + (grid[1] - grid[0]) * rng.random()
        taus.append(min(max(tau, lo), hi))
        remaining -= taus[-1]
    taus.append(remaining)
    return np.asarray(taus)


# ---------------------------------------------------------------------------
# chord-time inversion at one boundary point
# ---------------------------------------------------------------------------

def _chord_branches(body, law, u, tau: float, n_scan: int = 129):
    """Angles whose chord time from native ``u`` equals tau, with weights
    f(theta)/|tau'|."""
    def chord(theta):
        return body.bounce(u, theta)[1]

    lim = 0.5 * math.pi - 1e-7
    grid = np.linspace(-lim, lim, n_scan)
    vals = chord(grid) - tau
    roots = []
    for i in range(n_scan - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(lambda th: chord(th) - tau,
                                grid[i], grid[i + 1], xtol=1e-13))
    out = []
    dth = 1e-6
    for th in roots:
        d = (chord(min(th + dth, lim))
             - chord(max(th - dth, -lim))) / (2.0 * dth)
        weight = float(law.density(th)) / max(abs(d), 1e-12)
        if weight > 0.0:
            out.append((th, weight))
    return out


def _hop_time_density(body, law, u, tau: float) -> float:
    return sum(w for _, w in _chord_branches(body, law, u, tau))


# ---------------------------------------------------------------------------
# the coupling
# ---------------------------------------------------------------------------

class _Process:
    """One billiard copy at the boundary: arc ``s``, the body's native
    coordinate ``u`` there, its clock and its bounce log."""

    def __init__(self, body, law, s: float, clock: float):
        self.body = body
        self.law = law
        self.log_s = []
        self.log_t = []
        self.land_at(s, clock)

    def bounce(self, rng, n: int = 1):
        """n plain bounces on guarded angles."""
        self.walk(guarded_angles(self.law, rng, n))

    def walk(self, theta):
        """Plain bounces on the angles ``theta``, one per step."""
        u, s, tau = _walk(self.body, self.u, theta)
        self.follow(u, s, np.cumsum(np.r_[self.clock, tau])[1:])

    def follow(self, u, s, t):
        """Take a path landing at arcs ``s`` at clocks ``t`` and ending at
        native ``u``."""
        self.u, self.s, self.clock = u, s[-1], t[-1]
        self.log_s.extend(s)
        self.log_t.extend(t)

    def land_at(self, s: float, clock: float):
        self.s = float(self.body.wrap(s))
        self.u = self.body.to_native(self.s)
        self.clock = clock
        self.log_s.append(self.s)
        self.log_t.append(clock)


def _first_hit(body, start) -> tuple[float, float]:
    pos, vel = np.asarray(start[0], float), np.asarray(start[1], float)
    vel = vel / float(np.hypot(vel[0], vel[1]))
    tau, hit = body.exit_ray(pos, vel)
    return tau, hit.s


def couple_process_convex(body: ConvexBody, law: ReflectionLaw, start, start_b,
                          cert: RateCertificate, t_max: float,
                          rng: np.random.Generator) -> CouplingOutcome:
    """Couple two continuous-time processes on a convex body.

    ``start*`` are (position, velocity) pairs.  Requires a law with a
    positive floor on the full half-circle (the joint windows assume every
    boundary point is reachable in one bounce).  Returns the coupling time
    when the joint stage succeeds within the horizon; otherwise an
    uncoupled outcome with the attempt history.
    """
    if cert.kind != "convex_process":
        raise HypothesisViolated("certificate kind must be convex_process")
    floor = cert.inputs["floor"]
    if law.floor_on(math.pi) <= 0.0:
        raise HypothesisViolated(
            "convex process coupling needs a density floor on the full"
            " half-circle")
    params = RateParams(eps=cert.inputs.get("eps"),
                        beta=cert.inputs.get("beta"),
                        delta=cert.inputs.get("delta"),
                        zeta=cert.inputs.get("zeta"))
    summary = body.summarize()
    c_low, C, D = summary.curvature_min, summary.curvature_max, summary.diameter
    n0 = cert.constants["n0"]
    zeta = params.zeta
    w_box = 2.0 / C
    level1 = (c_low * floor) ** n0 * zeta ** (n0 - 1)

    T0a, s0a = _first_hit(body, start)
    T0b, s0b = _first_hit(body, start_b)
    attempts: list[AttemptRecord] = []
    if np.allclose(start[0], start_b[0]) and np.allclose(start[1], start_b[1]):
        return CouplingOutcome(coupled=True, coupling_time=T0a,
                               attempts=attempts)

    a = _Process(body, law, s0a, T0a)
    b = _Process(body, law, s0b, T0b)

    def realign():
        early, late = (a, b) if a.clock <= b.clock else (b, a)
        while early.clock <= late.clock:
            early.bounce(rng)

    stage = 1
    while min(a.clock, b.clock) <= t_max:
        if stage == 1:
            success = _stage1_attempt(a, b, rng, law, body, level1, n0,
                                      zeta, w_box, attempts)
            if success:
                stage = 2
            else:
                realign()
        else:
            success = _stage2_attempt(a, b, rng, law, body, floor, params,
                                      attempts)
            if success:
                return CouplingOutcome(
                    coupled=True, coupling_time=a.clock, attempts=attempts,
                    traj_a=np.array([a.log_s, a.log_t]).T,
                    traj_b=np.array([b.log_s, b.log_t]).T)
            realign()
            stage = 1
    return CouplingOutcome(coupled=False, attempts=attempts,
                           traj_a=np.array([a.log_s, a.log_t]).T,
                           traj_b=np.array([b.log_s, b.log_t]).T)


def _stage1_attempt(a, b, rng, law, body, level1, n0, zeta, w_box,
                    attempts) -> bool:
    lo = max(a.clock, b.clock) + (n0 - 1) * zeta
    hi = min(a.clock, b.clock) + n0 * w_box - (n0 - 1) * zeta
    mass = level1 * max(hi - lo, 0.0)
    success = hi > lo and rng.random() < mass
    attempts.append(AttemptRecord(1, success, max(mass, 0.0)))
    if success:
        S = lo + rng.random() * (hi - lo)
        for proc in (a, b):
            _realise_block_time(proc, rng, law, body, S - proc.clock, n0,
                                w_box)
            proc.clock = S  # exact common clock; per-hop roots hit tolerance
            proc.log_t[-1] = S
        return True
    for proc in (a, b):
        _residual_block_time(proc, rng, law, body, level1, n0, zeta, w_box,
                             lo, hi)
    return False


def _realise_block_time(proc, rng, law, body, total, n0, w_box):
    taus = _slice_conditional_times(total, n0, w_box, rng)
    for tau in taus:
        branches = _chord_branches(body, law, proc.u, float(tau))
        if not branches:
            raise ResidualSamplingError(
                "no chord realises the prescribed flight time")
        weights = np.array([w for _, w in branches])
        theta = branches[int(rng.choice(len(branches),
                                        p=weights / weights.sum()))][0]
        proc.walk(np.array([theta]))


def _residual_block_time(proc, rng, law, body, level1, n0, zeta, w_box,
                         lo, hi):
    def propose(rows):
        u, path_s, taus = _walk(body, proc.u, guarded_angles(law, rng, n0))
        path_t = np.cumsum(np.r_[proc.clock, taus])[1:]
        clock = path_t[-1]
        reject = 0.0
        if lo <= clock <= hi and np.all(taus <= w_box):
            # candidate carries plateau mass; thin it by the density ratio
            vol = box_slice_volume(clock - proc.clock, n0, w_box)
            ratio = level1 / max(vol, 1e-300)
            u_prev = np.r_[proc.u, body.to_native(path_s[:-1])]
            for t_k, u_k in zip(taus, u_prev):
                ratio /= max(_hop_time_density(body, law, u_k, t_k), 1e-300)
            reject = min(ratio, 1.0)
        return (np.array([u]), path_s[None], path_t[None]), reject

    u, path_s, path_t = thin_residual(1, propose, rng)
    proc.follow(u[0], path_s[0], path_t[0])


def _stage2_attempt(a, b, rng, law, body, floor, params, attempts) -> bool:
    points = tuple(body.point_of(p.s, p.u) for p in (a, b))
    try:
        win = bisector_window_geometry(body, *points, params)
    except (GeometryDegenerate, NoAdmissibleWindow):
        attempts.append(AttemptRecord(2, False, 0.0))
        for proc in (a, b):
            proc.bounce(rng, 2)
        return False
    eta = win.eta_level * floor ** 2
    len_i = win.I_star[1] - win.I_star[0]
    mass = eta * len_i * (win.R2 - win.R1)
    success = rng.random() < mass
    attempts.append(AttemptRecord(2, success, mass))
    base_clock = a.clock
    if success:
        t_land = float(body.wrap(win.I_star[0] + rng.random() * len_i))
        u_time = win.R1 + rng.random() * (win.R2 - win.R1)
        for proc, pt in zip((a, b), points):
            w_pos = pt.position
            s_mid = _bridge_root(body, w_pos, win, t_land, u_time)
            leg1 = float(np.hypot(*(body.position_at(s_mid) - w_pos)))
            proc.land_at(s_mid, base_clock + leg1)
            proc.land_at(t_land, base_clock + u_time)
        return True
    for proc in (a, b):
        _residual_pair_convex(proc, rng, law, body, eta, win)
    return False


def _bridge_root(body, w_pos, win, t_land, u_time) -> float:
    """First landing coordinate realising the prescribed two-leg time.

    Unique in the bisector patch because the path time is strictly
    monotone there; the window extrema bracket the target by construction.
    """
    s1, s2 = win.s_ybar - win.eps, win.s_ybar + win.eps
    f = lambda s: float(_path_time(body, w_pos, s, t_land)) - u_time
    return float(body.wrap(brentq(f, s1, s2, xtol=1e-13 * body.perimeter)))


def _residual_pair_convex(proc, rng, law, body, eta, win):
    P = body.perimeter
    x = body.frame(proc.u)

    def propose(rows):
        theta = guarded_angles(law, rng, 2)
        u1, (s1,), (tau1,) = _walk(body, proc.u, theta[:1])
        u2, (s2,), (tau2,) = _walk(body, u1, theta[1:])
        total = tau1 + tau2
        reject = 0.0
        if (win.R1 <= total <= win.R2
                and in_arcs(s1, [win.s_ybar - win.eps], [2.0 * win.eps], P)
                and in_arcs(s2, [win.I_star[0]],
                            [win.I_star[1] - win.I_star[0]], P)):
            y = body.frame(u1)
            q = float(landing_density(body, law, x, y)
                      * landing_density(body, law, y, body.frame(u2))
                      / max(abs(float(_path_time_dds(
                          body, np.array(x[:2]), s1, s2))), 1e-12))
            reject = min(eta / max(q, 1e-300), 1.0)
        t = proc.clock + total
        return ((np.array([u2]), np.array([[s1, s2]]),
                 np.array([[t - tau2, t]])), reject)

    u, path_s, path_t = thin_residual(1, propose, rng)
    proc.follow(u[0], path_s[0], path_t[0])
