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

from ..dynamics import chain_step, make_chain_state, transition_density
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

def _chord_time(body, pt, theta):
    return body.bounce(body.to_native(pt.s), theta)[1]


def _chord_branches(body, law, pt, tau: float, n_scan: int = 129):
    """Angles whose chord time equals tau, with weights f(theta)/|tau'|."""
    lim = 0.5 * math.pi - 1e-7
    grid = np.linspace(-lim, lim, n_scan)
    vals = _chord_time(body, pt, grid) - tau
    roots = []
    for i in range(n_scan - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(lambda th: _chord_time(body, pt, th) - tau,
                                grid[i], grid[i + 1], xtol=1e-13))
    out = []
    dth = 1e-6
    for th in roots:
        d = (_chord_time(body, pt, min(th + dth, lim))
             - _chord_time(body, pt, max(th - dth, -lim))) / (2.0 * dth)
        weight = float(law.density(th)) / max(abs(d), 1e-12)
        if weight > 0.0:
            out.append((th, weight))
    return out


def _hop_time_density(body, law, pt, tau: float) -> float:
    return sum(w for _, w in _chord_branches(body, law, pt, tau))


# ---------------------------------------------------------------------------
# the coupling
# ---------------------------------------------------------------------------

class _Process:
    """One billiard copy at the boundary with its clock and bounce log."""

    def __init__(self, body, law, state, clock):
        self.body = body
        self.law = law
        self.state = state
        self.clock = clock
        self.log_s = [state.s]
        self.log_t = [clock]

    def bounce(self, rng) -> float:
        self.state, _, tau = chain_step(self.body, self.law, self.state, rng)
        self.clock += tau
        self.log_s.append(self.state.s)
        self.log_t.append(self.clock)
        return tau

    def land_at(self, s: float, clock: float):
        self.state = make_chain_state(self.body, s)
        self.clock = clock
        self.log_s.append(self.state.s)
        self.log_t.append(clock)


def _first_hit(body, law, start) -> tuple[float, float]:
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

    T0a, s0a = _first_hit(body, law, start)
    T0b, s0b = _first_hit(body, law, start_b)
    attempts: list[AttemptRecord] = []
    if np.allclose(start[0], start_b[0]) and np.allclose(start[1], start_b[1]):
        return CouplingOutcome(coupled=True, coupling_time=T0a,
                               attempts=attempts)

    a = _Process(body, law, make_chain_state(body, s0a), T0a)
    b = _Process(body, law, make_chain_state(body, s0b), T0b)

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
        branches = _chord_branches(body, law, proc.state.point, float(tau))
        if not branches:
            raise ResidualSamplingError(
                "no chord realises the prescribed flight time")
        weights = np.array([w for _, w in branches])
        theta = branches[int(rng.choice(len(branches),
                                        p=weights / weights.sum()))][0]
        u_hit, t_hit = body.bounce(proc.state.u, theta)
        proc.state = make_chain_state(body, float(body.to_arc(u_hit)))
        proc.clock += float(t_hit)
        proc.log_s.append(proc.state.s)
        proc.log_t.append(proc.clock)


def _residual_block_time(proc, rng, law, body, level1, n0, zeta, w_box,
                         lo, hi):
    def propose(rows):
        state, clock = proc.state, proc.clock
        path_s, path_t, taus = [], [], []
        for _ in range(n0):
            state, _, tau = chain_step(body, law, state, rng)
            clock += tau
            taus.append(tau)
            path_s.append(state.s)
            path_t.append(clock)
        reject = 0.0
        if lo <= clock <= hi and all(t <= w_box for t in taus):
            # candidate carries plateau mass; thin it by the density ratio
            vol = box_slice_volume(clock - proc.clock, n0, w_box)
            ratio = level1 / max(vol, 1e-300)
            for t_k, s_prev in zip(taus, [proc.state.s] + path_s[:-1]):
                ratio /= max(_hop_time_density(
                    body, law, body.point_at(s_prev), t_k), 1e-300)
            reject = min(ratio, 1.0)
        return ((np.array([state], dtype=object), np.array([path_s]),
                 np.array([path_t])), reject)

    state, path_s, path_t = thin_residual(1, propose, rng)
    proc.state = state[0]
    proc.clock = float(path_t[0, -1])
    proc.log_s.extend(path_s[0])
    proc.log_t.extend(path_t[0])


def _stage2_attempt(a, b, rng, law, body, floor, params, attempts) -> bool:
    try:
        win = bisector_window_geometry(body, a.state.point, b.state.point,
                                       params)
    except (GeometryDegenerate, NoAdmissibleWindow):
        attempts.append(AttemptRecord(2, False, 0.0))
        for proc in (a, b):
            proc.bounce(rng)
            proc.bounce(rng)
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
        for proc in (a, b):
            w_pos = proc.state.point.position
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

    def propose(rows):
        state1, _, tau1 = chain_step(body, law, proc.state, rng)
        state2, _, tau2 = chain_step(body, law, state1, rng)
        total = tau1 + tau2
        reject = 0.0
        if (win.R1 <= total <= win.R2
                and in_arcs(state1.s, [win.s_ybar - win.eps],
                            [2.0 * win.eps], P)
                and in_arcs(state2.s, [win.I_star[0]],
                            [win.I_star[1] - win.I_star[0]], P)):
            q = (transition_density(body, law, proc.state.point, state1.point)
                 * transition_density(body, law, state1.point, state2.point)
                 / max(abs(float(_path_time_dds(body,
                                                proc.state.point.position,
                                                state1.s, state2.s))), 1e-12))
            reject = min(eta / max(q, 1e-300), 1.0)
        return ((np.array([state2], dtype=object),
                 np.array([[state1.s, state2.s]]), np.array([[tau2, total]])),
                reject)

    state, path_s, taus = thin_residual(1, propose, rng)
    tau2, total = taus[0]
    proc.state = state[0]
    proc.clock += total
    proc.log_s.extend(path_s[0])
    proc.log_t.extend([proc.clock - tau2, proc.clock])
