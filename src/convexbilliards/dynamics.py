"""Billiard dynamics: the boundary chain and the continuous-time flight.

The particle flies at unit speed along chords and is reflected at each
boundary hit with a random angle from the reflection law.  The boundary hit
points form a Markov chain; the continuous-time process interpolates the
chords affinely (time and length coincide at unit speed).

Every step of the chain is one call of the body's bounce kernel
(``ConvexBody.bounce``) on a guarded reflection angle, and every density of
the chain is one ``landing_density`` on boundary frames.  The module
provides

* the tangency guard (``guarded_angles``), the one policy for reflection
  angles at +-pi/2,
* one walk of plain bounces on angles drawn up front, carrying the body's
  native boundary coordinate between bounces; it steps one chain on
  scalars (``run_chain``, which also records angles and chord times) or
  many chains at once (``run_chain_ensemble``), and the coupling engines
  draw their residual blocks through it,
* chord flight times from one boundary point (``chord_times``),
* the closed-form polar recursion on discs (``disc_step_exact``), an
  independent oracle for the disc kernel and for ``exit_ray``,
* the one-step landing density, the transition density built on it
  (``transition_density`` / ``transition_density_row``) and its row
  integral, and the exact cell kernel (``cell_kernel``): the one-step
  masses between equal arc cells, which compose multi-bounce blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import BeyondHorizon, CoincidentPoints
from .geometry import BoundaryPoint, ConvexBody, Disc, TWO_PI
from .reflection import ReflectionLaw

TANGENCY_GUARD = 1e-9


def guarded_angles(law: ReflectionLaw, rng: np.random.Generator, size=None):
    """Reflection angles drawn from ``law``, kept off tangency.

    The package's one tangency policy: an angle within TANGENCY_GUARD of
    +-pi/2 is clipped to +-(pi/2 - TANGENCY_GUARD).  Nothing is redrawn, so
    the random stream is the same whether or not the guard fires, and every
    guarded angle launches a chord of positive length.  The event has
    probability zero, but floating point can reach it.
    """
    lim = 0.5 * math.pi - TANGENCY_GUARD
    return np.clip(law.sample(rng, size), -lim, lim)


@dataclass(frozen=True)
class ProcessState:
    """Continuous-time state between or at bounces."""

    position: np.ndarray
    velocity: np.ndarray
    clock: float
    bounces_so_far: int


@dataclass
class Trajectory:
    """Bounce records of one trajectory.

    Row n (1-based) holds the state right after the n-th bounce; cumulative
    times satisfy T[n] = sum(tau[1..n]).  ``phi`` is the polar angle on
    discs and NaN otherwise.
    """

    s0: float
    step: np.ndarray
    s: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    tau: np.ndarray
    T: np.ndarray

    def __len__(self) -> int:
        return int(self.step.size)


def disc_step_exact(r: float, phi: float, theta: float) -> tuple[float, float]:
    """Closed-form disc bounce: next polar angle and chord time.

    next phi = (pi + 2*theta + phi) mod 2*pi, tau = 2*r*cos(theta).
    Serves as the oracle for the geometric engine on discs.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    return (math.pi + 2.0 * theta + phi) % TWO_PI, 2.0 * r * math.cos(theta)


def _walk(body: ConvexBody, u, theta, s, tau=None):
    """Plain bounces from native ``u`` on angles drawn up front.

    ``theta`` has shape (n,) for one chain from a scalar ``u`` or (n, m)
    for m chains; step k is one call of the bounce kernel on ``theta[k]``.
    Writes step k's landing arc into ``s[k]``, and its chord time into
    ``tau[k]`` if ``tau`` is given; returns the final native coordinate.
    """
    for k in range(theta.shape[0]):
        u, t = body.bounce(u, theta[k])
        s[k] = body.to_arc(u)
        if tau is not None:
            tau[k] = t
    return u


def run_chain(body: ConvexBody, law: ReflectionLaw, s0: float, n_steps: int,
              rng: np.random.Generator) -> Trajectory:
    """Simulate n_steps bounces of one chain.

    The angles are drawn in one call and the walk runs the bounce kernel
    on scalars.  Deterministic given the generator state; the records are
    exactly the consumed random angles, so reruns from an equal stream
    reproduce the trajectory bit for bit.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    s0 = float(body.wrap(s0))
    theta = guarded_angles(law, rng, n_steps)
    s, tau = np.empty(n_steps), np.empty(n_steps)
    _walk(body, body.to_native(s0), theta, s, tau)
    return Trajectory(
        s0=s0, step=np.arange(1, n_steps + 1, dtype=np.int64), s=s,
        phi=s / body.r if isinstance(body, Disc) else np.full(n_steps, np.nan),
        theta=theta, tau=tau, T=np.cumsum(tau))


def run_chain_ensemble(body: ConvexBody, law: ReflectionLaw, s0, n_steps: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Positions of many independent chains, shape (n_steps + 1, replicas).

    ``s0`` holds one start per replica; a scalar runs one chain.  The
    angles of every step and replica are drawn in one call, and every step
    is one vectorised call of the bounce kernel.
    """
    s0 = body.wrap(np.atleast_1d(np.asarray(s0, dtype=float)))
    theta = guarded_angles(law, rng, (n_steps, s0.size))
    out = np.empty((n_steps + 1, s0.size))
    out[0] = s0
    _walk(body, body.to_native(s0), theta, out[1:])
    return out


# ---------------------------------------------------------------------------
# continuous-time interpolation
# ---------------------------------------------------------------------------

def sample_process_at(trajectory: Trajectory, body: ConvexBody, t: float) -> ProcessState:
    """State of the continuous-time process at clock time t.

    Locates the flight segment containing t by binary search and moves
    affinely along the chord.  t must not exceed the last recorded hit time.
    """
    if len(trajectory) == 0:
        raise BeyondHorizon("trajectory holds no bounces")
    times = np.concatenate([[0.0], trajectory.T])
    if t < 0.0 or t > times[-1]:
        raise BeyondHorizon(f"time {t} outside simulated span [0, {times[-1]}]")
    arcs = np.concatenate([[trajectory.s0], trajectory.s])
    k = int(np.searchsorted(times, t, side="right") - 1)
    k = min(k, len(trajectory) - 1)  # t == final time: stay on last segment
    p0 = body.position_at(arcs[k])
    p1 = body.position_at(arcs[k + 1])
    seg = p1 - p0
    seg_len = float(np.hypot(seg[0], seg[1]))
    velocity = seg / seg_len
    position = p0 + (t - times[k]) * velocity
    return ProcessState(position=position, velocity=velocity, clock=float(t),
                        bounces_so_far=k)


# ---------------------------------------------------------------------------
# transition kernel
# ---------------------------------------------------------------------------

def chord_times(body: ConvexBody, s0: float, thetas) -> np.ndarray:
    """Flight times of chords launched from one boundary point (vectorised)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    return body.bounce(body.to_native(s0), thetas)[1]


def landing_density(body: ConvexBody, law: ReflectionLaw, x, y):
    """One-step chain density from frame x to frame y per unit arc length.

    f(launch angle at x) * cos(landing angle at y) / chord length, where x
    and y are (x, y, nx, ny) frames as ``ConvexBody.frame`` returns them;
    broadcasts over arrays.  Zero where the points are closer than the
    body's geometric tolerance.
    """
    px, py, nx, ny = x
    qx, qy, mx, my = y
    dx, dy = qx - px, qy - py
    dist = np.hypot(dx, dy)
    ok = dist > body.tol_geom
    dist = np.where(ok, dist, 1.0)
    lx, ly = dx / dist, dy / dist
    psi = np.arctan2(nx * ly - ny * lx, lx * nx + ly * ny)
    cos_land = -(mx * lx + my * ly)
    return np.where(ok, law.density(psi) * np.maximum(cos_land, 0.0) / dist,
                    0.0)


def transition_density(body: ConvexBody, law: ReflectionLaw,
                       x: BoundaryPoint, y: BoundaryPoint) -> float:
    """One-step chain density from x to y per unit arc length at y.

    density(angle of the chord at x) * cos(chord angle at y) / chord length.
    Normalisation (the row integral equals one) is enforced by quadrature
    tests rather than by construction.
    """
    d = y.position - x.position
    if float(np.hypot(d[0], d[1])) < body.tol_geom:
        raise CoincidentPoints("transition density needs distinct points")
    return float(landing_density(body, law, x.frame, y.frame))


def transition_density_row(body: ConvexBody, law: ReflectionLaw,
                           x: BoundaryPoint, s_targets) -> np.ndarray:
    """Vectorised transition density from x to each arc coordinate."""
    targets = body.frame(body.to_native(s_targets))
    return landing_density(body, law, x.frame, targets)


def transition_row_integral(body: ConvexBody, law: ReflectionLaw,
                            x: BoundaryPoint) -> float:
    """Integral of the transition density over the whole boundary.

    Equals one for every valid law/body pair.  The launch angle is monotone
    in the landing arc coordinate, so for laws with a smaller support the
    integration window is located by bisection on the support edges and
    integrated adaptively in between.
    """
    P = body.perimeter
    width = law.support_width

    def angle_of(ds: float) -> float:
        return body.chord_angle(body.point_at(x.s + ds), x)

    # the integrand has a finite limit as the landing point approaches x, so
    # a tiny inset only avoids the coincident-point guard
    inset = 10.0 * body.tol_geom
    lo, hi = inset, P - inset
    if width < math.pi - 1e-12:
        half = 0.5 * width
        lo = brentq(lambda ds: angle_of(ds) + half, inset, P - inset,
                    xtol=1e-13 * P)
        hi = brentq(lambda ds: angle_of(ds) - half, inset, P - inset,
                    xtol=1e-13 * P)

    def integrand(ds: float) -> float:
        return transition_density(body, law, x, body.point_at(x.s + ds))

    val, _ = quad(integrand, lo, hi, limit=400, epsabs=1e-10, epsrel=1e-10)
    # the inset near a full-support law's endpoints drops an O(inset) sliver
    return float(val)


def cell_kernel(body: ConvexBody, law: ReflectionLaw,
                n_cells: int = 512) -> np.ndarray:
    """Exact one-step masses between N equal arc cells (Ulam's method).

    K[i, j] is the probability that a bounce from the midpoint of cell i
    lands in cell j, cell j spanning arc lengths [j, j + 1) * perimeter / N.
    As the landing point runs counterclockwise from the start the launch
    angle rises monotonically from -pi/2 to pi/2, so a cell's mass is the
    law's CDF at the launch angle toward its far edge minus that toward its
    near edge; the start cell takes both end pieces.  Every row sums to one
    up to rounding, and ``K @ K`` composes steps on the midpoints.
    """
    ds = body.perimeter / n_cells
    edges = np.arange(n_cells) * ds
    mx, my, nx, ny = (c[:, None] for c in
                      body.frame(body.to_native(edges + 0.5 * ds)))
    ex, ey = body.frame(body.to_native(edges))[:2]
    dx, dy = ex - mx, ey - my
    # G[i, j]: the CDF of the launch angle from midpoint i toward edge j
    G = law.cdf(np.arctan2(nx * dy - ny * dx, dx * nx + dy * ny))
    K = np.roll(G, -1, axis=1) - G
    K[np.diag_indices(n_cells)] += (law.cdf(0.5 * math.pi)
                                    - law.cdf(-0.5 * math.pi))
    return K
