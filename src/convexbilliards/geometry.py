"""Planar compact convex bodies with two-sided curvature bounds.

A body is described by its boundary, an arc-length parametrised closed convex
curve.  Three variants are supported:

* ``Disc(r)``            -- circle of radius r centred at the origin,
* ``Ellipse(a, b)``      -- semi-axes a >= b, centred at the origin,
* ``CurvatureTable``     -- a closed curve reconstructed from tabulated
                            curvature values kappa(s) by integrating the
                            tangent angle.

Every body has one bounce kernel, written in its native boundary
coordinate u: the polar angle on the disc, the parameter angle on the
ellipse and arc length on the table.  ``to_native``/``to_arc`` convert
between u and arc length, ``frame(u)`` gives position and inward normal,
and ``bounce(u, theta)`` returns the landing coordinate and the flight time
of the chord launched at angle theta from the normal.  All four broadcast
over arrays; the engines keep u between bounces and convert to arc length
only where they need it.  The arc-length queries (``point_at``,
``position_at``, ...) are built on the same frame.

``exit_ray`` (first boundary hit of an interior ray from a cartesian
origin) is the independent scalar reference: it locates the origin and the
hit by ``arc_of_point`` rather than by the native coordinate.  Discs and
ellipses use closed forms.  The tabulated variant's ``bounce`` solves for
the landing arc length on its dense spline grid, by bisection over the
grid nodes and then a fixed number of Newton steps, for all chords at once;
its ``exit_ray`` is a bracketed root of a radial gauge.  Bodies are
immutable after construction and safe to share between threads or
processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (
    CoincidentPoints,
    NonClosedCurve,
    OutsideBody,
    TangentRay,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary with its local frame.

    Attributes
    ----------
    s : arc-length coordinate in [0, perimeter)
    position : (2,) cartesian coordinates
    normal : (2,) inward unit normal
    tangent : (2,) unit tangent (counterclockwise orientation)
    """

    s: float
    position: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray

    @property
    def frame(self) -> tuple:
        """(x, y, nx, ny): position and inward normal, as
        ``ConvexBody.frame`` returns them."""
        return (self.position[0], self.position[1],
                self.normal[0], self.normal[1])


@dataclass(frozen=True)
class BodySummary:
    perimeter: float
    diameter: float
    curvature_min: float   # lower curvature bound c
    curvature_max: float   # upper curvature bound C

    def as_dict(self) -> dict:
        return {
            "perimeter": self.perimeter,
            "diameter": self.diameter,
            "c": self.curvature_min,
            "C": self.curvature_max,
        }


class ConvexBody:
    """Base class; use Disc, Ellipse or CurvatureTable."""

    variant: str = "abstract"

    # Subclasses set these at construction time.
    perimeter: float
    diameter: float
    curvature_min: float
    curvature_max: float

    @property
    def tol_geom(self) -> float:
        return 1e-9 * self.diameter

    @property
    def tol_root(self) -> float:
        return 1e-10 * self.diameter

    # -- bounce kernel (vectorised in the native coordinate u) ---------------

    def to_native(self, s):
        """Native boundary coordinate of arc-length coordinates s."""
        raise NotImplementedError

    def to_arc(self, u):
        """Arc-length coordinate in [0, perimeter) of native coordinates u,
        as ``to_native`` and ``bounce`` return them."""
        raise NotImplementedError

    def frame(self, u):
        """(x, y, nx, ny): boundary position and inward unit normal at u.

        The counterclockwise unit tangent is (ny, -nx).
        """
        raise NotImplementedError

    def bounce(self, u, theta):
        """One chord: launch from u at angle theta to the inward normal.

        Returns (landing native coordinate, flight time).  theta must lie
        strictly inside (-pi/2, pi/2); the engines keep it there with the
        tangency guard of ``dynamics.guarded_angles``.
        """
        raise NotImplementedError

    # -- elementary queries (vectorised in s) -------------------------------

    def wrap(self, s):
        """Reduce arc-length coordinates modulo the perimeter."""
        return np.mod(s, self.perimeter)

    def position_at(self, s):
        x, y, _, _ = self.frame(self.to_native(s))
        return np.stack([x, y], axis=-1)

    def tangent_at(self, s):
        _, _, nx, ny = self.frame(self.to_native(s))
        return np.stack([ny, -nx], axis=-1)

    def normal_at(self, s):
        """Inward unit normal: the tangent rotated by +pi/2 for a
        counterclockwise parametrisation."""
        _, _, nx, ny = self.frame(self.to_native(s))
        return np.stack([nx, ny], axis=-1)

    def curvature_at(self, s):
        raise NotImplementedError

    def gauge(self, point):
        """Signed implicit function: negative inside, zero on the boundary.

        Scaled so that near the boundary it approximates the signed distance.
        """
        raise NotImplementedError

    def arc_of_point(self, point) -> float:
        """Arc-length coordinate of a point assumed on (or near) the boundary."""
        raise NotImplementedError

    # -- composite queries ---------------------------------------------------

    def point_at(self, s: float) -> BoundaryPoint:
        s = float(self.wrap(s))
        return self.point_of(s, self.to_native(s))

    def point_of(self, s: float, u) -> BoundaryPoint:
        """Boundary point at arc length s, built from its native coordinate."""
        x, y, nx, ny = (float(v) for v in self.frame(u))
        return BoundaryPoint(s=s, position=np.array([x, y]),
                             normal=np.array([nx, ny]),
                             tangent=np.array([ny, -nx]))

    def exit_ray(self, origin, direction) -> tuple[float, BoundaryPoint]:
        """First boundary hit of the ray origin + tau * direction, tau > 0.

        The origin must lie in the closed body and the direction must point
        strictly inward when the origin is on the boundary.
        """
        origin = np.asarray(origin, dtype=float)
        direction = np.asarray(direction, dtype=float)
        g0 = self.gauge(origin)
        if g0 > self.tol_geom:
            raise OutsideBody(f"ray origin {origin} lies outside the body")
        if g0 > -self.tol_geom:  # origin effectively on the boundary
            s0 = self.arc_of_point(origin)
            if float(np.dot(direction, self.normal_at(s0))) <= self.tol_geom:
                raise TangentRay("direction does not point into the interior")
        tau = self._exit_tau(origin, direction)
        hit = origin + tau * direction
        s_hit = self.arc_of_point(hit)
        return tau, self.point_at(s_hit)

    def _exit_tau(self, origin, direction) -> float:
        """Positive root of gauge(origin + tau * direction) = 0."""
        raise NotImplementedError

    def chord_angle(self, x: BoundaryPoint, y: BoundaryPoint) -> float:
        """Signed angle at y between the chord toward x and the inward normal.

        Lies in [-pi/2, pi/2] for points of a convex boundary; positive when
        the chord is counterclockwise from the normal.
        """
        d = x.position - y.position
        norm = float(np.hypot(d[0], d[1]))
        if norm < self.tol_geom:
            raise CoincidentPoints("chord endpoints coincide")
        l = d / norm
        cosv = float(np.dot(l, y.normal))
        sinv = float(y.normal[0] * l[1] - y.normal[1] * l[0])
        return math.atan2(sinv, cosv)

    def summarize(self) -> BodySummary:
        return BodySummary(self.perimeter, self.diameter,
                           self.curvature_min, self.curvature_max)

    def _validate(self):
        c, C = self.curvature_min, self.curvature_max
        if not (0.0 < c <= C < math.inf):
            raise ValueError(f"curvature bounds must satisfy 0 < c <= C, got ({c}, {C})")
        if self.perimeter < math.pi * (2.0 / C) - self.tol_geom:
            raise ValueError("perimeter inconsistent with the curvature upper bound")
        if self.diameter < 2.0 / C - self.tol_geom:
            raise ValueError("diameter inconsistent with the curvature upper bound")


# ---------------------------------------------------------------------------
# Disc
# ---------------------------------------------------------------------------

class Disc(ConvexBody):
    variant = "disc"

    def __init__(self, r: float):
        if r <= 0:
            raise ValueError("radius must be positive")
        self.r = float(r)
        self.perimeter = TWO_PI * self.r
        self.diameter = 2.0 * self.r
        self.curvature_min = 1.0 / self.r
        self.curvature_max = 1.0 / self.r
        self._validate()

    # native coordinate: the polar angle phi = s / r

    def to_native(self, s):
        return np.asarray(s, dtype=float) / self.r

    def to_arc(self, phi):
        return np.mod(phi, TWO_PI) * self.r

    def frame(self, phi):
        c, s = np.cos(phi), np.sin(phi)
        return self.r * c, self.r * s, -c, -s

    def bounce(self, phi, theta):
        # the closed-form polar recursion of ``dynamics.disc_step_exact``
        return (np.mod(phi + math.pi + 2.0 * theta, TWO_PI),
                2.0 * self.r * np.cos(theta))

    def curvature_at(self, s):
        return np.full_like(np.asarray(s, dtype=float), 1.0 / self.r)

    def gauge(self, point):
        p = np.asarray(point, dtype=float)
        return float(np.hypot(p[0], p[1]) - self.r)

    def arc_of_point(self, point) -> float:
        p = np.asarray(point, dtype=float)
        return float(self.wrap(math.atan2(p[1], p[0]) * self.r))

    def _exit_tau(self, origin, direction) -> float:
        # |o + tau d|^2 = r^2 with |d| = 1; take the positive root.
        b = float(np.dot(origin, direction))
        c0 = float(np.dot(origin, origin)) - self.r * self.r
        disc = max(b * b - c0, 0.0)
        tau = -b + math.sqrt(disc)
        if tau <= self.tol_root:
            raise TangentRay("exit chord degenerates")
        return tau


# ---------------------------------------------------------------------------
# Ellipse
# ---------------------------------------------------------------------------

class Ellipse(ConvexBody):
    """Ellipse x^2/a^2 + y^2/b^2 = 1 with a >= b > 0.

    Arc length is computed from the incomplete elliptic integral of the
    second kind at 4097 equally spaced parameter angles and read between
    them from the interpolating cubic spline, its cell looked up by index;
    the inverse map s -> parameter angle starts from the same table and is
    refined by Newton steps to machine precision.
    """

    variant = "ellipse"
    _TABLE = 4096

    def __init__(self, a: float, b: float):
        if not (a >= b > 0):
            raise ValueError("semi-axes must satisfy a >= b > 0")
        self.a = float(a)
        self.b = float(b)
        self._m = 1.0 - (self.b / self.a) ** 2  # squared eccentricity
        self.perimeter = 4.0 * self.a * special.ellipe(self._m)
        self.diameter = 2.0 * self.a
        self.curvature_min = self.b / self.a ** 2
        self.curvature_max = self.a / self.b ** 2
        t = np.linspace(0.0, TWO_PI, self._TABLE + 1)
        self._t_grid = t
        self._t_knots = _UniformKnots(t)
        self._s_grid = self._s_of_t(t)
        # spline surrogate of the (slow) elliptic integral; interpolation
        # error is far below tol_geom at this table density.  Only its
        # coefficients are kept, evaluated by ``_UniformKnots.cubic``.
        self._s_coef = CubicSpline(t, self._s_grid).c
        self._validate()

    # parameter angle t <-> arc length s ------------------------------------

    def _s_of_t(self, t):
        t = np.asarray(t, dtype=float)
        # arc length from t=0: a * [E(m) - E(pi/2 - t | m)] by the standard
        # reduction; ellipeinc handles arbitrary amplitude quasi-periodically.
        return self.a * (special.ellipe(self._m)
                         - special.ellipeinc(0.5 * math.pi - t, self._m))

    def _speed(self, t):
        return np.sqrt((self.a * np.sin(t)) ** 2 + (self.b * np.cos(t)) ** 2)

    def _t_of_s(self, s):
        s = self.wrap(np.asarray(s, dtype=float))
        t = np.interp(s, self._s_grid, self._t_grid)
        for _ in range(3):  # Newton refinement; ds/dt = speed > 0
            t = t - (self.to_arc(np.clip(t, 0.0, TWO_PI)) - s) / self._speed(t)
        return t

    # bounce kernel: native coordinate is the parameter angle t -------------

    def to_native(self, s):
        return self._t_of_s(s)

    def to_arc(self, t):
        # t in [0, 2*pi], as to_native and bounce return it; outside, the
        # end cells' cubics extrapolate
        return self._t_knots.cubic(self._s_coef, t)

    def frame(self, t):
        ct, st, nx, ny = self._unit_frame(t)
        return self.a * ct, self.b * st, nx, ny

    def bounce(self, t, theta):
        ct, st, nx, ny = self._unit_frame(t)
        dx, dy = _turn(nx, ny, theta)
        ux, uy = dx / self.a, dy / self.b
        tau = self._unit_chord(ct, st, ux, uy)
        return np.arctan2(st + tau * uy, ct + tau * ux) % TWO_PI, tau

    def _unit_frame(self, t):
        # the point on the unit circle that the scaling maps t to, and the
        # inward normal of the ellipse there
        ct, st = np.cos(t), np.sin(t)
        sp = np.sqrt((self.a * st) ** 2 + (self.b * ct) ** 2)
        return ct, st, -self.b * ct / sp, -self.a * st / sp

    @staticmethod
    def _unit_chord(ox, oy, ux, uy):
        """Positive root tau of |o + tau * u| = 1: the chord solve, on the
        unit circle to which the affine scaling maps the ellipse and the
        ray."""
        A = ux * ux + uy * uy
        B = ox * ux + oy * uy
        C0 = ox * ox + oy * oy - 1.0
        return (-B + np.sqrt(np.maximum(B * B - A * C0, 0.0))) / A

    # queries ----------------------------------------------------------------

    def curvature_at(self, s):
        t = self._t_of_s(s)
        return self.a * self.b / self._speed(t) ** 3

    def gauge(self, point):
        p = np.asarray(point, dtype=float)
        q = math.hypot(p[0] / self.a, p[1] / self.b)
        # rescale so the value approximates signed distance near the boundary
        return (q - 1.0) * self.b

    def arc_of_point(self, point) -> float:
        p = np.asarray(point, dtype=float)
        t = math.atan2(p[1] / self.b, p[0] / self.a) % TWO_PI
        return float(self.to_arc(t))

    def _exit_tau(self, origin, direction) -> float:
        tau = float(self._unit_chord(origin[0] / self.a, origin[1] / self.b,
                                     direction[0] / self.a,
                                     direction[1] / self.b))
        if tau <= self.tol_root:
            raise TangentRay("exit chord degenerates")
        return tau


# ---------------------------------------------------------------------------
# CurvatureTable
# ---------------------------------------------------------------------------

class CurvatureTable(ConvexBody):
    """Closed convex curve reconstructed from tabulated curvature.

    Input is a grid s_i in [0, L) with curvature values kappa_i > 0 treated
    as a periodic function of arc length.  The tangent angle is the integral
    of kappa; total turning must come out 2*pi and the reconstructed curve
    must close, both within a relative tolerance of 1e-6 after an affine
    correction of the tangent angle (tabulated data never closes exactly).
    """

    variant = "curvature_table"
    _BISECT = 13
    _DENSE = 2 ** _BISECT  # dense grid cells; bounce bisects over them
    _NEWTON = 5            # Newton steps of bounce inside a cell
    _CLOSURE_RTOL = 1e-6

    def __init__(self, s_grid, kappa):
        s_grid = np.asarray(s_grid, dtype=float)
        kappa = np.asarray(kappa, dtype=float)
        if s_grid.ndim != 1 or s_grid.size < 8 or s_grid.size != kappa.size:
            raise ValueError("need matching 1-d grids with at least 8 samples")
        if np.any(np.diff(s_grid) <= 0) or s_grid[0] != 0.0:
            raise ValueError("s grid must start at 0 and increase strictly")
        if np.any(kappa <= 0):
            raise ValueError("curvature values must be strictly positive")

        self.perimeter = float(s_grid[-1] + (s_grid[-1] - s_grid[-2]))
        # periodic cubic interpolant of curvature
        s_ext = np.append(s_grid, self.perimeter)
        k_ext = np.append(kappa, kappa[0])
        self._kappa_spline = CubicSpline(s_ext, k_ext, bc_type="periodic")

        s = np.linspace(0.0, self.perimeter, self._DENSE + 1)
        k = self._kappa_spline(s)
        theta = _cumtrapz(k, s)
        total_turn = theta[-1]
        if abs(total_turn - TWO_PI) > self._CLOSURE_RTOL * TWO_PI:
            raise NonClosedCurve(
                f"total turning {total_turn:.9f} differs from 2*pi beyond tolerance")
        theta *= TWO_PI / total_turn  # affine correction to an exact full turn

        x = _cumtrapz(np.cos(theta), s)
        y = _cumtrapz(np.sin(theta), s)
        gap = math.hypot(x[-1], y[-1])
        if gap > self._CLOSURE_RTOL * self.perimeter:
            raise NonClosedCurve(
                f"endpoint mismatch {gap:.3e} exceeds closure tolerance")
        # distribute the leftover closure gap linearly along the curve
        x -= s / self.perimeter * x[-1]
        y -= s / self.perimeter * y[-1]

        cx, cy = np.mean(x[:-1]), np.mean(y[:-1])
        x -= cx
        y -= cy

        self._s_dense = s
        self._dense = _UniformKnots(s)
        self._x = CubicSpline(s, x)
        self._y = CubicSpline(s, y)
        # the bounce kernel's view of the same splines: coefficients (4,
        # cells) of x + iy, cell widths, and the knots over two turns
        self._z = self._x.c + 1j * self._y.c
        self._h = np.diff(s)
        self._knots_ext = np.concatenate([s, s[1:] + self.perimeter])

        # radial description around the interior centroid for gauge queries
        psi = np.unwrap(np.arctan2(y[:-1], x[:-1]))
        if psi[0] < 0:
            psi += TWO_PI
        rad = np.hypot(x[:-1], y[:-1])
        psi_ext = np.concatenate([psi, [psi[0] + TWO_PI]])
        rad_ext = np.concatenate([rad, [rad[0]]])
        s_by_psi = np.concatenate([s[:-1], [self.perimeter]])
        self._psi0 = psi[0]
        self._radial = CubicSpline(psi_ext, rad_ext, bc_type="periodic")
        self._s_of_psi = CubicSpline(psi_ext, _monotone_lift(s_by_psi, self.perimeter))

        self.curvature_min = float(np.min(k))
        self.curvature_max = float(np.max(k))
        self.diameter = self._diameter_search()
        self._validate()

    def _diameter_search(self) -> float:
        pts = np.stack([self._x(self._s_dense[:-1]), self._y(self._s_dense[:-1])], axis=-1)
        sub = pts[:: max(1, pts.shape[0] // 4096)]
        # farthest candidate pair, the first maximum in row-major order,
        # scanned in row blocks so no (n, n, 2) temporary is built
        x, y = sub[:, 0], sub[:, 1]
        best, i, j = -1.0, 0, 0
        for r in range(0, x.size, 64):
            d2 = (x[r:r + 64, None] - x) ** 2 + (y[r:r + 64, None] - y) ** 2
            k = int(np.argmax(d2))
            if d2.flat[k] > best:
                best, i, j = d2.flat[k], r + k // x.size, k % x.size
        return _refine_diameter(self, sub[i], sub[j])

    # bounce kernel: native coordinate is arc length ------------------------

    def to_native(self, s):
        return self.wrap(np.asarray(s, dtype=float))

    to_arc = to_native

    def frame(self, s):
        # the normal turns the x, y splines' own unit tangent, the launch
        # reference of ``bounce``
        j, t = self._cell(self.wrap(np.asarray(s, dtype=float)))
        c = self._z.take(j, axis=1)
        p, d = _horner(c, t), _horner_d(c, t)
        d = d / np.abs(d)
        return p.real, p.imag, -d.imag, d.real

    def _cell(self, s):
        """Dense-grid cells of wrapped arc lengths s and the offsets into
        them."""
        return self._dense.cell(s)

    def bounce(self, s, theta):
        # One solve in arc length with the same fixed steps for every chord,
        # so a batch gives each chord the bits it gets alone.  Points are
        # complex numbers; turned by w = exp(-i (phi + theta)), phi the angle
        # of the splines' tangent at the origin o, the launch direction
        # becomes i.  On a convex curve g(sigma) = Re((P(sigma) - o) w) is
        # positive on (s, s') and negative on (s', s + perimeter), s' the
        # landing: bisection over the dense nodes finds the cell of s', then
        # safeguarded Newton steps solve inside it, or, for a landing within
        # a cell of the origin, ``_short_chord``.
        s, theta = np.broadcast_arrays(self.wrap(np.asarray(s, dtype=float)),
                                       np.asarray(theta, dtype=float))
        shape = s.shape
        s, theta = s.ravel(), theta.ravel()
        N = self._DENSE
        # the origin's dense-grid cell j0 and its offset ts into it
        j0, ts = self._cell(s)
        c0 = self._z.take(j0, axis=1)
        o = _horner(c0, ts)
        d = _horner_d(c0, ts)
        w = np.conj(d) / np.abs(d) * np.exp(-1j * theta)

        nodes = self._z[3]
        lo = np.zeros(s.size, dtype=np.intp)
        for k in range(1, self._BISECT + 1):
            # g(node j0 + lo) > 0 >= g(node j0 + lo + 2 * half)
            half = N >> k
            node = nodes.take(j0 + lo + half, mode="wrap")
            lo += half * (((node - o) * w).real > 0.0)
        # s' in the cell of s or in a neighbour
        short = ((lo <= 1) | (lo == N - 1)
                 | (((nodes[j0] - o) * w).real > 0.0))

        # s' in cell j at offset t: Newton on G = g / (r (perimeter - r)),
        # r = sigma - s = a + t, which divides out g's trivial roots at the
        # origin and so is nearly linear even on chords a few cells long
        j = (j0 + lo) % N
        a = self._knots_ext[j0 + lo] - s
        b = self.perimeter - a
        c = self._z.take(j, axis=1)

        def newton_g(t):
            g = ((_horner(c, t) - o) * w).real
            dg = (_horner_d(c, t) * w).real
            return g, g / (dg - g * (1.0 / (a + t) - 1.0 / (b - t)))

        t = _safeguarded_newton(newton_g, 0.0, self._h[j], self._NEWTON)
        landing = self._s_dense[j] + t
        tau = np.abs(_horner(c, t) - o)
        if short.any():
            k = np.flatnonzero(short)
            landing[k], tau[k] = self._short_chord(
                s[k], ts[k], c0[:, k], w[k], theta[k], self._h[j0[k]])
        return self.wrap(landing).reshape(shape), tau.reshape(shape)

    def _short_chord(self, s, ts, c, w, theta, h):
        """Landing and length of chords that land within a cell of their
        origin.

        Solves H = Re(D w) = 0 for the divided difference
        D(t) = (P(t) - P(ts)) / (t - ts) of the origin cell's cubic c,
        continued over the neighbouring cells (a C2 spline's pieces differ
        there by the jump of the third derivative times t^3): H has no root
        at the origin and no cancellation on chords of any length.
        """
        def divided(t):
            return c[0] * (t * t + t * ts + ts * ts) + c[1] * (t + ts) + c[2]

        def newton_h(t):
            H = (divided(t) * w).real  # increasing in t where theta > 0
            dH = ((c[0] * (2.0 * t + ts) + c[1]) * w).real
            return np.where(theta > 0.0, -H, H), H / dH

        t = _safeguarded_newton(newton_h, ts - 2.0 * h, ts + 2.0 * h,
                                self._NEWTON)
        return s + (t - ts), np.abs(t - ts) * np.abs(divided(t))

    def curvature_at(self, s):
        return self._kappa_spline(self.wrap(np.asarray(s, dtype=float)))

    def _psi_wrap(self, psi):
        return self._psi0 + np.mod(psi - self._psi0, TWO_PI)

    def gauge(self, point):
        p = np.asarray(point, dtype=float)
        psi = self._psi_wrap(math.atan2(p[1], p[0]))
        return float(math.hypot(p[0], p[1]) - self._radial(psi))

    def arc_of_point(self, point) -> float:
        p = np.asarray(point, dtype=float)
        psi = self._psi_wrap(math.atan2(p[1], p[0]))
        s = float(self.wrap(self._s_of_psi(psi)))
        # refine: project onto the curve by minimising distance locally
        for _ in range(4):
            x, y, nx, ny = self.frame(s)
            s = float(self.wrap(s + (p[0] - x) * ny - (p[1] - y) * nx))
        return s

    def _exit_tau(self, origin, direction) -> float:
        # march until the gauge changes sign, then bisect with brentq
        step = self.diameter / 64.0
        f = lambda t: self.gauge(origin + t * direction)
        t_in, t_out = 0.0, step
        while f(t_out) < 0.0:
            if t_out >= 3.0 * self.diameter:
                raise TangentRay("ray failed to exit; geometry inconsistent")
            t_in, t_out = t_out, t_out + step
        if t_in == 0.0 and f(0.0) > -self.tol_geom:
            # On a boundary origin the gauge is rounding noise, so the
            # bracket starts at a point strictly inside: halve toward the
            # origin until the gauge turns negative (a chord shorter than
            # the first step exits before it).
            t_in = 0.5 * step
            while not f(t_in) < 0.0:
                if t_in <= self.tol_root:
                    raise TangentRay("exit chord degenerates")
                t_out, t_in = t_in, 0.5 * t_in
        tau = brentq(f, t_in, t_out, xtol=self.tol_root)
        if tau <= self.tol_root:
            raise TangentRay("exit chord degenerates")
        return float(tau)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _turn(nx, ny, theta):
    """The unit vector (nx, ny) rotated counterclockwise by theta."""
    c, s = np.cos(theta), np.sin(theta)
    return c * nx - s * ny, s * nx + c * ny


def _safeguarded_newton(fn, ta, tb, steps):
    """``steps`` Newton steps from the midpoints of the brackets [ta, tb].

    ``fn(t)`` returns (f, f / f'), f positive on the ta side of the root.
    Each step shrinks the bracket to the side of t that holds the root and
    clips the Newton iterate into it, so a root at a bracket end (where
    rounding put it) is reached in one step; an undefined step bisects.
    """
    t = 0.5 * (ta + tb)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            f, step = fn(t)
            pos = f > 0.0
            ta, tb = np.where(pos, t, ta), np.where(pos, tb, t)
            t_new = t - step
            t = np.where(np.isnan(t_new), 0.5 * (ta + tb),
                         np.clip(t_new, ta, tb))
    return t


class _UniformKnots:
    """Equally spaced knots from 0 (as ``np.linspace(0, span, n + 1)``
    makes them), whose cells are looked up by index, not by binary search.
    """

    def __init__(self, knots):
        self.knots = knots
        n = knots.size - 1
        self._scale = n / float(knots[n])
        self._last = float(n - 1)
        # the knots that a cell guess is checked against, with NaN for the
        # two end knots: no comparison with NaN holds, so no correction
        # moves a cell past an end cell, which clamps it
        fenced = knots.copy()
        fenced[0] = fenced[n] = np.nan
        self._lower, self._upper = fenced[:-1], fenced[1:]

    def cell(self, x):
        """Cells of x and the offsets into them.

        The cell is the i in [0, n - 1], n the number of cells, with
        knots[i] <= x < knots[i + 1], clamped to the end cells: what
        ``clip(searchsorted(knots, x, "right") - 1, 0, n - 1)`` and scipy's
        interval search return.  The guess x * n / span is off by at most
        one cell, so one knot comparison each way makes it exact.  NaN gets
        a valid cell and a NaN offset.
        """
        x = np.asarray(x, dtype=float)
        j = np.fmax(np.fmin(x * self._scale, self._last), 0.0).astype(np.intp)
        j -= x < self._lower[j]
        j += x >= self._upper[j]
        return j, x - self.knots[j]

    def cubic(self, c, x):
        """Piecewise cubic with coefficients c (4, n), highest power first,
        at x; the end cells extrapolate.

        Bit for bit the value of scipy's ``PPoly`` (so ``CubicSpline``) with
        the same coefficients and knots: the cell is the same, and the
        pieces are summed in its order, powers of the offset as running
        products.
        """
        j, dt = self.cell(x)
        c = c.take(j, axis=1)
        dt2 = dt * dt
        return 0.0 + c[3] + c[2] * dt + c[1] * dt2 + c[0] * (dt2 * dt)


def _horner(c, t):
    """Cubic pieces with coefficients c[0..3] (highest power first) at
    offsets t into their cells."""
    return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]


def _horner_d(c, t):
    """Derivative of ``_horner(c, t)`` in t."""
    return (3.0 * c[0] * t + 2.0 * c[1]) * t + c[2]


def _cumtrapz(values, s):
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(s), out=out[1:])
    return out


def _monotone_lift(seq, period):
    """Lift a cyclically increasing sequence to a strictly increasing one."""
    out = np.asarray(seq, dtype=float).copy()
    for i in range(1, out.size):
        while out[i] < out[i - 1]:
            out[i] += period
    return out


def _refine_diameter(body: ConvexBody, p, q) -> float:
    """Golden-section polish of a candidate farthest pair."""
    si = body.arc_of_point(p)
    sj = body.arc_of_point(q)

    def dist(a, b):
        d = body.position_at(a) - body.position_at(b)
        return float(np.hypot(d[0], d[1]))

    span = body.perimeter / 2048.0
    for _ in range(2):
        si = _golden_max(lambda s: dist(s, sj), si - span, si + span)
        sj = _golden_max(lambda s: dist(si, s), sj - span, sj + span)
        span /= 8.0
    return dist(si, sj)


def _golden_max(fn, lo, hi, iters=60):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# module-level operation wrappers (the public verbs)
# ---------------------------------------------------------------------------

def point_at(body: ConvexBody, s: float) -> BoundaryPoint:
    """Boundary point, inward normal and tangent at arc length s (mod perimeter)."""
    return body.point_at(s)


def exit_ray(body: ConvexBody, origin, direction) -> tuple[float, BoundaryPoint]:
    """First boundary hit of an interior ray; returns (tau, hit point)."""
    return body.exit_ray(origin, direction)


def chord_angle(body: ConvexBody, x: BoundaryPoint, y: BoundaryPoint) -> float:
    """Angle at y between the chord y->x and the inward normal at y."""
    return body.chord_angle(x, y)


def summarize(body: ConvexBody) -> BodySummary:
    """Perimeter, diameter and curvature bounds of the body."""
    return body.summarize()


def body_from_config(spec: dict) -> ConvexBody:
    """Build a body from its config mapping.

    Accepted forms::

        {"disc": {"r": 1.0}}
        {"ellipse": {"a": 2.0, "b": 1.0}}
        {"curvature_table": {"path": "curve.csv"}}   # CSV rows: s,kappa
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError("body spec must be a single-key mapping")
    kind, args = next(iter(spec.items()))
    if kind == "disc":
        return Disc(args["r"])
    if kind == "ellipse":
        return Ellipse(args["a"], args["b"])
    if kind == "curvature_table":
        data = np.loadtxt(args["path"], delimiter=",", dtype=float)
        return CurvatureTable(data[:, 0], data[:, 1])
    raise ValueError(f"unknown body variant {kind!r}")
