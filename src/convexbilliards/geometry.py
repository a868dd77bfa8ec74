"""Planar compact convex bodies with two-sided curvature bounds.

A body is described by its boundary, an arc-length parametrised closed convex
curve.  Three variants are supported:

* ``Disc(r)``            -- circle of radius r centred at the origin,
* ``Ellipse(a, b)``      -- semi-axes a >= b, centred at the origin,
* ``CurvatureTable``     -- a closed curve reconstructed from tabulated
                            curvature values kappa(s) by integrating the
                            tangent angle.

Every body has one bounce kernel, its chord ``_chord(state, theta,
timed)``, written in its native boundary coordinate u: the polar angle on
the disc, the parameter angle on the ellipse and arc length on the table.
``to_native``/``to_arc`` convert between u and arc length, and
``frame(u)`` gives position and inward normal.  On the chord,
``bounce(u, theta)`` returns the landing coordinate and the flight time of
the chord launched at angle theta from the normal, and
``walk(u, theta, tau=None)`` runs it over rows of angles and yields each
landing, computing flight times only into a ``tau`` buffer that the caller
passes; the ellipse carries the landing's point on the unit circle from
one chord to the next.  All broadcast over arrays; the engines keep u
between bounces and convert to arc length only where they need it.  The
arc-length queries (``point_at``, ``position_at``) use the same frame.

``exit_ray`` (first boundary hit of a ray from a cartesian origin in the
body) is the scalar reference: one solve per body, ``_exit``, from the
origin's position rather than its arc length, returns the hit's native
coordinate.  Discs and ellipses use the closed forms of their quadratics.
The tabulated variant's chord solves for the landing arc length on its
dense spline grid, by bisection over the grid nodes and then a fixed
number of Newton steps, for all chords at once; its ``exit_ray`` finds
every crossing of the ray's line among the same nodes and solves each on
its cell's cubic.  Bodies are immutable after construction and safe to
share between threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    NonClosedCurve,
    OutsideBody,
    TangentRay,
)

TWO_PI = 2.0 * math.pi
_GOLDEN_STEPS = 60  # golden-section steps of the diameter polish


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

    @property
    def native_period(self) -> float:
        """Period of the native coordinate: 2*pi on discs and ellipses, the
        perimeter on tables.

        ``bounce`` lands in [0, native_period], the end included where
        rounding puts it there.  On [0, native_period) ``to_arc`` increases
        from 0 toward the perimeter, up to rounding of a few ulps; at and
        near the ends it may wrap, which ``stats.NativeBins`` leaves to the
        arc-length rule.
        """
        raise NotImplementedError

    def frame(self, u):
        """(x, y, nx, ny): boundary position and inward unit normal at u.

        The counterclockwise unit tangent is (ny, -nx).
        """
        raise NotImplementedError

    def _start(self, u):
        """The state of the chord from native u: u, unless the body
        carries more between bounces."""
        return u

    def _chord(self, state, theta, timed):
        """The one chord solve of a body: (landing native coordinate,
        state at the landing, flight time if ``timed`` else None) of the
        chords from ``state`` at angles theta to the inward normal."""
        raise NotImplementedError

    def bounce(self, u, theta):
        """One chord: launch from u at angle theta to the inward normal.

        Returns (landing native coordinate, flight time).  theta must lie
        strictly inside (-pi/2, pi/2); the engines keep it there with the
        tangency guard of ``dynamics.guarded_angles``.
        """
        land, _, time = self._chord(self._start(u), theta, True)
        return land, time

    def walk(self, u, theta, tau=None):
        """Bounces from native u on the rows of theta in turn.

        A generator over any iterable of rows: yields the landing native
        coordinate after each bounce, each row starting from the state of
        the last landing; the first bounce broadcasts u against theta[0]
        and is ``bounce``'s, bit for bit.  When ``tau`` is given, bounce k
        writes its flight time into ``tau[k]`` before its landing is
        yielded; without it none is computed.
        """
        state = self._start(u)
        timed = tau is not None
        for k, th in enumerate(theta):
            u, state, time = self._chord(state, th, timed)
            if timed:
                tau[k] = time
            yield u

    # -- elementary queries (vectorised in s) -------------------------------

    def wrap(self, s):
        """Reduce arc-length coordinates modulo the perimeter."""
        return np.mod(s, self.perimeter)

    def position_at(self, s):
        x, y, _, _ = self.frame(self.to_native(s))
        return np.stack([x, y], axis=-1)

    def curvature_at(self, s):
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
        tau, u = self._exit(np.asarray(origin, dtype=float),
                            np.asarray(direction, dtype=float))
        if tau <= self.tol_root:
            raise TangentRay("exit chord degenerates")
        return tau, self.point_of(float(self.wrap(self.to_arc(u))), u)

    def _exit(self, o, d):
        """(tau, native coordinate of the hit) of ``exit_ray``: raises
        ``OutsideBody`` for an origin o more than tol_geom outside the body
        and ``TangentRay`` for one within tol_geom of the boundary whose
        direction d does not point inward by more than tol_geom."""
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
    native_period = TWO_PI

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

    def _chord(self, phi, theta, timed):
        # the closed-form polar recursion of ``dynamics.disc_step_exact``
        land = np.mod(phi + math.pi + 2.0 * theta, TWO_PI)
        return land, land, (2.0 * self.r * np.cos(theta) if timed else None)

    def curvature_at(self, s):
        return np.full_like(np.asarray(s, dtype=float), 1.0 / self.r)

    def _exit(self, o, d):
        rho, b = float(np.hypot(o[0], o[1])), float(np.dot(o, d))
        if rho - self.r > self.tol_geom:
            raise OutsideBody(f"ray origin {o} lies outside the body")
        if rho - self.r > -self.tol_geom and -b <= self.tol_geom * rho:
            raise TangentRay("direction does not point into the interior")
        # |o + tau d|^2 = r^2 with |d| = 1; take the positive root.
        c0 = float(np.dot(o, o)) - self.r * self.r
        tau = -b + math.sqrt(max(b * b - c0, 0.0))
        hit = o + tau * d
        return tau, math.atan2(hit[1], hit[0])


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
    native_period = TWO_PI
    _TABLE = 4096

    def __init__(self, a: float, b: float):
        if not (a >= b > 0):
            raise ValueError("semi-axes must satisfy a >= b > 0")
        from scipy import special
        from scipy.interpolate import CubicSpline
        self.a = float(a)
        self.b = float(b)
        self._m = 1.0 - (self.b / self.a) ** 2  # squared eccentricity
        self._p, self._q = self.b / self.a, self.a / self.b
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
        from scipy import special
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
        ct, st = np.cos(t), np.sin(t)
        return (self.a * ct, self.b * st, *self._normal(ct, st))

    def _start(self, t):
        # the point of the unit circle that the scaling maps to t; a walk
        # carries the landing's instead of the cos and sin of its angle, so
        # its later landings differ from ``bounce``'s by rounding only
        return np.cos(t), np.sin(t)

    def _chord(self, o, theta, timed):
        """The chord from the point o = (ct, st) of the unit circle at angle
        theta to the ellipse's inward normal there: (landing parameter
        angle, landing on the unit circle, flight time if ``timed`` else
        None).

        With h = tan(theta/2), c = (1 - h)(1 + h), s = 2h, p = b/a and
        q = a/b, the launch direction mapped onto the circle is, up to a
        positive factor, u = (s st - p c ct, -(s ct + q c st)): the inward
        normal (-b ct, -a st) turned by theta, divided by (a, b).  The
        origin o lies on the circle, so the chord is the other root of
        |o + f u|^2 = 1, f = -2 (o . u) / |u|^2, and
        o . u = -c (p ct^2 + q st^2) exactly: no normal, no normalisation,
        no square root, and no cancellation in o . u at grazing angles.
        The flight time is the length of f (a ux, b uy).  Every temporary
        wider than theta is made once and scaled in place.  The landing is
        not projected back onto the circle, so along a walk the radius
        drifts from 1 as a random walk of rounding errors, by a few 1e-14
        over 2e4 bounces.
        """
        ct, st = o
        h = np.tan(0.5 * theta)
        c = 1.0 - h
        c *= 1.0 + h
        h += h                  # s
        pc = c * ct
        pc *= self._p           # p c ct
        qc = c * st
        qc *= self._q           # q c st
        ux = h * st
        ux -= pc
        vy = h * ct
        vy += qc                # -uy
        pc *= ct
        qc *= st
        pc += qc                # -(o . u)
        den = ux * ux
        den += vy * vy
        pc += pc
        pc /= den               # f
        ux *= pc
        vy *= pc
        time = None
        if timed:
            time = np.sqrt((self.a * ux) ** 2 + (self.b * vy) ** 2)
        ux += ct                # the landing o + f u
        vy *= -1.0
        vy += st
        return _mod_two_pi(np.arctan2(vy, ux)), (ux, vy), time

    def _normal(self, ct, st):
        # the ellipse's inward unit normal at the image of (ct, st)
        sp = np.sqrt((self.a * st) ** 2 + (self.b * ct) ** 2)
        return -self.b * ct / sp, -self.a * st / sp

    # queries ----------------------------------------------------------------

    def curvature_at(self, s):
        t = self._t_of_s(s)
        return self.a * self.b / self._speed(t) ** 3

    def _exit(self, o, d):
        # the affine scaling (x / a, y / b) maps the ellipse onto the unit
        # circle and the ray onto o' + tau u; tau is the positive root of
        # |o' + tau u| = 1, from an origin o' that need not lie on the circle
        ox, oy = o[0] / self.a, o[1] / self.b
        ux, uy = d[0] / self.a, d[1] / self.b
        gap = (math.hypot(ox, oy) - 1.0) * self.b  # about the signed distance
        if gap > self.tol_geom:
            raise OutsideBody(f"ray origin {o} lies outside the body")
        gx, gy = ox / self.a, oy / self.b   # the outward normal's direction
        if (gap > -self.tol_geom and -(d[0] * gx + d[1] * gy)
                <= self.tol_geom * math.hypot(gx, gy)):
            raise TangentRay("direction does not point into the interior")
        A, B = ux * ux + uy * uy, ox * ux + oy * uy
        C0 = ox * ox + oy * oy - 1.0
        tau = float((-B + math.sqrt(max(B * B - A * C0, 0.0))) / A)
        hit = o + tau * d
        return tau, math.atan2(hit[1] / self.b, hit[0] / self.a) % TWO_PI


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
    _DENSE = 2 ** _BISECT  # dense grid cells; the chord bisects over them
    _NEWTON = 3            # the chord's Newton steps inside a cell
    _EXIT_STEPS = 4        # exit_ray's root steps inside a cell
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
        from scipy.interpolate import CubicSpline

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
        # cells) of x + iy, cell widths, and the knots and nodes over two
        # turns
        self._z = self._x.c + 1j * self._y.c
        self._h = np.diff(s)
        self._knots_ext = np.concatenate([s, s[1:] + self.perimeter])
        self._nodes_ext = np.concatenate([self._z[3], self._z[3]])

        edges = self._nodes_ext[1:s.size] - self._z[3]   # exit_ray's polygon
        self._edges = edges / np.abs(edges)

        self.curvature_min = float(np.min(k))
        self.curvature_max = float(np.max(k))
        self.diameter = self._diameter_search()
        # the largest sag of a dense cell's arc off its chord, h^2 C / 8: a
        # boundary point lies outside the dense polygon by up to this much
        self._sag = self.curvature_max * float(self._h.max()) ** 2 / 8.0
        self._validate()

    def _diameter_search(self) -> float:
        # the x and y splines' values at the dense knots, at most 4096 of them
        stride = max(1, self._z.shape[1] // 4096)
        nodes = self._z[3][::stride]
        i, j = _farthest_pair(nodes.real, nodes.imag)
        knots = self._s_dense[::stride]
        return _refine_diameter(self, float(knots[i]), float(knots[j]))

    # bounce kernel: native coordinate is arc length ------------------------

    def to_native(self, s):
        return self.wrap(np.asarray(s, dtype=float))

    to_arc = to_native

    @property
    def native_period(self) -> float:
        return self.perimeter

    def frame(self, s):
        # the normal turns the x, y splines' own unit tangent, the launch
        # reference of ``_chord``
        j, t = self._dense.cell(self.wrap(np.asarray(s, dtype=float)))
        c = self._z.take(j, axis=1)
        p, d = _horner(c, t), _horner_d(c, t)
        d = d / np.abs(d)
        return p.real, p.imag, -d.imag, d.real

    def position(self, s):
        """(x, y) of ``frame(s)``, bit for bit, without the normal."""
        j, t = self._dense.cell(self.wrap(np.asarray(s, dtype=float)))
        p = _horner(self._z.take(j, axis=1), t)
        return p.real, p.imag

    # every chord starts from an arc length wrapped into [0, perimeter]
    _start = to_native

    def _chord(self, s, theta, timed):
        """(landing arc length, which is also the state there, flight time
        if ``timed`` else None) of the chords from arc lengths s in
        [0, perimeter] at angles theta to the inward normal.

        One solve in arc length with the same fixed steps for every chord,
        so a batch gives each chord the bits it gets alone.  Points are
        complex numbers.  With d the splines' tangent at the origin o,
        w = conj(d) exp(-i theta) turns the launch direction to i |d|.  On
        a convex curve g(sigma) = Re((P(sigma) - o) w) is positive on
        (s, s') and negative on (s', s + perimeter), s' the landing:
        bisection over the dense nodes finds the cell of s', then
        safeguarded Newton steps on the cell's real cubic g solve inside
        it, or, for a landing within a cell of the origin,
        ``_short_chord``.  The bisection's signs and every Newton ratio are
        the same for any positive multiple of w, so w is not normalised.
        """
        theta = np.asarray(theta, dtype=float)
        if s.shape != theta.shape:   # every walk passes equal shapes
            s, theta = np.broadcast_arrays(s, theta)
        shape = s.shape
        s, theta = s.ravel(), theta.ravel()
        N = self._DENSE
        # the origin's dense-grid cell j0 and its offset ts into it
        j0, ts = self._dense.cell(s)
        c0 = self._z.take(j0, axis=1)
        o = _horner(c0, ts)
        w = np.conj(_horner_d(c0, ts)) * np.exp(-1j * theta)

        nodes = self._nodes_ext
        top = j0.copy()   # j0 + lo, lo the bisection's lower offset
        for k in range(1, self._BISECT + 1):
            # g(node j0 + lo) > 0 >= g(node j0 + lo + 2 * half)
            half = N >> k
            node = nodes.take(top + half)
            top += half * (((node - o) * w).real > 0.0)
        lo = top - j0
        # s' in the cell of s or in a neighbour
        short = ((lo <= 1) | (lo == N - 1)
                 | (((nodes[j0] - o) * w).real > 0.0))

        # s' in cell j at offset t: Newton on G = g / (r (perimeter - r)),
        # r = sigma - s = a + t, which divides out g's trivial roots at the
        # origin and so is nearly linear even on chords a few cells long.
        # g is the real cubic with coefficients Re(c_k w), its constant
        # term Re((c_3 - o) w): subtracting o before turning keeps the
        # digits that Re(c_3 w) - Re(o w) would cancel.
        j = top % N
        a = self._knots_ext[top] - s
        b = self.perimeter - a
        c = self._z.take(j, axis=1)
        c[3] -= o   # the cubic of P(sigma) - o
        r0, r1, r2, r3 = (c * w).real
        d0, d1 = 3.0 * r0, 2.0 * r1

        def newton_g(t):
            g = ((r0 * t + r1) * t + r2) * t + r3
            dg = (d0 * t + d1) * t + r2
            return g, g / (dg - g * (1.0 / (a + t) - 1.0 / (b - t)))

        t = _safeguarded_newton(newton_g, 0.0, self._h[j], self._NEWTON)
        landing = self._s_dense[j] + t
        tau = np.abs(_horner(c, t)) if timed else None
        if short.any():
            k = np.flatnonzero(short)
            landing[k], length = self._short_chord(
                s[k], ts[k], c0[:, k], w[k], theta[k], self._h[j0[k]], timed)
            if timed:
                tau[k] = length
        landing = self.wrap(landing).reshape(shape)
        return landing, landing, (tau.reshape(shape) if timed else None)

    def _short_chord(self, s, ts, c, w, theta, h, timed):
        """Landing and, if ``timed``, length (else None) of chords that land
        within a cell of their origin.

        Solves H = Re(D w) = 0 for the divided difference
        D(t) = (P(t) - P(ts)) / (t - ts) of the origin cell's cubic c,
        continued over the neighbouring cells (a C2 spline's pieces differ
        there by the jump of the third derivative times t^3): H has no root
        at the origin and no cancellation on chords of any length.  As in
        ``_chord``, H is a real polynomial whose coefficients are turned
        once, H = (q0 t + p1) t + p0 with q_k = Re(c_k w),
        p1 = q0 ts + q1 and p0 = p1 ts + q2: Re(D w) turned at every step
        rounds at the scale of |D w|, far above H near tangency, and the
        Newton iterates would wander by many ulps there.
        """
        q0, q1, q2 = (c[:3] * w).real
        p1 = q0 * ts + q1
        p0 = p1 * ts + q2
        dq0 = 2.0 * q0
        sign = np.where(theta > 0.0, -1.0, 1.0)

        def newton_h(t):
            H = (q0 * t + p1) * t + p0  # increasing in t where theta > 0
            return sign * H, H / (dq0 * t + p1)

        t = _safeguarded_newton(newton_h, ts - 2.0 * h, ts + 2.0 * h,
                                self._NEWTON)
        length = None
        if timed:
            divided = c[0] * (t * t + t * ts + ts * ts) + c[1] * (t + ts) + c[2]
            length = np.abs(t - ts) * np.abs(divided)
        return s + (t - ts), length

    def curvature_at(self, s):
        return self._kappa_spline(self.wrap(np.asarray(s, dtype=float)))

    def _exit(self, o, d):
        """(tau, arc length of the hit) of ``exit_ray``, on complex points.

        o is outside when it lies beyond an edge line of the dense nodes'
        polygon by more than tol_geom plus the largest sag of a cell, as a
        boundary point may.  g(sigma) = Im((P(sigma) - o) conj(d)), P's
        signed distance from the ray's line, changes sign over the cells
        that the line crosses; where no node lies across it, the line meets
        the curve twice in one cell, split where g turns, or not at all.
        Steps on each bracket's real cubic g, taken as in ``_chord``, solve
        every crossing at once, and the hit is the farthest along d.
        """
        o, w = complex(o[0], o[1]), complex(d[0], -d[1])
        nodes = self._z[3]
        if ((np.conj(o - nodes) * self._edges).imag.max()
                > self.tol_geom + self._sag):
            raise OutsideBody(f"ray origin {o} lies outside the body")
        g = ((nodes - o) * w).imag
        (j,) = _sign_change_cells(g, periodic=True)
        cap = j.size == 0
        if cap:   # both crossings in a cell next to the node nearest the line
            m = int(np.argmin(np.abs(g)))
            j = np.array([m - 1, m, m - 1, m]) % g.size
        c = self._z[:, j]
        c[3] -= o   # the cubic of P(sigma) - o
        r0, r1, r2, r3 = (c * w).imag
        d0, d1 = 3.0 * r0, 2.0 * r1
        ta, tb = np.zeros(j.size), self._h[j]
        if cap:
            # g turns at the root of (d0 t + d1) t + r2 near -r2 / d1
            root = np.sqrt(np.maximum(d1 * d1 - 4.0 * d0 * r2, 0.0))
            turn = np.clip(-2.0 * r2 / (d1 + np.copysign(root, d1)), 0.0, tb)
            ta[2:], tb[:2] = turn[2:], turn[:2]

        def cubic(t):
            return ((r0 * t + r1) * t + r2) * t + r3

        def quadratic_step(t):
            # to the root of g's quadratic Taylor model at t where sign * g
            # falls, or to its vertex if it has none: unlike Newton's, the
            # step does not only halve the gap to a grazing line's root
            g, g1, g2 = cubic(t), (d0 * t + d1) * t + r2, d0 * t + r1
            disc = g1 * g1 - 4.0 * g * g2
            root = sign * np.sqrt(np.maximum(disc, 0.0))
            return sign * g, np.where((sign * g1 < 0.0) & (disc > 0.0),
                                      2.0 * g / (g1 - root),
                                      (g1 + root) / (2.0 * g2))

        ga, gb = cubic(ta), cubic(tb)
        sign = np.where(ga > gb, 1.0, -1.0)
        t = _safeguarded_newton(quadratic_step, ta, tb, self._EXIT_STEPS)
        along = (_horner(c, t) * w).real   # (P(sigma) - o) . d
        u = self._s_dense[j] + t
        if cap:
            along, u = along[ga * gb <= 0.0], u[ga * gb <= 0.0]
        if along.size == 0:
            raise TangentRay("the ray's line does not enter the body")
        # o lies along[k] (d . n) off the tangent line at the crossing k
        # nearest it; within tol_geom, d must point inward at o's foot
        k = np.argmin(np.abs(along))
        nx, ny = self.frame(u[k])[2:]
        if abs(along[k] * (d[0] * nx + d[1] * ny)) <= self.tol_geom:
            foot = u[k] - along[k] * (d[0] * ny - d[1] * nx)
            nx, ny = self.frame(foot)[2:]
            if d[0] * nx + d[1] * ny <= self.tol_geom:
                raise TangentRay("direction does not point into the interior")
        k = np.argmax(along)
        return float(along[k]), float(u[k])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _turn(nx, ny, theta):
    """The unit vector (nx, ny) rotated counterclockwise by theta, for
    |theta| < pi.

    cos and sin of theta come from the half-angle tangent h = tan(theta/2)
    as (1 - h^2) / (1 + h^2) and 2 h / (1 + h^2): one ``tan``, about a
    quarter of the time of a ``cos`` and a ``sin`` (numpy 2.4, x86_64), to
    within 1e-15 of them, and -0.0 keeps its sign.
    """
    h = np.tan(0.5 * theta)
    k = 1.0 / (1.0 + h * h)
    c, s = (1.0 - h) * (1.0 + h) * k, 2.0 * h * k
    return c * nx - s * ny, s * nx + c * ny


def _mod_two_pi(t):
    """``t % TWO_PI``, bit for bit, for t in arctan2's range [-pi, pi]
    (-0.0 and +-pi included), without its division.  The mask times 2 pi
    adds 2 pi or +0.0, as ``np.where(t < 0.0, TWO_PI, 0.0)`` does, but
    that ``where`` on two scalars slows past a few thousand angles: 33
    against 143 us (``np.mod``: 540 us) on 25 000 angles, 7 against 9 us
    on 4096 (numpy 2.4, x86_64)."""
    return t + (t < 0.0) * TWO_PI


def _safeguarded_newton(fn, ta, tb, steps):
    """``steps`` Newton steps from the midpoints of the brackets [ta, tb].

    ``fn(t)`` returns (f, f / f'), f positive on the ta side of the root,
    or another step in place of Newton's f / f'.
    Each step shrinks the bracket to the side of t that holds the root and
    clips the Newton iterate into it, so a root at a bracket end (where
    rounding put it) is reached in one step; an undefined step bisects.
    Solves the table's chords and ray exits and the convex process
    coupling's chord times and bridges, each root with the bits it gets
    alone.
    """
    t = 0.5 * (ta + tb)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            f, step = fn(t)
            pos = f > 0.0
            ta, tb = np.where(pos, t, ta), np.where(pos, tb, t)
            t_new = t - step
            t = np.minimum(np.maximum(t_new, ta), tb)
            undefined = np.isnan(t_new)
            if np.count_nonzero(undefined):   # cheaper than .any()
                t = np.where(undefined, 0.5 * (ta + tb), t)
    return t


def _sign_change_cells(vals, *, periodic):
    """``np.nonzero`` of the cells i of sample rows that bracket a root:
    vals[..., i] == 0 or vals[..., i] * vals[..., i + 1] < 0.  With
    ``periodic`` the last cell closes the circle to the first sample."""
    nxt = np.roll(vals, -1, axis=-1) if periodic else vals[..., 1:]
    cur = vals if periodic else vals[..., :-1]
    return np.nonzero((cur == 0.0) | (cur * nxt < 0.0))


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


_ANTIPODE_REACH = 3  # neighbours scored on each side of an antipode


def _farthest_pair(x, y) -> tuple[int, int]:
    """(i, j) of the first maximum of (x_i - x_j)^2 + (y_i - y_j)^2 in
    row-major order, for the vertices of a strictly convex polygon in
    counterclockwise order.

    A farthest pair is antipodal: parallel lines of support pass through
    its ends (Shamos's rotating calipers).  A line of support at a vertex
    runs at any angle between those of its incoming and outgoing edges, so
    i and j are antipodal when these two ranges, one turned by pi,
    overlap, and then the range of one holds the outgoing end of the
    other's.  Turned by pi, i's outgoing edge angle falls in the range of
    ``opposite[i]``, the first vertex whose outgoing edge angle reaches
    it: one ``searchsorted`` for all vertices, as the angles increase.  So
    every antipodal pair is {i, opposite[i]} for one of its ends.  Each
    vertex is scored against the _ANTIPODE_REACH neighbours on each side
    of its antipode too, so rounding in the angles drops no pair.  Time
    and memory are O(n), against O(n^2) for the full scan.  d2(i, j) and
    d2(j, i) are the same bits, so the full scan's first maximum is the
    maximal pair (i < j) first in lexicographic order.
    """
    n = x.size
    angle = np.unwrap(np.arctan2(np.roll(y, -1) - y, np.roll(x, -1) - x))
    opposite = np.searchsorted(np.concatenate([angle, angle + TWO_PI]),
                               angle + math.pi)
    best, pair = -1.0, (0, 0)
    for r in range(-_ANTIPODE_REACH, _ANTIPODE_REACH + 1):
        j = (opposite + r) % n
        d2 = (x - x[j]) ** 2 + (y - y[j]) ** 2
        top = d2.max()
        if top < best:
            continue
        i = np.flatnonzero(d2 == top)
        first = min(zip(np.minimum(i, j[i]).tolist(),
                        np.maximum(i, j[i]).tolist()))
        if top > best or first < pair:
            best, pair = top, first
    return pair


def _refine_diameter(body: CurvatureTable, si, sj) -> float:
    """Golden-section polish of a candidate farthest pair of boundary
    points at arc lengths si and sj.

    Moves each end in turn to the farthest point from the other, twice,
    over a window that shrinks eightfold.  Each distance places both ends
    with one ``position`` call, which computes no normal.
    """
    def dist(a, b):
        x, y = body.position(body.to_native(np.array([a, b])))
        return float(np.hypot(x[0] - x[1], y[0] - y[1]))

    span = body.perimeter / 2048.0
    for _ in range(2):
        si = _golden_max(lambda s: dist(s, sj), si - span, si + span)
        sj = _golden_max(lambda s: dist(si, s), sj - span, sj + span)
        span /= 8.0
    return dist(si, sj)


def _golden_max(fn, a, b):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_STEPS):
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
