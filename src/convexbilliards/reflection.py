"""Reflection laws on the inward half-circle.

A reflection law is a probability density f on the angle window
[-pi/2, pi/2] measured from the inward normal.  Outgoing velocities are the
inward normal rotated by an angle drawn from f, independently at each bounce.

Built-in variants
-----------------
* ``cosine``              f(t) = cos(t)/2          (uniform stationary law)
* ``uniform_half``        f(t) = 1/pi              (``truncated_uniform``, w = pi)
* ``truncated_uniform``   f(t) = 1/w on [-w/2, w/2]
* ``table``               piecewise-linear density from (angle, value) rows

Each law can certify a *density floor*: a pair (floor, width) such that
f(t) >= floor for all |t| <= width/2.  The floor certificates feed every
rate certificate downstream, so the selection rule (maximise floor * width
by default) is overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveCore
from .geometry import BoundaryPoint

HALF_PI = 0.5 * math.pi
FLOOR_GRID = 10_000  # points of the floor and width search grids


@dataclass(frozen=True)
class FloorCertificate:
    """Certified lower bound: density >= floor on [-width/2, width/2]."""

    floor: float
    width: float

    def __post_init__(self):
        if not (self.floor > 0.0):
            raise NoPositiveCore("certified floor must be positive")
        if not (0.0 < self.width <= math.pi):
            raise ValueError("certified width must lie in (0, pi]")


class ReflectionLaw:
    """Immutable angular density with exact inverse-CDF sampling."""

    def __init__(self, kind: str, *, support_width: float = math.pi,
                 angles=None, values=None):
        self.kind = kind
        self.support_width = float(support_width)
        if kind == "table":
            self._init_table(angles, values)
        elif kind not in ("cosine", "uniform_half", "truncated_uniform"):
            raise ValueError(f"unknown law kind {kind!r}")
        if kind == "truncated_uniform" and not (0.0 < self.support_width <= math.pi):
            raise ValueError("truncated_uniform width must lie in (0, pi]")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def cosine() -> "ReflectionLaw":
        return ReflectionLaw("cosine")

    @staticmethod
    def uniform_half() -> "ReflectionLaw":
        return ReflectionLaw("uniform_half")

    @staticmethod
    def truncated_uniform(width: float) -> "ReflectionLaw":
        return ReflectionLaw("truncated_uniform", support_width=width)

    @staticmethod
    def from_table(angles, values) -> "ReflectionLaw":
        return ReflectionLaw("table", angles=angles, values=values)

    def _init_table(self, angles, values):
        a = np.asarray(angles, dtype=float)
        v = np.asarray(values, dtype=float)
        if a.ndim != 1 or a.size < 2 or a.size != v.size:
            raise ValueError("table law needs matching 1-d angle/value arrays")
        if np.any(np.diff(a) <= 0):
            raise ValueError("table angles must increase strictly")
        if a[0] < -HALF_PI - 1e-12 or a[-1] > HALF_PI + 1e-12:
            raise ValueError("table angles must lie within [-pi/2, pi/2]")
        if np.any(v < 0):
            raise ValueError("table density values must be non-negative")
        # symmetry about zero is part of the model; reject asymmetric input
        sym = np.interp(-a, a, v, left=0.0, right=0.0)
        if np.max(np.abs(sym - v)) > 1e-8 * max(np.max(v), 1.0):
            raise ValueError("table density must be symmetric about 0")
        mass = np.trapezoid(v, a)
        if mass <= 0:
            raise ValueError("table density has zero mass")
        v = v / mass
        self._ta = a
        self._tv = v
        # piecewise-linear CDF at the nodes
        seg = 0.5 * (v[1:] + v[:-1]) * np.diff(a)
        self._tcdf = np.concatenate([[0.0], np.cumsum(seg)])
        self._tcdf[-1] = 1.0
        self.support_width = 2.0 * float(max(abs(a[0]), abs(a[-1])))

    # -- value semantics -----------------------------------------------------
    # Laws are immutable, so two laws with the same kind, width and table
    # nodes are one law: tables cached per law are shared between them.

    def _key(self) -> tuple:
        key = (self.kind, self.support_width)
        if self.kind == "table":
            key += (self._ta.tobytes(), self._tv.tobytes())
        return key

    def __eq__(self, other):
        if not isinstance(other, ReflectionLaw):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- density / cdf -------------------------------------------------------

    def density(self, theta):
        """Vectorised density; zero outside [-pi/2, pi/2]."""
        t = np.asarray(theta, dtype=float)
        if self.kind == "cosine":
            out = 0.5 * np.cos(t)
            out = np.where(np.abs(t) <= HALF_PI, np.maximum(out, 0.0), 0.0)
        elif self.kind in ("uniform_half", "truncated_uniform"):
            half = 0.5 * self.support_width
            out = np.where(np.abs(t) <= half, 1.0 / self.support_width, 0.0)
        else:
            inside = (t >= self._ta[0]) & (t <= self._ta[-1])
            out = np.where(inside, np.interp(t, self._ta, self._tv), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, theta):
        t = np.asarray(theta, dtype=float)
        if self.kind == "cosine":
            out = 0.5 * (np.sin(np.clip(t, -HALF_PI, HALF_PI)) + 1.0)
        elif self.kind in ("uniform_half", "truncated_uniform"):
            half = 0.5 * self.support_width
            out = (np.clip(t, -half, half) + half) / self.support_width
        else:
            tc = np.clip(t, self._ta[0], self._ta[-1])
            idx = np.clip(np.searchsorted(self._ta, tc, side="right") - 1,
                          0, self._ta.size - 2)
            a0, a1 = self._ta[idx], self._ta[idx + 1]
            v0, v1 = self._tv[idx], self._tv[idx + 1]
            dt = tc - a0
            out = self._tcdf[idx] + v0 * dt + 0.5 * (v1 - v0) / (a1 - a0) * dt ** 2
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF sampling; exact for every variant."""
        u = rng.random(size)
        if self.kind == "cosine":
            return np.arcsin(2.0 * u - 1.0)
        if self.kind in ("uniform_half", "truncated_uniform"):
            return self.support_width * (u - 0.5)
        return self._table_ppf(u)

    def _table_ppf(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self._tcdf, u, side="right") - 1,
                      0, self._ta.size - 2)
        a0, a1 = self._ta[idx], self._ta[idx + 1]
        v0, v1 = self._tv[idx], self._tv[idx + 1]
        c0 = self._tcdf[idx]
        slope = (v1 - v0) / (a1 - a0)
        du = u - c0
        with np.errstate(divide="ignore", invalid="ignore"):
            # solve v0*x + slope*x^2/2 = du on each segment
            lin = du / np.where(v0 > 0, v0, 1.0)
            disc = np.maximum(v0 ** 2 + 2.0 * slope * du, 0.0)
            quadr = (np.sqrt(disc) - v0) / np.where(slope != 0.0, slope, 1.0)
        x = np.where(np.abs(slope) < 1e-14 * np.maximum(v0, 1e-300), lin, quadr)
        return a0 + np.clip(x, 0.0, a1 - a0)

    def mass_check(self) -> float:
        """Integral of the density over [-pi/2, pi/2]; should be 1."""
        if self.kind == "table":
            # piecewise linear: the trapezoid rule is the exact integral
            return float(np.trapezoid(self._tv, self._ta))
        from scipy.integrate import quad
        val, _ = quad(lambda t: float(self.density(t)), -HALF_PI, HALF_PI,
                      limit=200,
                      points=[-0.5 * self.support_width,
                              0.5 * self.support_width])
        return float(val)

    # -- floor certification --------------------------------------------------

    def floor_on(self, width: float) -> float:
        """Infimum of the density over [-width/2, width/2] on a fine grid."""
        if self.kind == "cosine":
            return float(0.5 * math.cos(0.5 * width))
        if self.kind in ("uniform_half", "truncated_uniform"):
            if width > self.support_width + 1e-15:
                return 0.0
            return 1.0 / self.support_width
        grid = np.linspace(-0.5 * width, 0.5 * width, FLOOR_GRID)
        nodes = self._ta[(self._ta >= grid[0]) & (self._ta <= grid[-1])]
        grid = np.concatenate([grid, nodes])
        return float(np.min(self.density(grid)))

    def certify_floor(self, width: float | None = None) -> FloorCertificate:
        """Certify a (floor, width) pair for this law.

        With ``width`` given, certify that exact window.  Otherwise search a
        grid of candidate widths and keep the one maximising floor * width,
        which is the default heuristic feeding the rate certificates.
        """
        if width is not None:
            floor = self.floor_on(width)
            if floor <= 0.0:
                raise NoPositiveCore(f"density not positive on width {width}")
            return FloorCertificate(floor, width)
        candidates = np.linspace(math.pi / FLOOR_GRID, math.pi, FLOOR_GRID)
        if self.kind == "table":
            candidates = np.unique(np.concatenate([candidates, 2.0 * np.abs(self._ta)]))
            candidates = candidates[(candidates > 0) & (candidates <= math.pi)]
        best = None
        for w in candidates:
            fl = self.floor_on(float(w))
            if fl <= 0.0:
                continue
            score = fl * w
            if best is None or score > best[0]:
                best = (score, fl, float(w))
        if best is None:
            raise NoPositiveCore("density admits no positive symmetric floor")
        return FloorCertificate(best[1], best[2])


def certify_density_floor(law: ReflectionLaw, width: float | None = None) -> FloorCertificate:
    """Certified (floor, width) pair; see ReflectionLaw.certify_floor."""
    return law.certify_floor(width)


def reflect(x: BoundaryPoint, theta: float) -> np.ndarray:
    """Outgoing unit velocity: the inward normal rotated by theta.

    Positive theta rotates counterclockwise; <result, normal> = cos(theta).
    """
    if abs(theta) > HALF_PI:
        raise ValueError("reflection angle must lie in [-pi/2, pi/2]")
    c, s = math.cos(theta), math.sin(theta)
    nx, ny = x.normal
    return np.array([c * nx - s * ny, s * nx + c * ny])


def law_from_config(spec) -> ReflectionLaw:
    """Build a law from its config form.

    Accepted forms::

        "cosine" | "uniform_half"
        {"truncated_uniform": {"theta_star": w}}
        {"table": {"path": "density.csv"}}      # CSV rows: theta,f
    """
    if isinstance(spec, str):
        if spec == "cosine":
            return ReflectionLaw.cosine()
        if spec == "uniform_half":
            return ReflectionLaw.uniform_half()
        raise ValueError(f"unknown law {spec!r}")
    if isinstance(spec, dict) and len(spec) == 1:
        kind, args = next(iter(spec.items()))
        if kind == "truncated_uniform":
            return ReflectionLaw.truncated_uniform(args["theta_star"])
        if kind == "table":
            data = np.loadtxt(args["path"], delimiter=",", dtype=float)
            return ReflectionLaw.from_table(data[:, 0], data[:, 1])
    raise ValueError(f"malformed law spec {spec!r}")
