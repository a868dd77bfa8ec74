"""Explicit convergence-rate certificates.

Each certificate packages the constants of one convergence theorem together
with its bound curve:

* ``disc_chain_rate``     -- boundary chain on a disc, bound (1-a)^(n/n0-1)
* ``disc_process_rate``   -- continuous process on a disc, bound C*exp(-l*t)
* ``convex_chain_rate``   -- boundary chain on a convex body
* ``convex_process_rate`` -- continuous process on a convex body

plus the construction behind the convex pair-coupling window
(``bisector_window_geometry``, on the body's ``exit_ray`` and ``bounce``),
the one map from a kind to its constructor (``build_for_kind``) and a
deterministic grid search over the free slack parameters
(``optimize_free_params``).  The module imports no scipy.

Block counts are computed by direct search on their defining conditions
("first block length whose landing/time window clears the threshold");
closed-form shortcuts are evaluated alongside and a warning records any
discrepancy instead of silently diverging.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBound,
    EmptyFeasibleSet,
    GeometryDegenerate,
    InvalidParams,
    NoAdmissibleWindow,
    NonPositiveAlpha,
    NonPositiveP,
    TangentRay,
)
from .geometry import BodySummary, BoundaryPoint, ConvexBody

TWO_PI = 2.0 * math.pi


@dataclass
class RateParams:
    """Free slack parameters of the rate theorems (all strictly positive).

    eps    -- angular or arc slack shrinking landing windows
    eta    -- time margin inside the two-bounce time window (disc process)
    beta   -- guard distance from the bisector point (convex process)
    delta  -- guard distance from the critical landing points (convex process)
    zeta   -- time slack per bounce in the flight-time window (convex process)
    """

    eps: float | None = None
    eta: float | None = None
    beta: float | None = None
    delta: float | None = None
    zeta: float | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


class RateCertificate:
    """Constants plus bound curve of one convergence theorem."""

    def __init__(self, kind: str, axis: str, inputs: dict, constants: dict,
                 warnings: list[str] | None = None, lam: float | None = None):
        self.kind = kind
        self.axis = axis  # "step" for chains, "time" for processes
        self.inputs = dict(inputs)
        self.constants = dict(constants)
        self.warnings = list(warnings or [])
        if axis == "time":
            lam_max = constants["lambda_M"]
            self.lam = 0.5 * lam_max if lam is None else float(lam)
            if not (0.0 < self.lam < lam_max):
                raise InvalidParams("lambda must lie in (0, lambda_M)")
            self.constants["lambda"] = self.lam
            self.constants["C_lambda"] = tail_prefactor(
                self.lam, constants["inner"], constants["outer"],
                constants["block"], constants["head"])

    # -- bound curves ---------------------------------------------------------

    def bound(self, x):
        """Theoretical bound at step count / time x, capped at one."""
        x = np.asarray(x, dtype=float)
        if self.axis == "step":
            a = self.constants["alpha"]
            n0 = self.constants["n0"]
            if a >= 1.0:
                out = np.where(x >= n0, 0.0, 1.0)
            else:
                out = np.minimum(1.0, (1.0 - a) ** (x / n0 - 1.0))
        else:
            out = np.minimum(1.0, self.constants["C_lambda"]
                             * np.exp(-self.lam * x))
        return out if out.ndim else float(out)

    def prefactor_at(self, lam: float) -> float:
        """C_lambda as a function of lambda in (0, lambda_M); time axis only."""
        if self.axis != "time":
            raise InvalidParams("prefactor_at applies to process certificates")
        return tail_prefactor(lam, self.constants["inner"],
                              self.constants["outer"],
                              self.constants["block"], self.constants["head"])

    def curve_table(self, n_points: int = 256) -> list[list[float]]:
        if self.axis == "step":
            xs = np.arange(n_points, dtype=float)
        else:
            xs = np.linspace(0.0, 10.0 / self.lam, n_points)
        return [[float(x), float(self.bound(x))] for x in xs]

    # -- serialisation --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "axis": self.axis,
            "inputs": self.inputs,
            "constants": self.constants,
            "bound_curve": self.curve_table(),
            "warnings": self.warnings,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "RateCertificate":
        lam = data["constants"].get("lambda")
        cert = RateCertificate(data["kind"], data["axis"], data["inputs"],
                               data["constants"], data["warnings"], lam=lam)
        return cert


CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["kind", "axis", "inputs", "constants", "bound_curve", "warnings"],
    "properties": {
        "kind": {"enum": ["disc_chain", "disc_process",
                          "convex_chain", "convex_process"]},
        "axis": {"enum": ["step", "time"]},
        "inputs": {"type": "object"},
        "constants": {"type": "object"},
        "bound_curve": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# exponential-tail helpers (shared by both process certificates)
# ---------------------------------------------------------------------------

def _tail_root_offset(inner: float, outer: float) -> float:
    """s2 - 1 where s2 is the positive root of a*b*s^2 + (1-a)*s - 1.

    Written without cancellation so it stays accurate when inner * outer
    is far below machine precision (certified rates can be that small).
    As outer -> 1 the value reduces to inner / (1 - inner) exactly.
    """
    a, b = inner, 1.0 - outer
    disc = math.sqrt((1.0 - a) ** 2 + 4.0 * a * b)
    return 4.0 * a * outer / (((1.0 + a) + disc) * ((1.0 - a) + disc))


def tail_lambda_max(inner: float, outer: float, block: float) -> float:
    """Largest decay rate for the two-stage geometric coupling tail.

    ``inner`` is the per-attempt success of the repeated stage (time
    coupling), ``outer`` the success of the final joint stage, and ``block``
    the almost-sure time bound of one attempt.  The rate is the smaller of
    the two radii of convergence of the nested geometric generating
    functions; as outer -> 1 the second branch reduces to the first.
    """
    if not (0.0 < inner < 1.0):
        raise DegenerateBound(f"inner success probability {inner} outside (0, 1)")
    if not (0.0 < outer <= 1.0):
        raise DegenerateBound(f"outer success probability {outer} outside (0, 1]")
    b1 = -math.log1p(-inner) / block
    b2 = math.log1p(_tail_root_offset(inner, outer)) / block
    return min(b1, b2)


def tail_prefactor(lam: float, inner: float, outer: float, block: float,
                   head: float) -> float:
    """Prefactor of the exponential tail bound at decay rate lam.

    Finite and positive for lam in (0, lambda_max); diverges at the branch
    that binds.  ``head`` bounds the initial flight before the first hit.
    The denominator is evaluated through the factorised quadratic so it
    keeps full relative accuracy for success probabilities near zero.
    """
    a, b = inner, 1.0 - outer
    u = math.expm1(lam * block)           # s - 1
    x = _tail_root_offset(inner, outer)   # s2 - 1
    disc = math.sqrt((1.0 - a) ** 2 + 4.0 * a * b)
    stem = a * b * (1.0 + u) + 0.5 * ((1.0 - a) + disc)  # a*b*(s - s1)
    denom = stem * (x - u)
    if denom <= 0.0 or u >= inner / (1.0 - inner):
        raise InvalidParams("lambda at or beyond the certificate range")
    return outer * inner * math.exp(lam * (head + 2.0 * block)) / denom


# ---------------------------------------------------------------------------
# disc chain
# ---------------------------------------------------------------------------

def disc_chain_rate(width: float, floor: float,
                    eps: float | None = None) -> RateCertificate:
    """Chain certificate on a disc from a certified (floor, width) pair.

    width > pi/2: one bounce suffices; alpha = floor * (2*width - pi).
    width <= pi/2: blocks of n0 bounces with
        n0 = floor((pi - 2 eps) / (2 (width - eps))) + 1,
        alpha = (eps/2)^(n0-1) * floor^n0 * (2 n0 width - 2 (n0-1) eps - pi).
    """
    if not (0.0 < width <= math.pi) or floor <= 0.0:
        raise InvalidParams("need width in (0, pi] and a positive floor")
    warnings: list[str] = []
    if width > 0.5 * math.pi:
        n0 = 1
        alpha = floor * (2.0 * width - math.pi)
        inputs = {"width": width, "floor": floor}
    else:
        if eps is None or not (0.0 < eps < width):
            raise InvalidParams("window slack eps must lie in (0, width)")
        n0 = _minimal_n(lambda n: 2.0 * n * width - 2.0 * (n - 1) * eps,
                        math.pi, n_min=2)
        n0_closed = math.floor((math.pi - 2.0 * eps)
                               / (2.0 * (width - eps))) + 1
        if n0_closed != n0:
            warnings.append(
                f"closed-form block count {n0_closed} disagrees with the"
                f" defining condition ({n0}); using the latter")
        alpha = ((0.5 * eps) ** (n0 - 1) * floor ** n0
                 * (2.0 * n0 * width - 2.0 * (n0 - 1) * eps - math.pi))
        inputs = {"width": width, "floor": floor, "eps": eps}
    if not (0.0 < alpha <= 1.0 + 1e-12):
        raise NonPositiveAlpha(f"alpha = {alpha} outside (0, 1]")
    return RateCertificate("disc_chain", "step", inputs,
                           {"n0": n0, "alpha": min(alpha, 1.0)}, warnings)


def _minimal_n(window_length, threshold: float, n_min: int) -> int:
    n = n_min
    while window_length(n) <= threshold:
        n += 1
        if n > 10_000_000:
            raise InvalidParams("landing windows never exceed the threshold")
    return n


# ---------------------------------------------------------------------------
# disc process
# ---------------------------------------------------------------------------

def t2_density_floor(r: float, width: float, floor: float, eta: float) -> float:
    """Density floor of the two-bounce flight time on its margin-eta window.

    Valid for width in (2*pi/3, pi) and eta in (0, 2r(1 - cos(width/2))):
    the two-bounce time density is at least the returned value on
    [4r cos(width/2) + eta, 4r - eta].
    """
    if not (2.0 * math.pi / 3.0 < width < math.pi):
        raise InvalidParams("width must lie in (2*pi/3, pi)")
    if not (0.0 < eta < 2.0 * r * (1.0 - math.cos(0.5 * width))):
        raise InvalidParams("eta outside (0, 2r(1 - cos(width/2)))")
    half = 0.5 * width
    inner = (half - math.acos(math.cos(half) + eta / (2.0 * r)))
    outer = math.acos(1.0 - eta / (2.0 * r))
    return (2.0 * floor ** 2 / (r * math.sin(half))) * min(inner, outer)


def disc_pair_profile(r: float, width: float, floor: float,
                      eps: float) -> dict:
    """Joint (landing angle, two-bounce time) plateau used by stage two.

    Level floor^2 / (4 r sin(width/4)) on the product of the angle window
    of half-width (width - 4 eps) around the start and the time window
    (4 r cos(width/4), 4 r cos(width/4 - eps)).  The printed form of this
    profile carries two compensating factor-two slips; this is the version
    the change of variables actually proves, and the one the joint-coupling
    success probability (alpha) is consistent with.
    """
    if not (2.0 * math.pi / 3.0 < width < math.pi):
        raise InvalidParams("width must lie in (2*pi/3, pi)")
    if not (0.0 < eps < 0.25 * width):
        raise InvalidParams("eps must lie in (0, width/4)")
    quarter = 0.25 * width
    return {
        "level": floor ** 2 / (4.0 * r * math.sin(quarter)),
        "angle_halfwidth": width - 4.0 * eps,
        "t_lo": 4.0 * r * math.cos(quarter),
        "t_hi": 4.0 * r * math.cos(quarter - eps),
    }


def disc_process_rate(r: float, width: float, floor: float, eta: float,
                      eps: float, lam: float | None = None) -> RateCertificate:
    """Process certificate on a disc of radius r.

    Requires width in (2*pi/3, pi), eta in (0, r(1 - 2cos(width/2))) and
    eps in (0, (2*width - pi)/8).  Constants: the two-bounce time floor
    delta, the guaranteed window overlap h, the joint-stage success alpha,
    and the exponential tail (lambda_M, C_lambda) with per-attempt time
    bound 4r and initial flight bound 2r.
    """
    if r <= 0.0 or floor <= 0.0:
        raise InvalidParams("need r > 0 and a positive floor")
    if not (2.0 * math.pi / 3.0 < width < math.pi):
        raise InvalidParams("width must lie in (2*pi/3, pi)")
    eta_hi = r * (1.0 - 2.0 * math.cos(0.5 * width))
    if not (0.0 < eta < eta_hi):
        raise InvalidParams(f"eta outside (0, {eta_hi})")
    eps_hi = (2.0 * width - math.pi) / 8.0
    if not (0.0 < eps < eps_hi):
        raise InvalidParams(f"eps outside (0, {eps_hi})")

    delta = t2_density_floor(r, width, floor, eta)
    h = 2.0 * r * (1.0 - 2.0 * math.cos(0.5 * width)) - 2.0 * eta
    quarter = 0.25 * width
    alpha = (floor ** 2 / math.sin(quarter)) \
        * (4.0 * width - TWO_PI - 16.0 * eps) \
        * (math.cos(quarter - eps) - math.cos(quarter))
    inner = delta * h
    if inner >= 1.0:
        raise DegenerateBound("time-coupling success reached one; inputs invalid")
    if not (0.0 < alpha <= 1.0):
        raise NonPositiveAlpha(f"alpha = {alpha} outside (0, 1]")
    block = 4.0 * r
    lam_max = tail_lambda_max(inner, alpha, block)
    constants = {
        "delta": delta, "h": h, "alpha": alpha,
        "inner": inner, "outer": alpha, "block": block, "head": 2.0 * r,
        "lambda_M": lam_max,
    }
    inputs = {"r": r, "width": width, "floor": floor, "eta": eta, "eps": eps}
    return RateCertificate("disc_process", "time", inputs, constants, lam=lam)


# ---------------------------------------------------------------------------
# convex chain
# ---------------------------------------------------------------------------

def convex_chain_rate(summary: BodySummary, width: float, floor: float,
                      eps: float | None = None) -> RateCertificate:
    """Chain certificate on a convex body from its summary and a law floor.

    q_min = c * floor * cos(width/2) / (C * D) bounds the one-step kernel on
    the reachable arc; the case split compares width with C * perimeter / 8.
    """
    c, C = summary.curvature_min, summary.curvature_max
    D, P = summary.diameter, summary.perimeter
    if not (0.0 < width <= math.pi) or floor <= 0.0:
        raise InvalidParams("need width in (0, pi] and a positive floor")
    if math.cos(0.5 * width) <= 1e-12:
        raise NonPositiveAlpha(
            "kernel floor q_min vanishes (width = pi makes cos(width/2) = 0);"
            " certify a narrower window")
    q_min = c * floor * math.cos(0.5 * width) / (C * D)
    warnings: list[str] = []
    reach = 4.0 * width / C  # printed per-bounce reach of the landing arc
    if width > C * P / 8.0:
        n0 = 1
        alpha = q_min * (2.0 * reach - P)
        inputs = {"width": width, "floor": floor, **summary.as_dict()}
    else:
        if eps is None or not (0.0 < eps < 2.0 * width / C):
            raise InvalidParams("eps must lie in (0, 2*width/C)")
        n0 = _minimal_n(lambda n: n * reach - 2.0 * (n - 1) * eps, P / 2.0,
                        n_min=2)
        n0_closed = math.floor((P / 2.0 - 2.0 * eps) / (reach - 2.0 * eps)) + 1
        if n0_closed != n0:
            warnings.append(
                f"closed-form block count {n0_closed} disagrees with the"
                f" defining condition ({n0}); using the latter")
        alpha = (reach ** (n0 - 1) * q_min ** n0
                 * (4.0 * (n0 * 0.5 * reach - (n0 - 1) * eps) - P))
        inputs = {"width": width, "floor": floor, "eps": eps,
                  **summary.as_dict()}
    if alpha <= 0.0:
        raise NonPositiveAlpha(
            f"alpha = {alpha} is non-positive; try a smaller eps")
    if alpha > 1.0 + 1e-12:
        raise InvalidParams(f"alpha = {alpha} exceeds one; inputs inconsistent")
    constants = {"q_min": q_min, "n0": n0, "alpha": min(alpha, 1.0)}
    return RateCertificate("convex_chain", "step", inputs, constants, warnings)


# ---------------------------------------------------------------------------
# bisector window geometry (convex pair coupling)
# ---------------------------------------------------------------------------

@dataclass
class BisectorWindows:
    """Output of the pair-window construction for two boundary points.

    All arc coordinates are absolute (in [0, perimeter)).  The landing
    interval I_star has length h*eps/2; (R1, R2) is the common time window;
    eta_level is the joint density floor on I_star x (R1, R2).
    """

    s_ybar: float
    t_z_x: float
    t_z_xt: float
    I_star: tuple[float, float]
    r1: float
    r2: float
    rt1: float
    rt2: float
    R1: float
    R2: float
    h: float
    M: float
    eps: float               # half-width of the bisector landing patch
    eta_level: float
    grad_min: float          # smallest |d phi/ds| seen on the window grid


def _path_time(body, w_pos, s, t):
    """Two-leg path time |w - g(s)| + |g(s) - g(t)| (vectorised in s or t)."""
    gs = body.position_at(s)
    gt = body.position_at(t)
    d1 = gs - w_pos
    d2 = gs - gt
    return np.hypot(d1[..., 0], d1[..., 1]) + np.hypot(d2[..., 0], d2[..., 1])


def _path_time_dds(body, w_pos, s, t):
    """Derivative of the path time in the first-leg landing coordinate s."""
    x, y, nx, ny = body.frame(body.to_native(s))   # tangent (ny, -nx)
    gs = np.stack([x, y], axis=-1)
    gt = body.position_at(t)
    d1 = gs - w_pos
    d2 = gs - gt
    n1 = np.hypot(d1[..., 0], d1[..., 1])
    n2 = np.hypot(d2[..., 0], d2[..., 1])
    e = d1 / n1[..., None] + d2 / np.where(n2 > 0, n2, 1.0)[..., None]
    return e[..., 0] * ny - e[..., 1] * nx


def bisector_window_geometry(body: ConvexBody, x: BoundaryPoint,
                             xt: BoundaryPoint,
                             params: RateParams) -> BisectorWindows:
    """Construct the landing/time windows for the convex pair coupling.

    Steps: the perpendicular bisector of (x, xt) meets the boundary where
    the rays from the chord's midpoint along +-its unit normal exit
    (``exit_ray``), and y_bar is the hit farther from the starts; a ray
    that is tangent there (the midpoint within tol_geom of the boundary,
    for a pair closer than about 1e-5 D) marks the near side.  By Fermat's
    principle the two-leg path time from a start through y_bar is
    stationary in the first landing where the second leg mirrors the chord
    toward the start about the normal at y_bar, so both stationary landings
    are one specular ``bounce`` from y_bar.  Then carve a landing interval
    I_star of length h*eps/2 clear of those points and intersect the
    resulting time windows.  Raises GeometryDegenerate when the bisector
    hits are equidistant (after one more pass with the second point nudged
    along the boundary) and NoAdmissibleWindow when no landing room remains.
    """
    beta, delta, eps = params.beta, params.delta, params.eps
    if beta is None or delta is None or eps is None:
        raise InvalidParams("convex pair windows need beta, delta and eps")
    if beta <= 0.0 or delta <= 0.0:
        raise InvalidParams("beta and delta must be positive")
    summary = body.summarize()
    P, D = summary.perimeter, summary.diameter
    c, C = summary.curvature_min, summary.curvature_max
    if P / 3.0 - max(2.0 * delta, beta + delta) <= 0.0:
        raise InvalidParams("perimeter/3 must exceed max(2*delta, beta+delta)")
    if not (0.0 < eps < min(beta, 1.0 / C)):
        raise InvalidParams("eps must lie in (0, min(beta, 1/C))")
    M = 2.0 * (1.0 / (1.0 / C - eps) + 1.0 / (beta - eps) + C)
    h = (delta / D) * (beta * c / 2.0) ** 2 - eps * M
    if h <= 0.0:
        raise InvalidParams("window slope floor h is non-positive; shrink eps")

    for nudge in (0.0, 1e-6 * P):
        if nudge:
            xt = body.point_at(xt.s + nudge)
        d = x.position - xt.position
        length = float(np.hypot(d[0], d[1]))
        if length < body.tol_geom:
            raise GeometryDegenerate("pair coupling needs two distinct points")
        centre = 0.5 * (x.position + xt.position)
        normal = np.array([-d[1], d[0]]) / length
        ends = []
        for direction in (normal, -normal):
            try:
                y = body.exit_ray(centre, direction)[1]
            except TangentRay:   # the midpoint lies on this side's boundary
                ends.append((0.5 * length, None))
                continue
            ends.append((float(np.hypot(*(y.position - x.position))), y))
        (near, _), (far, ybar) = sorted(ends, key=lambda e: e[0])
        if far - near >= 1e-9 * D:
            break
    else:
        raise GeometryDegenerate("bisector intersections equidistant")
    s_ybar = ybar.s

    # landing coordinates where the path-time derivative vanishes at s_ybar:
    # the mirror images, about the normal there, of the chords to the starts
    psi = np.array([body.chord_angle(w, ybar) for w in (x, xt)])
    t_z_x, t_z_xt = body.wrap(body.to_arc(
        body.bounce(body.to_native(s_ybar), -psi)[0])).tolist()

    # admissible landing region, then a centred interval of length h*eps/2
    target_len = 0.5 * h * eps
    comp = _free_components(P, [(s_ybar, beta), (t_z_x, delta),
                                (t_z_xt, delta)])
    comp = [(a, b) for a, b in comp if b - a > target_len]
    if not comp:
        raise NoAdmissibleWindow("no landing room outside the guard zones")
    a, b = max(comp, key=lambda ab: ab[1] - ab[0])
    mid = 0.5 * (a + b)
    I_star = (body.wrap(mid - 0.5 * target_len),
              body.wrap(mid - 0.5 * target_len) + target_len)

    # window extrema of both starts (axis 0); the path time is monotone in s
    # on the bisector patch [s1, s2], rising where its mean slope at the
    # middle of I_star is positive
    t_grid = np.linspace(I_star[0], I_star[1], 33)
    s1, s2 = s_ybar - eps, s_ybar + eps
    w_pos = np.stack([x.position, xt.position])[:, None, None]
    grads = _path_time_dds(body, w_pos, np.linspace(s1, s2, 33)[:, None],
                           t_grid)
    ends = _path_time(body, w_pos, np.array([[s1], [s2]]), t_grid)
    rising = (grads[:, :, 16].mean(axis=1) >= 0.0)[:, None]
    (r1, rt1), (r2, rt2) = (
        np.where(rising, ends[:, 0], ends[:, 1]).max(axis=1).tolist(),
        np.where(rising, ends[:, 1], ends[:, 0]).min(axis=1).tolist())
    R1, R2 = max(r1, rt1), min(r2, rt2)
    if not (r1 < r2 and rt1 < rt2):
        raise DegenerateBound("window extrema inverted; geometry inconsistent")
    if R2 - R1 < 2.0 * (h * eps - target_len) - 1e-9 * D:
        raise DegenerateBound("common time window narrower than guaranteed")

    a_level = (c * 1.0 / (2.0 * D)) ** 2 * (1.0 / C - eps) * (beta - eps)
    # eta carries the law floor squared; stored per unit floor^2 here and
    # scaled by the caller (convex_process_rate) which knows the law
    return BisectorWindows(
        s_ybar=s_ybar, t_z_x=t_z_x, t_z_xt=t_z_xt, I_star=I_star,
        r1=r1, r2=r2, rt1=rt1, rt2=rt2, R1=R1, R2=R2, h=h, M=M, eps=eps,
        eta_level=0.5 * a_level, grad_min=float(np.abs(grads).min()))


def _free_components(P, guards):
    """Components of the circle minus guard intervals (centre, half-width)."""
    iv = []
    for centre, half in guards:
        lo = (centre - half) % P
        hi = lo + 2.0 * half
        if hi <= P:
            iv.append((lo, hi))
        else:
            iv.append((lo, P))
            iv.append((0.0, hi - P))
    iv.sort()
    merged = []
    for lo, hi in iv:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    free = []
    for i, (lo, hi) in enumerate(merged):
        nxt = merged[(i + 1) % len(merged)][0] + (P if i + 1 == len(merged) else 0.0)
        if nxt > hi:
            free.append((hi, nxt))
    return free


# ---------------------------------------------------------------------------
# convex process
# ---------------------------------------------------------------------------

def convex_process_rate(body: ConvexBody, floor: float, params: RateParams,
                        x: BoundaryPoint, xt: BoundaryPoint,
                        lam: float | None = None) -> RateCertificate:
    """Process certificate on a convex body (full half-circle law required).

    Stage one couples accumulated flight times using the per-bounce window
    [0, 2/C]; n0 is the first block length whose time window outgrows the
    diameter, found by direct search (the printed closed form has a known
    slip and is only reported).  Stage two uses the bisector windows.  The
    exponential tail uses the true per-attempt time bound n0 * D; when
    n0 != 2 this deviates from the printed prefactor (which hard-codes two
    bounces) and a warning records both values.
    """
    summary = body.summarize()
    c, C, D = summary.curvature_min, summary.curvature_max, summary.diameter
    zeta = params.zeta
    if zeta is None or not (0.0 < zeta < 1.0 / C):
        raise InvalidParams("zeta must lie in (0, 1/C)")
    if floor <= 0.0:
        raise InvalidParams("law floor must be positive")
    warnings: list[str] = []

    n0 = _minimal_n(lambda n: 2.0 * n / C - 2.0 * (n - 1) * zeta, D, n_min=1)
    denom_printed = 2.0 * (1.0 / C - 1.0)
    if denom_printed > 0.0:
        n0_printed = math.floor((D - 2.0 * zeta) / denom_printed) + 1
    else:
        n0_printed = None
    if n0_printed != n0:
        warnings.append(
            f"printed block-count formula gives {n0_printed}; the defining"
            f" condition gives {n0} (using the latter)")

    p = ((c * floor) ** n0 * zeta ** (n0 - 1)
         * (2.0 * n0 / C - 2.0 * (n0 - 1) * zeta - D))
    if p < 1e-12:
        raise NonPositiveP(f"stage-one success p = {p} below threshold")
    if p >= 1.0:
        raise DegenerateBound("stage-one success reached one; inputs invalid")

    win = bisector_window_geometry(body, x, xt, params)
    eta = win.eta_level * floor ** 2
    kappa = eta * (win.I_star[1] - win.I_star[0]) * (win.R2 - win.R1)
    if kappa <= 0.0:
        raise NonPositiveAlpha("joint-stage success kappa non-positive")

    block = n0 * D
    lam_max = tail_lambda_max(p, kappa, block)
    if n0 != 2:
        printed = tail_lambda_max(p, kappa, 2.0 * D)
        warnings.append(
            f"printed tail uses a two-bounce block (lambda_M {printed:.6e});"
            f" the coupling needs blocks of n0*D (lambda_M {lam_max:.6e})")
    constants = {
        "n0": n0, "p": p, "kappa": kappa, "eta_cont": eta,
        "h": win.h, "M": win.M,
        "I_star": list(win.I_star), "R1": win.R1, "R2": win.R2,
        "inner": p, "outer": kappa, "block": block, "head": D,
        "lambda_M": lam_max,
    }
    inputs = {"floor": floor, **params.as_dict(), **summary.as_dict(),
              "x_s": x.s, "xt_s": xt.s}
    return RateCertificate("convex_process", "time", inputs, constants,
                           warnings, lam=lam)


# ---------------------------------------------------------------------------
# free-parameter search
# ---------------------------------------------------------------------------

KIND_PARAMS = {
    "disc_chain": ("eps",),
    "disc_process": ("eta", "eps"),
    "convex_chain": ("eps",),
    "convex_process": ("zeta", "eps", "beta", "delta"),
}


def optimize_free_params(kind: str, fixed_inputs: dict,
                         grid_spec: dict) -> tuple[RateParams, RateCertificate]:
    """Deterministic grid search over the free slack parameters.

    ``grid_spec`` maps parameter names to value lists or (lo, hi, count)
    triples; the full product must stay within 1e6 points.  Chain kinds
    maximise alpha^(1/n0) (per-bounce contraction), process kinds maximise
    lambda_M.  Ties keep the lexicographically smallest parameter vector
    (grids are traversed in ascending order).
    """
    if kind not in KIND_PARAMS:
        raise InvalidParams(f"unknown certificate kind {kind!r}")
    names = [n for n in KIND_PARAMS[kind] if n in grid_spec]
    if not names:
        raise InvalidParams("grid_spec names no free parameter of this kind")
    axes = []
    for name in names:
        spec = grid_spec[name]
        if isinstance(spec, (tuple, list)) and len(spec) == 3 \
                and isinstance(spec[2], int):
            values = np.linspace(spec[0], spec[1], spec[2])
        else:
            values = np.sort(np.asarray(spec, dtype=float))
        axes.append(values)
    total = 1
    for a in axes:
        total *= a.size
    if total > 1_000_000:
        raise InvalidParams("grid exceeds 1e6 points")

    best = None
    for combo in itertools.product(*axes):
        params = RateParams(**dict(zip(names, map(float, combo))))
        try:
            cert = build_for_kind(kind, fixed_inputs, params)
        except (InvalidParams, NonPositiveAlpha, NonPositiveP,
                DegenerateBound, NoAdmissibleWindow, GeometryDegenerate):
            continue
        if cert.axis == "step":
            score = cert.constants["alpha"] ** (1.0 / cert.constants["n0"])
        else:
            score = cert.constants["lambda_M"]
        if best is None or score > best[0]:
            best = (score, params, cert)
    if best is None:
        raise EmptyFeasibleSet("no admissible grid point")
    return best[1], best[2]


def build_for_kind(kind, fixed, params: RateParams) -> RateCertificate:
    """The certificate of ``kind`` from the free ``params`` and the fixed
    inputs its constructor reads: ``width``, ``floor`` and ``r`` (disc
    kinds), ``summary`` (convex chain), ``body``, ``x`` and ``xt`` (convex
    process)."""
    if kind == "disc_chain":
        return disc_chain_rate(fixed["width"], fixed["floor"], params.eps)
    if kind == "disc_process":
        return disc_process_rate(fixed["r"], fixed["width"], fixed["floor"],
                                 params.eta, params.eps)
    if kind == "convex_chain":
        return convex_chain_rate(fixed["summary"], fixed["width"],
                                 fixed["floor"], params.eps)
    if kind == "convex_process":
        return convex_process_rate(fixed["body"], fixed["floor"], params,
                                   fixed["x"], fixed["xt"])
    raise InvalidParams(f"unknown certificate kind {kind!r}")
