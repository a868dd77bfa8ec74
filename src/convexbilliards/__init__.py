"""Stochastic billiards in planar convex bodies.

Simulation of the boundary chain and the continuous-time process, explicit
coupling constructions, closed-form convergence-rate certificates, and the
Monte-Carlo machinery that checks the certificates against observed decay.
"""

from . import coupling, dynamics, geometry, rates, reflection, stats
from .geometry import (
    BodySummary,
    BoundaryPoint,
    ConvexBody,
    CurvatureTable,
    Disc,
    Ellipse,
    body_from_config,
    chord_angle,
    exit_ray,
    point_at,
    summarize,
)
from .reflection import (
    FloorCertificate,
    ReflectionLaw,
    certify_density_floor,
    law_from_config,
    reflect,
)

__version__ = "0.1.0"
