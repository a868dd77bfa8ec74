"""Exception hierarchy for the billiard engine.

Every error raised by the package derives from BilliardError so callers can
catch engine failures without masking programming errors.
"""


class BilliardError(Exception):
    """Base class for all engine errors."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

class NonClosedCurve(BilliardError):
    """A tabulated curvature profile does not close up to tolerance."""


class TangentRay(BilliardError):
    """Ray leaves a boundary point tangentially; the chord degenerates."""


class OutsideBody(BilliardError):
    """Ray origin lies outside the body."""


class CoincidentPoints(BilliardError):
    """Two boundary points coincide where a chord is required."""


# ---------------------------------------------------------------------------
# dynamics / coupling
# ---------------------------------------------------------------------------

class BeyondHorizon(BilliardError):
    """Requested clock time exceeds the simulated span."""


class HorizonExceeded(BilliardError):
    """Coupling did not occur within the allotted horizon."""


class HypothesisViolated(BilliardError):
    """Inputs violate the hypothesis of the certificate being exercised."""


class ResidualSamplingError(BilliardError):
    """Rejection sampling of a residual law exceeded its iteration cap."""


# ---------------------------------------------------------------------------
# reflection laws
# ---------------------------------------------------------------------------

class NoPositiveCore(BilliardError):
    """Density has no symmetric window with a strictly positive floor."""


# ---------------------------------------------------------------------------
# rate certificates
# ---------------------------------------------------------------------------

class InvalidParams(BilliardError):
    """Free parameters outside their admissible open interval."""


class DegenerateBound(BilliardError):
    """Internal inconsistency: a success probability reached one or above."""


class NonPositiveAlpha(BilliardError):
    """Per-block coupling probability came out non-positive."""


class NonPositiveP(BilliardError):
    """Time-coupling success probability fell below the useful threshold."""


class NoAdmissibleWindow(BilliardError):
    """No room on the boundary for the required landing window."""


class GeometryDegenerate(BilliardError):
    """Bisector construction degenerate (equidistant intersection points)."""


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

class ShapeMismatch(BilliardError):
    """Histograms with different domains or bin counts."""


class AxisMismatch(BilliardError):
    """Curve and certificate live on different axes (steps vs time)."""


class InsufficientSamples(BilliardError):
    """Too few samples to produce a statistically meaningful verdict."""


class EmptyFeasibleSet(BilliardError):
    """No grid point of a parameter search was admissible."""


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class ConfigError(BilliardError):
    """Malformed or incomplete experiment configuration."""
