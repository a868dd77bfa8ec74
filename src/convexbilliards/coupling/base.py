"""Coupling primitives: arc windows, residual thinning, outcome records.

Every coupling in the package splits the two sides' laws p_a and p_b
into a common part q <= min(p_a, p_b), drawn once for both sides, and a
residual p - q for each side.  A side thins its residual from its full
law: it rejects a candidate y iff a uniform U has U p(y) < q(y).  The
process couplings take q to be the plateau ``level`` times the indicator
of their windows' overlap, which both laws dominate: with probability
level * |overlap| both sides take one common value, uniform on the
overlap, and otherwise both thin.  The chain coupling runs the step in
rejection form on q = min(level * 1_overlap, p_a, p_b): side a draws x
from its full law, the sides couple iff U p_a(x) < q(x), and only side b
thins.  Either way both marginals are preserved exactly and the sides are
equal with probability the integral of q; q = min(p_a, p_b) is the
maximal coupling (Thorisson, *Coupling, Stationarity, and Regeneration*,
2000; Jacob, O'Leary and Atchade, JRSSB 2020).

A window is an arc ``(lo, length)`` of arrays on a circle of period P,
with ``lo`` in any unwrapped coordinate.  An overlap is two such arcs
stacked on a leading axis of length two; a missing piece has length 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ResidualSamplingError
from ..geometry import TWO_PI

MAX_REJECTS = 1_000_000


# ---------------------------------------------------------------------------
# arc windows
# ---------------------------------------------------------------------------

def _wrap_pi(x):
    """Angle reduced to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi


def arc_overlap(lo_a, len_a, lo_b, len_b, period):
    """Intersection of the arcs [lo_a, lo_a + len_a) and [lo_b, lo_b + len_b).

    Returns ``(lo, length)`` of its two pieces stacked on axis 0, in the
    unwrapped frame of the first arc, as one array of shape (2, 2, ...).
    """
    len_a = np.minimum(len_a, period)
    len_b = np.minimum(len_b, period)
    # offset of b's start relative to a's start, in [0, P)
    d = np.mod(lo_b - lo_a, period)
    # piece 1: b starting inside [0, len_a)
    p_len = np.where(d < len_a,
                     np.maximum(np.minimum(d + len_b, len_a) - d, 0.0), 0.0)
    out = np.empty((2, 2) + p_len.shape)
    out[0, 0], out[0, 1], out[1, 0] = lo_a + d, lo_a + 0.0, p_len
    # piece 2: b wrapped around (start at d - P)
    out[1, 1] = np.maximum(np.minimum(d + len_b - period, len_a), 0.0)
    return out


def in_arcs(x, lo, length, period):
    """Whether x lies on one of the arcs ``(lo, length)`` listed on axis 0."""
    inside = np.mod(x - lo[0], period) < length[0]
    for a, n in zip(lo[1:], length[1:]):
        inside = inside | (np.mod(x - a, period) < n)
    return inside


def draw_arcs(lo, length, u, period):
    """Point at fraction u of the total length of two arcs, in [0, P)."""
    pick = u * (length[0] + length[1])
    return np.mod(np.where(pick < length[0], lo[0] + pick,
                           lo[1] + (pick - length[0])), period)


# ---------------------------------------------------------------------------
# residual thinning
# ---------------------------------------------------------------------------

def thin_residual(n, propose, rng: np.random.Generator):
    """Residual draws for ``n`` rows: the package's one rejection loop.

    Each round ``propose(rows)`` draws one candidate for every pending row
    (``rows`` index 0..n-1) and returns ``(fields, reject)``: a tuple of
    new arrays whose first axis runs over ``rows``, and ``reject(w)``,
    which maps one uniform per pending row to the mask of candidates it
    rejects.  A candidate y at density p(y) under a common part q is
    rejected iff w p(y) < q(y), which keeps the residual p - q; a caller
    that knows its rejection probabilities passes ``lambda w: w < prob``.
    Returns the kept fields, with first axis 0..n-1.
    """
    rows = np.arange(n)
    kept = None
    rounds = 0
    while rows.size:
        if rounds == MAX_REJECTS:
            raise ResidualSamplingError(
                f"residual thinning reached its rejection cap of"
                f" {MAX_REJECTS} rounds")
        rounds += 1
        fields, reject = propose(rows)
        rejected = reject(rng.random(rows.size))
        if kept is None:
            # the first round proposes for every row; later rounds
            # overwrite the rows it rejected
            kept = fields
        else:
            acc = ~rejected
            done = rows[acc]
            for k, f in zip(kept, fields):
                k[done] = f[acc]
        rows = rows[rejected]
    return kept


# ---------------------------------------------------------------------------
# outcome records
# ---------------------------------------------------------------------------

@dataclass
class AttemptRecord:
    stage: int
    success: bool
    overlap_mass: float


@dataclass
class CouplingOutcome:
    """Result of one coupling run.

    ``coupling_index`` counts chain steps, ``coupling_time`` is the clock
    time of the continuous process; whichever does not apply stays None.
    After success both trajectories are identical entry for entry.
    """

    coupled: bool
    coupling_index: int | None = None
    coupling_time: float | None = None
    attempts: list[AttemptRecord] = field(default_factory=list)
    traj_a: np.ndarray | None = None
    traj_b: np.ndarray | None = None
