"""Empirical measurement: histograms, total-variation estimates, density
lower-bound checks, and bound-dominance reports.

Total variation between two binned samples is half the L1 distance of the
normalised counts.  Monte-Carlo margins follow the normal approximation: for
two equal laws the TV estimator concentrates around a positive noise floor,
so every comparison against a theoretical bound carries an explicit
(bias + SIGMA_MARGIN * sd) margin rather than a bare 3-sigma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AxisMismatch,
    InsufficientSamples,
    ShapeMismatch,
)
from .geometry import ConvexBody
from .reflection import ReflectionLaw
from . import rng as rngmod
from .dynamics import run_chain_counts

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SIGMA_MARGIN = 3.0
LB_MIN_SAMPLES = 10_000
# NativeBins: equal cells of the native coordinate in its lookup table, and
# the widening of each cell's arc image, relative to the perimeter
BIN_CELLS = 8192
BIN_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

@dataclass
class Histogram:
    """Equal-width counts over [lo, hi), optionally periodic."""

    lo: float
    hi: float
    counts: np.ndarray
    periodic: bool = False

    @property
    def bin_count(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @staticmethod
    def from_samples(values, bins: int, lo: float, hi: float,
                     periodic: bool = False) -> "Histogram":
        v = np.asarray(values, dtype=float)
        if periodic:
            # from lo = 0 the wrap is one mod, without two passes that
            # change no bin
            v = np.mod(v, hi) if lo == 0.0 else lo + np.mod(v - lo, hi - lo)
        counts, _ = np.histogram(v, bins=bins, range=(lo, hi))
        return Histogram(lo=lo, hi=hi, counts=counts.astype(np.int64),
                         periodic=periodic)

    def merge(self, other: "Histogram") -> "Histogram":
        self._check_shape(other)
        return Histogram(self.lo, self.hi, self.counts + other.counts,
                         self.periodic)

    def probs(self) -> np.ndarray:
        t = self.total
        if t == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / t

    def _check_shape(self, other: "Histogram"):
        if (self.bin_count != other.bin_count or self.lo != other.lo
                or self.hi != other.hi or self.periodic != other.periodic):
            raise ShapeMismatch("histograms live on different domains")


class NativeBins:
    """Counts in ``bins`` equal arc-length bins of a body's boundary, read
    off native coordinates through a lookup table.

    Calling it on native coordinates u gives, bin for bin, the counts of
    ``arc_counts(body.to_arc(u))``, the arc-length rule of
    ``Histogram.from_samples`` with its periodic wrap: np.mod by the
    perimeter, then np.histogram.  The table splits [0, native_period)
    into BIN_CELLS equal cells.  A cell stores its bin when its arc image,
    ``to_arc`` at both ends widened by BIN_MARGIN times the perimeter,
    lies inside that bin; the widening covers rounding in ``to_arc`` and
    in the cell index.  Other cells and both end cells store ``bins``, so
    their coordinates, and those outside the period or near its ends,
    where ``to_arc`` may wrap, take the arc-length rule.  At 100 bins 1.3 %
    of the cells of ``Ellipse(2, 1)`` store no bin.
    """

    def __init__(self, body: ConvexBody, bins: int):
        self.body, self.bins = body, bins
        self._edges = edges = np.histogram((), bins,
                                           range=(0.0, body.perimeter))[1]
        self._scale = BIN_CELLS / body.native_period
        ends = body.to_arc(np.arange(BIN_CELLS + 1) / self._scale)
        lo = ends[:-1] - BIN_MARGIN * body.perimeter
        hi = ends[1:] + BIN_MARGIN * body.perimeter
        b = np.searchsorted(edges, lo, side="right") - 1
        inside = ((b >= 0) & (b < bins)
                  & (hi < edges[np.clip(b + 1, 0, bins)]))
        inside[[0, -1]] = False
        # one more cell past the period, for coordinates at its end
        self._table = np.append(np.where(inside, b, bins), bins)

    def arc_counts(self, s) -> np.ndarray:
        """Bin counts of arc-length coordinates s by the arc-length rule.

        The bins are np.histogram's over the edges that its ``range`` form
        builds: half-open, the last one closed, and values outside them or
        NaN left out.  A sorted search against those edges gives the same
        counts without np.histogram's sort of the values.
        """
        e, bins = self._edges, self.bins
        v = np.mod(s, self.body.perimeter)
        b = np.searchsorted(e, v, "right") - 1
        b[v == e[-1]] = bins - 1
        return np.bincount(b[(b >= 0) & (b < bins)], minlength=bins)

    def table_bins(self, u) -> np.ndarray:
        """The table's bin of each native coordinate; ``bins`` where it
        stores none."""
        return self._table.take((u * self._scale).astype(np.intp),
                                mode="clip")

    def __call__(self, u) -> np.ndarray:
        """Bin counts of native coordinates u."""
        b = self.table_bins(u)
        counts = np.bincount(b, minlength=self.bins + 1)
        rest = self.arc_counts(self.body.to_arc(u[b == self.bins]))
        return counts[:self.bins] + rest


def tv_hist(h1: Histogram, h2: Histogram) -> float:
    """Half L1 distance between the normalised counts; in [0, 1]."""
    h1._check_shape(h2)
    return float(0.5 * np.abs(h1.probs() - h2.probs()).sum())


def tv_noise(h1: Histogram, h2: Histogram) -> tuple[float, float]:
    """(bias, sd) of the TV estimator under the equal-laws hypothesis.

    Pools the two samples for per-bin variances; bias is the expected value
    of the estimator when the true TV is zero.
    """
    h1._check_shape(h2)
    n1, n2 = max(h1.total, 1), max(h2.total, 1)
    p = (h1.counts + h2.counts) / (n1 + n2)
    var = p * (1.0 - p) * (1.0 / n1 + 1.0 / n2)
    sd_bin = np.sqrt(var)
    bias = 0.5 * float(np.sum(sd_bin)) * _SQRT_2_OVER_PI
    sd = 0.5 * math.sqrt(float(np.sum(var * (1.0 - 2.0 / math.pi))))
    return bias, sd


def tv_to_probs(h: Histogram, probs: np.ndarray) -> float:
    """TV between a histogram and exact bin probabilities."""
    probs = np.asarray(probs, dtype=float)
    if probs.size != h.bin_count:
        raise ShapeMismatch("probability vector does not match the bins")
    return float(0.5 * np.abs(h.probs() - probs).sum())


def two_sample_chi2(h1: Histogram, h2: Histogram) -> tuple[float, float]:
    """Two-sample chi-square statistic and p-value on shared bins.

    Bins empty in both samples are dropped; degrees of freedom shrink
    accordingly.
    """
    h1._check_shape(h2)
    n1, n2 = h1.total, h2.total
    if min(n1, n2) < 1000:
        raise InsufficientSamples("chi-square verdicts need >= 1000 samples")
    k1, k2 = h1.counts.astype(float), h2.counts.astype(float)
    keep = (k1 + k2) > 0
    k1, k2 = k1[keep], k2[keep]
    r1 = math.sqrt(n2 / n1)
    r2 = math.sqrt(n1 / n2)
    stat = float(np.sum((r1 * k1 - r2 * k2) ** 2 / (k1 + k2)))
    dof = int(keep.sum()) - 1
    from scipy.special import chdtrc
    pval = float(chdtrc(dof, stat)) if dof > 0 else math.nan
    return stat, pval


# ---------------------------------------------------------------------------
# two-start TV curves
# ---------------------------------------------------------------------------

@dataclass
class TVCurve:
    """Empirical TV(n) between two chain ensembles, with noise margins."""

    axis: str                      # "step" or "time"
    grid: np.ndarray
    tv: np.ndarray
    bias: np.ndarray
    sd: np.ndarray

    def margin(self) -> np.ndarray:
        return self.bias + SIGMA_MARGIN * self.sd


def empirical_tv_curve(body: ConvexBody, law: ReflectionLaw, s0: float,
                       s0_b: float, n_max: int, replicas: int, bins: int,
                       seed: int, workers: int = 1) -> TVCurve:
    """Two-start TV proxy curve for n = 0..n_max.

    Two independent replica ensembles are simulated, one per start; TV(n)
    compares their position histograms after n bounces.  This proxy is what
    the coupling argument bounds directly; distance to the invariant law is
    within a factor two of it by the triangle inequality.

    Replicas are split into fixed-size chunks with one counter-based
    stream per (start, chunk).  Each worker walks one contiguous group of
    chunks as one ensemble, each chunk drawing its angles from its own
    stream (``run_chain_counts``), so every chain lands as a walk of its
    chunk alone puts it, and results are byte-identical for any worker
    count.  Landings are binned step by step in the body's native
    coordinate (``NativeBins``), with the counts that binning their arc
    lengths gives.
    """
    table = NativeBins(body, bins)
    hists_a = _ensemble_histograms(body, law, s0, n_max, replicas, table,
                                   seed, "tv-curve-a", workers)
    hists_b = _ensemble_histograms(body, law, s0_b, n_max, replicas, table,
                                   seed, "tv-curve-b", workers)
    return curve_from_histograms(hists_a, hists_b)


def _hist_job(args):
    body, law, s0, n_max, table, streams = args
    # step 0: every chain sits at the start's arc
    start = table.arc_counts(body.wrap(np.array([float(s0)])))
    return [sum(n for _, n in streams) * start,
            *run_chain_counts(body, law, s0, streams, n_max, table)]


def _ensemble_histograms(body, law, s0, n_max, replicas, table, seed, kind,
                         workers: int = 1):
    from .parallel import map_jobs
    streams = [(gen, stop - start) for start, stop, gen
               in rngmod.chunk_streams(seed, kind, replicas)]
    # one walk per worker over a contiguous group of chunks
    jobs = [(body, law, s0, n_max, table, [streams[i] for i in group])
            for group in np.array_split(np.arange(len(streams)),
                                        max(workers, 1)) if group.size]
    results = map_jobs(_hist_job, jobs, workers)
    bins = table.bins
    totals = [np.zeros(bins, dtype=np.int64) for _ in range(n_max + 1)]
    for counts in results:
        for n in range(n_max + 1):
            totals[n] += counts[n]
    return [Histogram(0.0, body.perimeter, t, periodic=True) for t in totals]


def curve_from_histograms(hists_a, hists_b) -> TVCurve:
    grid = np.arange(len(hists_a), dtype=float)
    tv = np.empty(grid.size)
    bias = np.empty(grid.size)
    sd = np.empty(grid.size)
    for n, (ha, hb) in enumerate(zip(hists_a, hists_b)):
        tv[n] = tv_hist(ha, hb)
        bias[n], sd[n] = tv_noise(ha, hb)
    return TVCurve(axis="step", grid=grid, tv=tv, bias=bias, sd=sd)


# ---------------------------------------------------------------------------
# density lower-bound checks
# ---------------------------------------------------------------------------

@dataclass
class LbWindowResult:
    window: tuple
    required: float
    observed: float
    z: float
    passed: bool


@dataclass
class LbReport:
    passed: bool
    worst_z: float
    level: float
    n_samples: int
    windows: list[LbWindowResult] = field(default_factory=list)


def lb_check(samples, window, level: float,
             confidence: float = 0.0013498980316300933) -> LbReport:
    """Verify a density (or pair-density) lower bound statistically.

    For every dyadic sub-window W' down to 1/16 of the stated window the
    check requires

        empirical frequency + z_crit * sigma  >=  level * |W'|

    where sigma is the binomial standard deviation at the boundary
    hypothesis and z_crit = Phi^{-1}(1 - confidence).  The default
    confidence is the bits of Phi(-3) (``scipy.special.ndtr(-3.0)``), so
    z_crit is 3 up to rounding.  Samples are a 1-d array for scalar
    windows or an (N, 2) array with a pair of intervals; the sub-windows
    are the boxes of every power-of-two split per axis whose product is at
    most 16.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr, window = arr[:, None], (window,)
    elif not (arr.ndim == 2 and arr.shape[1] == 2):
        raise ValueError("samples must be 1-d or (N, 2)")
    n = arr.shape[0]
    if n < LB_MIN_SAMPLES:
        raise InsufficientSamples(f"need at least {LB_MIN_SAMPLES} samples")
    from scipy.special import ndtri
    z_crit = float(-ndtri(confidence))
    subs = []
    for splits in itertools.product((1, 2, 4, 8, 16), repeat=len(window)):
        if math.prod(splits) > 16:
            continue
        steps = [(lo, (hi - lo) / d, d) for (lo, hi), d in zip(window, splits)]
        subs += itertools.product(*(
            [(lo + k * w, lo + (k + 1) * w) for k in range(d)]
            for lo, w, d in steps))

    results = []
    worst = -math.inf
    for sub in subs:
        required = level * math.prod(hi - lo for lo, hi in sub)
        inside = np.ones(n, dtype=bool)
        for col, (lo, hi) in zip(arr.T, sub):
            inside &= (col >= lo) & (col < hi)
        observed = int(np.count_nonzero(inside)) / n
        # variance at the boundary hypothesis, floored so degenerate cases
        # (claimed mass at or beyond one) still produce finite verdicts
        var = max(required * max(1.0 - required, 0.0), 1e-9)
        z = (required - observed) / math.sqrt(var / n)
        passed = z <= z_crit
        worst = max(worst, z)
        results.append(LbWindowResult(sub, required, observed, z, passed))
    return LbReport(passed=all(r.passed for r in results), worst_z=worst,
                    level=level, n_samples=n, windows=results)


# ---------------------------------------------------------------------------
# dominance reports
# ---------------------------------------------------------------------------

@dataclass
class DominancePoint:
    x: float
    empirical: float
    margin: float
    bound: float
    passed: bool


@dataclass
class DominanceReport:
    passed: bool
    axis: str
    points: list[DominancePoint]

    def rows(self):
        return [(p.x, p.empirical, p.margin, p.bound, p.passed)
                for p in self.points]


def dominance_report(curve: TVCurve, certificate) -> DominanceReport:
    """Pointwise comparison of an empirical curve against a certificate bound.

    Passes where empirical <= bound + bias + SIGMA_MARGIN * sd.  The n = 0
    point is skipped (the bound is vacuous there for distinct starts).
    """
    if curve.axis != certificate.axis:
        raise AxisMismatch(
            f"curve axis {curve.axis!r} vs certificate axis {certificate.axis!r}")
    points = []
    for x, emp, margin in zip(curve.grid.tolist(), curve.tv.tolist(),
                              curve.margin().tolist()):
        if x == 0.0:
            continue
        bound = float(certificate.bound(x))
        points.append(DominancePoint(x, emp, margin, bound,
                                     emp <= bound + margin))
    return DominanceReport(passed=all(p.passed for p in points),
                           axis=curve.axis, points=points)


def survival_report(times, certificate, grid) -> DominanceReport:
    """Compare an empirical survival tail P(T > t) against a bound curve.

    ``times`` may contain NaN for replicas that never coupled; they count as
    survivors at every grid point.
    """
    t = np.asarray(times, dtype=float)
    n = t.size
    points = []
    for x in np.asarray(grid, dtype=float):
        surv = float(np.mean(~(t <= x)))  # NaN-safe: NaN survives
        margin = SIGMA_MARGIN * math.sqrt(max(surv * (1.0 - surv), 1.0 / n) / n)
        bound = float(certificate.bound(x))
        points.append(DominancePoint(float(x), surv, margin, bound,
                                     surv <= bound + margin))
    return DominanceReport(passed=all(p.passed for p in points),
                           axis=certificate.axis, points=points)
