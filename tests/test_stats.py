import math

import numpy as np
import pytest

from convexbilliards import CurvatureTable, Disc, Ellipse, ReflectionLaw
from convexbilliards.dynamics import run_chain_counts, run_chain_ensemble
from convexbilliards.errors import (
    AxisMismatch,
    InsufficientSamples,
    ShapeMismatch,
)
from convexbilliards.rng import CHUNK, chunk_streams, stream, substream
from convexbilliards.stats import (
    BIN_CELLS,
    DominanceReport,
    Histogram,
    NativeBins,
    TVCurve,
    _ensemble_histograms,
    dominance_report,
    empirical_tv_curve,
    lb_check,
    survival_report,
    tv_hist,
    tv_noise,
    two_sample_chi2,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# histograms and TV
# ---------------------------------------------------------------------------

def _hist(counts):
    return Histogram(0.0, 1.0, np.asarray(counts, dtype=np.int64))


def test_tv_identical_and_disjoint():
    assert tv_hist(_hist([5, 5, 0]), _hist([5, 5, 0])) == 0.0
    assert tv_hist(_hist([10, 0, 0]), _hist([0, 0, 10])) == 1.0


def test_tv_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        tv_hist(_hist([1, 2]), _hist([1, 2, 3]))


def test_tv_metric_properties(rng):
    hs = [_hist(rng.integers(0, 50, size=8)) for _ in range(12)]
    for h1 in hs:
        for h2 in hs:
            d12 = tv_hist(h1, h2)
            assert abs(d12 - tv_hist(h2, h1)) < 1e-15
            assert 0.0 <= d12 <= 1.0
            for h3 in hs:
                assert d12 <= tv_hist(h1, h3) + tv_hist(h3, h2) + 1e-12


def test_tv_long_run_mixing(tu34_law):
    # after 50 bounces from antipodal starts the empirical TV sits at the
    # Monte-Carlo noise floor, below 0.02 for 1e5 replicas and 100 bins
    from convexbilliards.dynamics import run_chain_ensemble
    body = Disc(1.0)
    law = ReflectionLaw.cosine()
    a = run_chain_ensemble(body, law, np.zeros(100_000), 50, stream(31, 0))
    b = run_chain_ensemble(body, law, np.full(100_000, math.pi), 50,
                           stream(31, 1))
    h1 = Histogram.from_samples(a[50], 100, 0.0, TWO_PI, periodic=True)
    h2 = Histogram.from_samples(b[50], 100, 0.0, TWO_PI, periodic=True)
    assert tv_hist(h1, h2) < 0.02


def test_tv_noise_magnitude(rng):
    # two equal uniform laws: the estimator concentrates around the
    # predicted bias with the predicted spread
    vals = []
    bias = sd = None
    for k in range(40):
        g = substream(77, "tvnoise", k)
        h1 = Histogram.from_samples(g.random(20_000), 50, 0.0, 1.0)
        h2 = Histogram.from_samples(g.random(20_000), 50, 0.0, 1.0)
        vals.append(tv_hist(h1, h2))
        bias, sd = tv_noise(h1, h2)
    vals = np.array(vals)
    assert abs(float(np.mean(vals)) - bias) < 4.0 * sd / math.sqrt(len(vals)) + 0.1 * bias
    assert float(np.std(vals)) < 3.0 * sd


def test_merge_and_probs():
    h = _hist([1, 3]).merge(_hist([2, 4]))
    assert h.total == 10
    assert np.allclose(h.probs(), [0.3, 0.7])


def test_two_sample_chi2_same_and_different(rng):
    a = rng.normal(size=20_000)
    b = rng.normal(size=20_000)
    c = rng.normal(loc=0.2, size=20_000)
    h = lambda v: Histogram.from_samples(np.clip(v, -4, 4), 40, -4.0, 4.0)
    _, p_same = two_sample_chi2(h(a), h(b))
    _, p_diff = two_sample_chi2(h(a), h(c))
    assert p_same > 1e-3
    assert p_diff < 1e-6
    with pytest.raises(InsufficientSamples):
        two_sample_chi2(h(a[:500]), h(b[:500]))


def test_two_sample_chi2_p_value_is_scipy_stats(rng):
    # the p-value comes from scipy.special; it must be chi2.sf's bits
    from scipy.stats import chi2
    h = lambda v: Histogram.from_samples(np.clip(v, -4, 4), 40, -4.0, 4.0)
    for loc in (0.0, 0.02, 0.05, 0.2):
        h1, h2 = h(rng.normal(size=5_000)), h(rng.normal(loc, size=7_000))
        stat, pval = two_sample_chi2(h1, h2)
        dof = int(np.count_nonzero(h1.counts + h2.counts)) - 1
        assert pval == float(chi2.sf(stat, dof))
    # all samples in one bin: no degree of freedom and, at these sizes, a
    # statistic of one rounding error above 0; scipy.stats says nan
    one = Histogram.from_samples(np.full(1_500, 0.5), 4, 0.0, 1.0)
    other = Histogram.from_samples(np.full(7_000, 0.5), 4, 0.0, 1.0)
    stat, pval = two_sample_chi2(one, other)
    assert stat > 0.0 and math.isnan(pval) and math.isnan(chi2.sf(stat, 0))


def test_lb_check_confidence_and_z_crit_are_scipy_stats(monkeypatch):
    # the default confidence is a literal of ndtr(-3.0)'s bits and the
    # critical z comes from scipy.special.ndtri; both must be
    # scipy.stats.norm's bits
    import inspect
    import scipy.special
    from scipy.stats import norm
    default = inspect.signature(lb_check).parameters["confidence"].default
    assert default == norm.sf(3.0)
    seen, real = [], scipy.special.ndtri

    def spy(q):
        seen.append(-real(q))
        return real(q)

    monkeypatch.setattr(scipy.special, "ndtri", spy)
    samples = substream(93, "lbz").random(20_000)
    for confidence in (default, 0.05, 1e-6):
        rep = lb_check(samples, (0.0, 1.0), 0.99, confidence=confidence)
        z_crit = norm.isf(confidence)
        assert seen.pop() == z_crit
        assert [w.passed for w in rep.windows] \
            == [w.z <= z_crit for w in rep.windows]


# ---------------------------------------------------------------------------
# two-start curves
# ---------------------------------------------------------------------------

def test_tv_curve_equal_starts_vanishes(disc, cosine_law):
    curve = empirical_tv_curve(disc, cosine_law, 1.0, 1.0, 6, 20_000, 100,
                               seed=5)
    assert np.all(curve.tv <= curve.margin())
    assert curve.tv[0] == 0.0


def test_tv_curve_distinct_starts_start_at_one(disc, cosine_law):
    curve = empirical_tv_curve(disc, cosine_law, 0.0, math.pi, 4, 20_000,
                               100, seed=6)
    assert curve.tv[0] == 1.0


def test_tv_curve_nonincreasing_within_noise(disc, uniform_half_law):
    curve = empirical_tv_curve(disc, uniform_half_law, 0.0, math.pi, 8,
                               50_000, 100, seed=7)
    for i in range(1, len(curve.grid) - 1):
        assert curve.tv[i + 1] <= curve.tv[i] + curve.margin()[i + 1]


def test_tv_curve_deterministic(disc, cosine_law):
    c1 = empirical_tv_curve(disc, cosine_law, 0.0, 2.0, 5, 12_000, 64, seed=8)
    c2 = empirical_tv_curve(disc, cosine_law, 0.0, 2.0, 5, 12_000, 64, seed=8)
    assert np.array_equal(c1.tv, c2.tv)
    c3 = empirical_tv_curve(disc, cosine_law, 0.0, 2.0, 5, 12_000, 64, seed=8,
                            workers=2)
    assert np.array_equal(c1.tv, c3.tv)


# ---------------------------------------------------------------------------
# binning in the native coordinate
# ---------------------------------------------------------------------------

def _table_from_ellipse(n=256):
    e = Ellipse(2.0, 1.0)
    s = np.arange(n) * (e.perimeter / n)
    return CurvatureTable(s, e.curvature_at(s))


NATIVE_BODIES = {
    "disc": lambda: Disc(1.0),
    "ellipse-2-1": lambda: Ellipse(2.0, 1.0),
    "ellipse-1-1": lambda: Ellipse(1.0, 1.0),
    "ellipse-3-0.5": lambda: Ellipse(3.0, 0.5),
    "table-256": _table_from_ellipse,
}


def _around(x, ulps=8):
    """x and its neighbours up to ``ulps`` floats away on each side."""
    x = np.asarray(x, dtype=float)
    out = [x]
    lo = hi = x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


@pytest.mark.parametrize("name", NATIVE_BODIES)
@pytest.mark.parametrize("bins", [24, 100, 257])
def test_native_bins_equal_arc_histogram_sample_by_sample(name, bins):
    # the table's bin of every coordinate it answers for is the bin that
    # np.histogram gives np.mod(to_arc(u), P), at the coordinates where
    # rounding decides: preimages of bin edges and ends of table cells,
    # 8 ulps either side, and 0, the period and beyond it
    body = NATIVE_BODIES[name]()
    P, period = body.perimeter, body.native_period
    table = NativeBins(body, bins)
    edges = np.linspace(0.0, P, bins + 1)
    u = np.concatenate([
        _around(body.to_native(edges[1:-1])),
        _around(np.arange(BIN_CELLS + 1) * (period / BIN_CELLS)),
        _around([0.0, period]), [-0.0, -1e-300, -1e-9, period + 1e-9],
        np.linspace(-0.01 * period, 1.01 * period, 20_001)])

    def reference(v):
        return np.histogram(np.mod(body.to_arc(v), P), bins,
                            range=(0.0, P))[0]

    b = table.table_bins(u)
    for k in np.unique(b[b < bins]):
        # every coordinate the table puts in bin k lands there
        counts = reference(u[b == k])
        assert counts[k] == counts.sum() == np.count_nonzero(b == k), k
    # the table answers for most coordinates, and the counts are exact
    assert np.count_nonzero(b == bins) < 0.5 * u.size
    assert np.array_equal(table(u), reference(u))
    assert table(u).dtype == np.int64


@pytest.mark.parametrize("bins", [24, 100, 257])
def test_native_bins_arc_rule_is_from_samples(bins):
    # the arc-length rule of the cells without a bin, sample by sample at
    # the bin edges, 8 ulps either side, and beyond both ends, then in bulk
    body = Ellipse(2.0, 1.0)
    P = body.perimeter
    table = NativeBins(body, bins)
    s = np.concatenate([_around(np.linspace(0.0, P, bins + 1)),
                        [-1e-300, -5e-324, -P, 2.0 * P + 1e-9, np.nan]])
    for x in s:
        assert np.array_equal(table.arc_counts([x]), Histogram.from_samples(
            [x], bins, 0.0, P, periodic=True).counts), x
    # and in bulk: those values with 1e6 uniform arcs over [-P, 2P]
    s = np.concatenate([s, [-0.0], np.random.default_rng(bins).uniform(
        -P, 2.0 * P, 1_000_000)])
    counts = table.arc_counts(s)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, Histogram.from_samples(
        s, bins, 0.0, P, periodic=True).counts)


@pytest.mark.parametrize("name", ["disc", "ellipse-2-1", "table-256"])
def test_run_chain_counts_walks_the_ensemble(name, uniform_half_law):
    # same angles, same landings as run_chain_ensemble from np.full(n, s0)
    # on each stream, bit for bit, although the streams are walked as one
    # ensemble and the start is converted once and broadcast
    body = NATIVE_BODIES[name]()
    s0, sizes, steps = 0.3 * body.perimeter, (3000, 1, 424), 6
    arcs = np.concatenate([
        run_chain_ensemble(body, uniform_half_law, np.full(n, s0), steps,
                           stream(41, i)) for i, n in enumerate(sizes)],
        axis=1)

    def streams():
        return [(stream(41, i), n) for i, n in enumerate(sizes)]

    landings = run_chain_counts(body, uniform_half_law, s0, streams(), steps,
                                body.to_arc)
    assert len(landings) == steps
    for k, s in enumerate(landings, start=1):
        assert np.array_equal(s, arcs[k])
    table = NativeBins(body, 100)
    counts = run_chain_counts(body, uniform_half_law, s0, streams(), steps,
                              table)
    for k, c in enumerate(counts, start=1):
        assert np.array_equal(c, Histogram.from_samples(
            arcs[k], 100, 0.0, body.perimeter, periodic=True).counts)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("law", [
    ReflectionLaw.uniform_half(), ReflectionLaw.cosine(),
    ReflectionLaw.from_table(np.linspace(-0.5 * math.pi, 0.5 * math.pi, 33),
                             1.0 + 0.3 * np.cos(2.0 * np.linspace(
                                 -0.5 * math.pi, 0.5 * math.pi, 33)))],
    ids=["uniform_half", "cosine", "table"])
def test_ensemble_histograms_keep_the_chunk_streams(law, workers):
    # each worker walks its chunks as one ensemble, one stream per chunk;
    # the counts are the sum of per-chunk run_chain_ensemble histograms,
    # with a short last chunk
    body = Ellipse(2.0, 1.0)
    P, s0, n_max, bins, seed = body.perimeter, 1.3, 4, 64, 29
    replicas = 2 * CHUNK + 424
    hists = _ensemble_histograms(body, law, s0, n_max, replicas,
                                 NativeBins(body, bins), seed, "tv-curve-a",
                                 workers)
    ref = np.zeros((n_max + 1, bins), dtype=np.int64)
    for start, stop, gen in chunk_streams(seed, "tv-curve-a", replicas):
        arcs = run_chain_ensemble(body, law, np.full(stop - start, s0),
                                  n_max, gen)
        for n in range(n_max + 1):
            ref[n] += Histogram.from_samples(arcs[n], bins, 0.0, P,
                                             periodic=True).counts
    assert [h.total for h in hists] == [replicas] * (n_max + 1)
    for n, h in enumerate(hists):
        assert np.array_equal(h.counts, ref[n]), n


# ---------------------------------------------------------------------------
# lower-bound checks
# ---------------------------------------------------------------------------

def test_lb_check_level_zero_passes(rng):
    samples = rng.random(20_000)
    rep = lb_check(samples, (0.0, 1.0), level=1e-12)
    assert rep.passed


def test_lb_check_exact_level_and_negative_control():
    g = substream(91, "lbnull")
    samples = g.random(100_000)  # uniform: density exactly 1 on [0, 1]
    assert lb_check(samples, (0.0, 1.0), level=1.0).passed
    inflated = lb_check(samples, (0.0, 1.0), level=10.0)
    assert not inflated.passed


def test_lb_check_pair_windows():
    g = substream(92, "lbpair")
    samples = np.stack([g.random(50_000), g.random(50_000)], axis=1)
    assert lb_check(samples, ((0.0, 1.0), (0.0, 1.0)), level=1.0).passed
    assert not lb_check(samples, ((0.0, 1.0), (0.0, 1.0)), level=5.0).passed


def test_lb_check_insufficient_samples(rng):
    with pytest.raises(InsufficientSamples):
        lb_check(rng.random(100), (0.0, 1.0), level=0.5)


def test_lb_check_false_positive_rate():
    # under the exact-level null each sub-window fails with probability at
    # most the configured confidence (up to binomial noise of the trial)
    confidence = 0.00135
    fails = 0
    windows = 0
    for k in range(60):
        g = substream(93, "lbfp", k)
        rep = lb_check(g.random(20_000), (0.0, 1.0), level=1.0,
                       confidence=confidence)
        fails += sum(not w.passed for w in rep.windows)
        windows += len(rep.windows)
    rate = fails / windows
    assert rate <= confidence + 3.0 * math.sqrt(confidence / windows)


# ---------------------------------------------------------------------------
# dominance reports
# ---------------------------------------------------------------------------

class _VacuousCert:
    axis = "step"

    def bound(self, x):
        return 1.0


def test_dominance_vacuous_bound(disc, cosine_law):
    curve = empirical_tv_curve(disc, cosine_law, 0.0, math.pi, 5, 12_000, 64,
                               seed=9)
    rep = dominance_report(curve, _VacuousCert())
    assert rep.passed


def test_dominance_axis_mismatch(disc, cosine_law):
    curve = empirical_tv_curve(disc, cosine_law, 0.0, math.pi, 3, 12_000, 64,
                               seed=10)

    class TimeCert:
        axis = "time"

        def bound(self, x):
            return 1.0

    with pytest.raises(AxisMismatch):
        dominance_report(curve, TimeCert())


def test_dominance_cross_pairing_control(disc):
    # a fast-mixing law beats a slow law's certificate; swapping the roles
    # makes the comparison fail at small n
    from convexbilliards.rates import disc_chain_rate
    fast = ReflectionLaw.truncated_uniform(3.0 * math.pi / 4.0)
    slow_width = 0.55 * math.pi
    slow = ReflectionLaw.truncated_uniform(slow_width)
    cert_slow = disc_chain_rate(slow_width, 1.0 / slow_width)
    curve_fast = empirical_tv_curve(disc, fast, 0.0, math.pi, 8, 30_000, 100,
                                    seed=11)
    assert dominance_report(curve_fast, cert_slow).passed
    cert_fast = disc_chain_rate(3.0 * math.pi / 4.0, 4.0 / (3.0 * math.pi))
    curve_slow = empirical_tv_curve(disc, slow, 0.0, math.pi, 8, 30_000, 100,
                                    seed=12)
    assert not dominance_report(curve_slow, cert_fast).passed


def test_survival_report_nan_counts_as_survivor():
    class Cert:
        axis = "time"

        def bound(self, x):
            return 1.0

    times = np.array([1.0, 2.0, np.nan, np.nan])
    rep = survival_report(times, Cert(), grid=[0.5, 1.5, 3.0])
    assert rep.passed
    assert rep.points[2].empirical == 0.5
