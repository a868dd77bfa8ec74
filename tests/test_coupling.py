import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexbilliards import (CurvatureTable, Disc, Ellipse, ReflectionLaw,
                             point_at, summarize)
from convexbilliards.coupling import (
    base,
    chains,
    process_disc,
    couple_chains,
    couple_chains_batch,
    couple_process_convex,
    couple_process_convex_batch,
    couple_process_disc,
    couple_process_disc_batch,
)
from convexbilliards.coupling.base import (
    arc_overlap,
    draw_arcs,
    in_arcs,
    thin_residual,
)
from convexbilliards.coupling.process_convex import (
    _bridge_roots,
    _chord_branches,
    _ConvexProcesses,
    _realise_block_times,
    _slice_times,
    box_slice_volume,
)
from convexbilliards.dynamics import (chord_times, landing_density,
                                     run_chain_ensemble)
from convexbilliards.rates import (
    RateParams,
    bisector_window_geometry,
    convex_chain_rate,
    convex_process_rate,
    disc_chain_rate,
    disc_pair_profile,
    disc_process_rate,
    optimize_free_params,
)
from convexbilliards.rates import _path_time
from convexbilliards.rng import stream
from convexbilliards.stats import Histogram, two_sample_chi2
from convexbilliards.errors import HypothesisViolated, ResidualSamplingError

PI = math.pi
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# plateau primitives: arc windows and residual thinning
# ---------------------------------------------------------------------------

def test_thinning_residual_marginal(rng):
    # uniform law on a circle of period 2 (density 0.5) with a plateau of
    # level 0.4 on the two-piece overlap of arcs that wrap: the mixture of
    # common and thinned residual draws must reproduce the uniform marginal
    P, level, dens, n = 2.0, 0.4, 0.5, 40_000
    arc_lo, arc_len = arc_overlap(1.5, 1.0, 1.8, 1.2, P)
    mass = level * float(arc_len.sum())
    hit = rng.random(n) < mass
    vals = np.empty(n)
    vals[hit] = draw_arcs(arc_lo[:, None], arc_len[:, None],
                          rng.random(int(hit.sum())), P)

    def propose(rows):
        x = P * rng.random(rows.size)
        member = in_arcs(x, arc_lo, arc_len, P)
        return (x,), np.where(member, min(level / dens, 1.0), 0.0)

    (vals[~hit],) = thin_residual(int((~hit).sum()), propose, rng)
    h = Histogram.from_samples(vals, 20, 0.0, P)
    expected = np.full(20, n / 20.0)
    stat = float(np.sum((h.counts - expected) ** 2 / expected))
    from scipy.stats import chi2 as chi2_dist
    assert chi2_dist.sf(stat, 19) > 1e-3


def test_thinning_cap_raises(rng, monkeypatch):
    # a full cap of always-rejected rounds takes minutes; a short cap
    # exercises the same exit
    monkeypatch.setattr(base, "MAX_REJECTS", 200)

    def always_reject(rows):
        return (rng.random(rows.size),), np.ones(rows.size)

    with pytest.raises(ResidualSamplingError, match="rejection cap"):
        thin_residual(5, always_reject, rng)


# (lo_a, len_a, lo_b, len_b, overlap length, a point inside, one outside)
_AW, _D = 2.0, 2.8   # process_disc's stage-2 half-width and offset
ARC_CASES = {
    "wrap": (5.0, 2.0, 0.0, 1.5, 7.0 - TWO_PI, 0.3, 2.0),
    "disjoint": (0.0, 1.0, 2.0, 1.0, 0.0, None, 0.5),
    "full-circle": (0.3, TWO_PI, 1.0, 0.5, 0.5, 1.2, 0.9),
    "offset-positive": (-_AW, 2 * _AW, _D - _AW, 2 * _AW,
                        2 * _AW - _D + (2 * _AW - TWO_PI + _D), 1.0, -0.5),
    "offset-negative": (-_AW, 2 * _AW, -_D - _AW, 2 * _AW,
                        2 * _AW - _D + (2 * _AW - TWO_PI + _D), -1.0, 0.5),
}


@pytest.mark.parametrize("case", ARC_CASES.values(), ids=ARC_CASES.keys())
def test_arc_overlap(case):
    lo_a, len_a, lo_b, len_b, length, inside, outside = case
    arc_lo, arc_len = arc_overlap(lo_a, len_a, lo_b, len_b, TWO_PI)
    assert abs(float(arc_len.sum()) - length) < 1e-12
    if inside is not None:
        assert in_arcs(inside, arc_lo, arc_len, TWO_PI)
    assert not in_arcs(outside, arc_lo, arc_len, TWO_PI)
    if length > 0.0:
        pts = draw_arcs(arc_lo[:, None], arc_len[:, None],
                        np.linspace(0.01, 0.99, 7), TWO_PI)
        assert np.all(in_arcs(pts, [lo_a], [len_a], TWO_PI))
        assert np.all(in_arcs(pts, [lo_b], [len_b], TWO_PI))


_ARC = st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 7.0))


@settings(max_examples=200, deadline=None)
@given(_ARC, _ARC)
def test_arc_overlap_properties(a, b):
    # every overlap piece lies in both arcs; the overlap length is symmetric
    arc_lo, arc_len = arc_overlap(*a, *b, TWO_PI)
    for lo, n in zip(arc_lo, arc_len):
        if n > 1e-6:
            pts = lo + n * np.array([0.25, 0.5, 0.75])
            assert np.all(in_arcs(pts, [a[0]], [a[1]], TWO_PI))
            assert np.all(in_arcs(pts, [b[0]], [b[1]], TWO_PI))
    back = arc_overlap(*b, *a, TWO_PI)[1]
    assert abs(float(arc_len.sum()) - float(back.sum())) < 1e-9
    assert float(arc_len.sum()) <= min(a[1], b[1], TWO_PI) + 1e-9


# ---------------------------------------------------------------------------
# chain couplings (one replica)
# ---------------------------------------------------------------------------

def test_couple_chains_identical_starts(disc, tu34_law, rng):
    cert = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI))
    out = couple_chains(disc, tu34_law, 1.0, 1.0, cert, 10, rng)
    assert out.coupled and out.coupling_index == 0
    assert np.array_equal(out.traj_a, out.traj_b)


def test_couple_chains_disc_case1_survival(disc, tu34_law):
    cert = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI))
    gen = stream(101, 3)
    n = 4000
    idx = []
    for _ in range(n):
        out = couple_chains(disc, tu34_law, 0.0, PI, cert, 24, gen)
        idx.append(out.coupling_index if out.coupled else 10 ** 9)
    idx = np.array(idx)
    alpha = cert.constants["alpha"]
    for k in range(1, 8):
        bound = (1.0 - alpha) ** k
        sigma = math.sqrt(max(bound * (1.0 - bound), 1.0 / n) / n)
        assert (idx > k).mean() <= bound + 3.0 * sigma


def test_couple_chains_disc_case2_blocks(disc):
    law = ReflectionLaw.truncated_uniform(0.5 * PI)
    cert = disc_chain_rate(0.5 * PI, 2.0 / PI, eps=PI / 8.0)
    assert cert.constants["n0"] == 2
    gen = stream(102, 0)
    n = 1500
    idx = []
    for _ in range(n):
        out = couple_chains(disc, law, 0.0, PI, cert, 40, gen)
        if out.coupled:
            assert out.coupling_index % 2 == 0
            idx.append(out.coupling_index)
        else:
            idx.append(10 ** 9)
    idx = np.array(idx)
    alpha = cert.constants["alpha"]
    for k in range(1, 6):
        bound = (1.0 - alpha) ** k
        sigma = math.sqrt(bound * (1.0 - bound) / n)
        assert (idx > 2 * k).mean() <= bound + 3.0 * sigma


def test_couple_chains_case2_bridge_marginal(disc):
    # two-bounce blocks exercise the bridge sampler for the inner bounce;
    # both the inner (odd step) and the block-end (even step) marginals
    # must match a plain chain
    law = ReflectionLaw.truncated_uniform(0.5 * PI)
    cert = disc_chain_rate(0.5 * PI, 2.0 / PI, eps=PI / 8.0)
    gen = stream(106, 0)
    inner, final = [], []
    n = 4000
    for _ in range(n):
        out = couple_chains(disc, law, 0.0, PI, cert, 12, gen)
        inner.append(out.traj_a[11])
        final.append(out.traj_a[12])
    plain = run_chain_ensemble(disc, law, np.zeros(n), 12, stream(106, 1))
    for coupled_vals, step in ((inner, 11), (final, 12)):
        h1 = Histogram.from_samples(np.array(coupled_vals), 40, 0.0, TWO_PI,
                                    periodic=True)
        h2 = Histogram.from_samples(plain[step], 40, 0.0, TWO_PI,
                                    periodic=True)
        assert two_sample_chi2(h1, h2)[1] > 1e-3


def test_couple_chains_absorption_and_marginal(disc, tu34_law):
    cert = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI))
    gen = stream(103, 0)
    finals = []
    for _ in range(3000):
        out = couple_chains(disc, tu34_law, 0.0, PI, cert, 12, gen)
        if out.coupled:
            k = out.coupling_index
            assert np.array_equal(out.traj_a[k:], out.traj_b[k:])
        finals.append(out.traj_a[12])
    plain = run_chain_ensemble(disc, tu34_law, np.zeros(3000), 12,
                               stream(103, 1))[12]
    h1 = Histogram.from_samples(np.array(finals), 40, 0.0, TWO_PI,
                                periodic=True)
    h2 = Histogram.from_samples(plain, 40, 0.0, TWO_PI, periodic=True)
    assert two_sample_chi2(h1, h2)[1] > 1e-3


def test_couple_chains_convex_without_certificate(ellipse, uniform_half_law):
    gen = stream(104, 0)
    out = couple_chains(ellipse, uniform_half_law, 0.0,
                        0.5 * ellipse.perimeter, None, 20, gen)
    assert out.coupled
    k = out.coupling_index
    assert np.array_equal(out.traj_a[k:], out.traj_b[k:])
    assert len(out.traj_a) == 21


def test_couple_chains_convex_with_certificate(ellipse, uniform_half_law):
    cert = convex_chain_rate(summarize(ellipse), 2.8, 1.0 / PI)
    n = 400
    res = couple_chains_batch(ellipse, uniform_half_law, 0.0,
                              0.5 * ellipse.perimeter, cert, 60, n, seed=105)
    count_idx = np.where(res.coupled, res.coupling_index, 10 ** 9)
    alpha = cert.constants["alpha"]
    for k in (5, 10, 20):
        bound = (1.0 - alpha) ** k
        sigma = math.sqrt(bound * (1.0 - bound) / n)
        assert (count_idx > k).mean() <= bound + 3.0 * sigma


# ---------------------------------------------------------------------------
# chain couplings (batch engine)
# ---------------------------------------------------------------------------

def test_batch_engine_matches_scalar_survival(disc, tu34_law):
    cert = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI))
    res = couple_chains_batch(disc, tu34_law, 0.0, PI, cert, 30, 30_000,
                              seed=44)
    alpha = cert.constants["alpha"]
    assert res.coupled.mean() > 0.999
    rate = res.successes / res.attempts
    sigma = math.sqrt(alpha * (1 - alpha) / res.attempts)
    assert rate >= alpha - 3.0 * sigma
    for k in range(1, 10):
        bound = (1.0 - alpha) ** k
        surv = ((res.coupling_index > k) | (~res.coupled)).mean()
        sigma = math.sqrt(max(bound * (1.0 - bound), 1e-5) / 30_000)
        assert surv <= bound + 3.0 * sigma


def test_batch_engine_close_starts(disc, tu34_law):
    # an overlap mass near one leaves the residual a thin sliver: the
    # thinning needs far more rounds than a 1e4 cap allowed
    cert = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI))
    n = 20_000
    res = couple_chains_batch(disc, tu34_law, 0.0, 1e-3, cert, 2, n, seed=0)
    alpha = cert.constants["alpha"]
    surv = ((res.coupling_index > 1) | (~res.coupled)).mean()
    sigma = math.sqrt(alpha * (1.0 - alpha) / n)
    assert surv <= (1.0 - alpha) + 3.0 * sigma


def test_batch_engine_rejects_certificates_it_cannot_run(disc, ellipse,
                                                         tu34_law):
    # a process certificate, and a disc certificate on another body
    for body, cert in ((disc, _ac6_cert()),
                       (ellipse, disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI)))):
        with pytest.raises(HypothesisViolated):
            couple_chains_batch(body, tu34_law, 0.0, 1.0, cert, 2, 4, seed=0)


def test_batch_engine_marginal_ellipse(ellipse, uniform_half_law):
    cert = convex_chain_rate(summarize(ellipse), 2.8, 1.0 / PI)
    res = couple_chains_batch(ellipse, uniform_half_law, 0.0,
                              0.5 * ellipse.perimeter, cert, 12, 20_000,
                              seed=45)
    plain = run_chain_ensemble(ellipse, uniform_half_law,
                               np.zeros(20_000), 12, stream(46, 0))[12]
    h1 = Histogram.from_samples(res.final_a, 60, 0.0, ellipse.perimeter,
                                periodic=True)
    h2 = Histogram.from_samples(plain, 60, 0.0, ellipse.perimeter,
                                periodic=True)
    assert two_sample_chi2(h1, h2)[1] > 1e-3
    # the second marginal is also a plain chain
    plain_b = run_chain_ensemble(ellipse, uniform_half_law,
                                 np.full(20_000, 0.5 * ellipse.perimeter),
                                 12, stream(47, 0))[12]
    h3 = Histogram.from_samples(res.final_b, 60, 0.0, ellipse.perimeter,
                                periodic=True)
    h4 = Histogram.from_samples(plain_b, 60, 0.0, ellipse.perimeter,
                                periodic=True)
    assert two_sample_chi2(h3, h4)[1] > 1e-3


@pytest.mark.parametrize("steps", [3, 12])
def test_batch_engine_marginal_ellipse_blocks(ellipse, uniform_half_law,
                                              steps):
    # two-bounce blocks on a general body: the residual thins on block rows
    # of the discretised kernel and successes bridge their inner bounce; 3
    # steps end on a plain bounce, before the chain has forgotten its start
    cert = convex_chain_rate(summarize(ellipse), 2.0, 1.0 / PI, eps=0.1)
    assert cert.constants["n0"] == 2
    n = 20_000
    res = couple_chains_batch(ellipse, uniform_half_law, 0.0,
                              0.5 * ellipse.perimeter, cert, steps, n,
                              seed=48)
    assert res.attempts > 0
    for final, s0, seed in ((res.final_a, 0.0, 49),
                            (res.final_b, 0.5 * ellipse.perimeter, 50)):
        plain = run_chain_ensemble(ellipse, uniform_half_law, np.full(n, s0),
                                   steps, stream(seed, 0))[steps]
        h1 = Histogram.from_samples(final, 60, 0.0, ellipse.perimeter,
                                    periodic=True)
        h2 = Histogram.from_samples(plain, 60, 0.0, ellipse.perimeter,
                                    periodic=True)
        assert two_sample_chi2(h1, h2)[1] > 1e-3


def test_block_table_disc_triangle():
    # two bounces of truncated_uniform(pi/2) on the unit disc land
    # 2 pi + x ccw of the start, x the sum of two uniforms on
    # [-pi/2, pi/2]: density (pi - |x|) / pi^2.  Bilinear reads of the cell
    # kernel's square are exact where the triangle is linear over the
    # cells they touch (measured: 1.6e-14; 9e-4 within two cells of a kink)
    disc = Disc(1.0)
    table = chains._cached_tables(
        disc, ReflectionLaw.truncated_uniform(0.5 * PI), 2)
    gen = stream(107, 0)
    s0, s = gen.random((2, 100_000)) * TWO_PI
    x = np.mod(s - s0 - TWO_PI + PI, TWO_PI) - PI
    far = np.abs(np.abs(x) - 0.5 * PI) < 0.5 * PI - 2.0 * table.ds
    np.testing.assert_allclose(table.density(s0[far], s[far]),
                               (PI - np.abs(x[far])) / PI ** 2, rtol=0.0,
                               atol=1e-12)


@pytest.mark.parametrize("n0", [2, 3])
def test_block_table_converged(ellipse, uniform_half_law, n0):
    # the 512-cell block density against a 2048-cell table (measured worst
    # relative gap: 2.0e-4 at n0 = 2, 1.8e-4 at n0 = 3)
    coarse = chains._cached_tables(ellipse, uniform_half_law, n0)
    fine = chains._BlockKernel(ellipse, uniform_half_law, n0, 2048)
    s0, s = stream(108, n0).random((2, 10_000)) * ellipse.perimeter
    np.testing.assert_allclose(coarse.density(s0, s), fine.density(s0, s),
                               rtol=1e-3)


@functools.lru_cache(maxsize=None)
def _one_bounce_case(name):
    """(body, law, one-bounce certificate) of a level-below-density check."""
    if name == "disc":
        return (Disc(1.0), ReflectionLaw.truncated_uniform(0.75 * PI),
                disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI)))
    body = Ellipse(2.0, 1.0)
    if name == "table":
        s = np.arange(256) * (body.perimeter / 256)
        body = CurvatureTable(s, body.curvature_at(s))
    return (body, ReflectionLaw.uniform_half(),
            convex_chain_rate(summarize(body), 2.8, 1.0 / PI))


@pytest.mark.parametrize("name", ["disc", "ellipse", "table"])
@settings(max_examples=25, deadline=None)
@given(fa=st.floats(0.0, 1.0, exclude_max=True),
       fb=st.floats(0.0, 1.0, exclude_max=True))
def test_one_bounce_level_below_landing_density(name, fa, fb):
    # with one-bounce blocks the residual thins on the exact landing
    # density, which must dominate the certified level on the overlap of
    # the two reach windows
    body, law, cert = _one_bounce_case(name)
    blocks = chains._blocks(body, law, cert)
    assert blocks.n0 == 1 and blocks.kernel is None
    s = body.wrap(np.array([fa, fb]) * body.perimeter)
    u = body.to_native(s)
    arc_lo, arc_len = arc_overlap(
        *chains._reach_window(body, s[0], u[0], blocks.width, 1, 0.0),
        *chains._reach_window(body, s[1], u[1], blocks.width, 1, 0.0),
        body.perimeter)
    pts = draw_arcs(arc_lo, arc_len, (np.arange(400) + 0.5) / 400,
                    body.perimeter)
    land = body.frame(body.to_native(pts))
    for k in (0, 1):
        dens = landing_density(body, law, body.frame(u[k]), land)
        assert np.all(blocks.level <= dens * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# disc process coupling
# ---------------------------------------------------------------------------

def _ac6_cert():
    width = 0.75 * PI
    floor = 4.0 / (3.0 * PI)
    _, cert = optimize_free_params(
        "disc_process", {"r": 1.0, "width": width, "floor": floor},
        {"eta": (0.02, 0.2, 8), "eps": (0.01, 0.18, 8)})
    return cert


STARTS = ((np.array([0.3, 0.2]), np.array([1.0, 0.4])),
          (np.array([-0.5, 0.1]), np.array([-0.2, -1.0])))


def test_process_disc_identical_starts(tu34_law):
    cert = _ac6_cert()
    out = couple_process_disc(1.0, tu34_law, STARTS[0], STARTS[0], cert,
                              1e4, 7)
    # first flight from (0.3, 0.2) along (1, .4)/|.|
    p, v = STARTS[0]
    v = v / np.linalg.norm(v)
    b = float(p @ v)
    t0 = -b + math.sqrt(b * b - (float(p @ p) - 1.0))
    assert out.coupled
    assert abs(out.coupling_time - t0) < 1e-12


def test_process_disc_couples_and_records_attempts(tu34_law):
    cert = _ac6_cert()
    out = couple_process_disc(1.0, tu34_law, STARTS[0], STARTS[1], cert,
                              1e6, 99)
    assert out.coupled
    assert out.coupling_time > 0.0
    stages = {rec.stage for rec in out.attempts}
    assert stages == {1, 2}
    # the last attempt is the successful joint one
    assert out.attempts[-1].stage == 2 and out.attempts[-1].success


def test_process_disc_width_guard(cosine_law):
    cert = _ac6_cert()
    law_ok = ReflectionLaw.truncated_uniform(0.75 * PI)
    bad_cert_inputs = dict(cert.inputs)
    from convexbilliards.rates import RateCertificate
    bad = RateCertificate("disc_chain", "step", {"width": 1.0, "floor": 1.0},
                          {"n0": 1, "alpha": 0.5})
    with pytest.raises(HypothesisViolated):
        couple_process_disc(1.0, law_ok, STARTS[0], STARTS[1], bad, 10.0, 1)


def test_process_disc_attempt_rates_dominate_certificate(tu34_law):
    cert = _ac6_cert()
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0], STARTS[1],
                                    cert, 1e6, 3000, seed=61)
    assert res.coupled.all()
    inner = cert.constants["inner"]   # certified per-attempt time coupling
    alpha = cert.constants["alpha"]   # certified joint-stage success
    n1 = res.stage1_attempts.sum()
    n2 = res.stage2_attempts.sum()
    assert res.stage1_rate >= inner - 3.0 * math.sqrt(inner / n1)
    assert res.stage2_rate >= alpha - 3.0 * math.sqrt(alpha / n2)


def test_process_disc_tail_dominance_small(tu34_law):
    cert = _ac6_cert()
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0], STARTS[1],
                                    cert, 1e6, 2000, seed=62)
    from convexbilliards.stats import survival_report
    grid = np.linspace(0.0, np.nanpercentile(res.coupling_time, 99.0), 20)
    rep = survival_report(res.coupling_time, cert, grid)
    assert rep.passed


def test_process_disc_marginal_preservation(tu34_law):
    # each coupled process must land as a free chain from its own first hit
    cert = _ac6_cert()
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0], STARTS[1],
                                    cert, 1e6, 20_000, seed=63,
                                    record_first=6)
    assert res.first_bounces.shape == (20_000, 2, 6)
    for row, (pos, vel) in enumerate(STARTS):
        phi0 = Disc(1.0).exit_ray(pos, vel / np.hypot(*vel))[1].s
        plain = run_chain_ensemble(Disc(1.0), tu34_law,
                                   np.full(20_000, phi0), 6,
                                   stream(64, row))[6]
        h1 = Histogram.from_samples(res.first_bounces[:, row, 5], 60, 0.0,
                                    TWO_PI, periodic=True)
        h2 = Histogram.from_samples(plain, 60, 0.0, TWO_PI, periodic=True)
        assert two_sample_chi2(h1, h2)[1] > 1e-3


def test_process_disc_worker_invariance(tu34_law):
    cert = _ac6_cert()
    r1 = couple_process_disc_batch(1.0, tu34_law, STARTS[0], STARTS[1],
                                   cert, 1e5, 5000, seed=65, workers=1)
    r2 = couple_process_disc_batch(1.0, tu34_law, STARTS[0], STARTS[1],
                                   cert, 1e5, 5000, seed=65, workers=3)
    for name in ("coupled", "coupling_time", "stage1_attempts",
                 "stage1_successes", "stage2_attempts", "stage2_successes"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name),
                              equal_nan=True), name
    assert r1.ticks == r2.ticks > 0


def test_process_disc_ticks_bound_attempts(tu34_law):
    # an active replica makes one or two attempts per tick (stage one,
    # stage two, or both), and one chunk ticks until its slowest replica
    # is done
    cert = _ac6_cert()
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0], STARTS[1],
                                    cert, 1e6, 64, seed=66)
    a = res.stage1_attempts + res.stage2_attempts
    assert a.max() / 2 <= res.ticks <= a.max()


def test_process_disc_stage_two_follows_each_stage_one_success(tu34_law):
    # a replica whose clocks couple attempts stage two in the same tick and
    # starts its next tick in stage one again, win or lose
    cert = _ac6_cert()
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0], STARTS[1],
                                    cert, 1e6, 64, seed=66)
    assert res.stage1_successes.sum() > 64
    assert np.array_equal(res.stage2_attempts, res.stage1_successes)


def _disc_processes(law, n, record_first):
    """A lockstep disc engine of ``n`` replicas on the AC-6 certificate."""
    cert = _ac6_cert()
    width = cert.inputs["width"]
    return process_disc._DiscProcesses(
        n, stream(109, 1), Disc(1.0), law, (0.0, 0.0), (0.0, 0.0),
        record_first, None, tables=process_disc._cached_two_bounce_tables(law),
        width=width, eta=cert.inputs["eta"], delta=cert.constants["delta"],
        prof2=disc_pair_profile(1.0, width, cert.inputs["floor"],
                                cert.inputs["eps"]))


@pytest.mark.parametrize("record_first", [0, 60])
def test_process_disc_realign_invariants(tu34_law, record_first):
    # realignment moves only the lagging process of each listed replica
    # (process a on a tie), strictly past the other's clock; the leading
    # process, unlisted replicas and arcs recorded before stay as they were
    n = 6
    procs = _disc_processes(tu34_law, n, record_first)
    gen = stream(109, 0)
    procs.u[:] = gen.random((2, n)) * TWO_PI
    procs.clock[:] = gen.random((2, n)) * 6.0
    procs.clock[1, 0] = procs.clock[0, 0]
    procs.clock[1, 5] = procs.clock[0, 5] + 20.0   # several rounds
    if record_first:
        procs.record(np.arange(2 * n), procs.body.to_arc(procs.u_f))
    u0, c0, cur0 = procs.u.copy(), procs.clock.copy(), procs.cursor.copy()
    rec0 = procs.bounces.copy() if record_first else None
    i = np.array([0, 1, 2, 4, 5])
    procs.realign(i)
    lag = (c0[0, i] > c0[1, i]).astype(int)
    lead = 1 - lag
    assert np.all(procs.clock[lag, i] > c0[lead, i])
    assert np.array_equal(procs.u[lead, i], u0[lead, i])
    assert np.array_equal(procs.clock[lead, i], c0[lead, i])
    assert np.all(procs.clock >= c0)
    assert np.array_equal(procs.u[:, 3], u0[:, 3])
    assert np.array_equal(procs.clock[:, 3], c0[:, 3])
    if record_first:
        f_lag = i + n * lag
        moved = np.zeros(2 * n, dtype=bool)
        moved[f_lag] = True
        assert np.array_equal(procs.bounces[:, 0], rec0[:, 0])
        assert np.array_equal(procs.bounces[~moved], rec0[~moved],
                              equal_nan=True)
        assert np.array_equal(procs.cursor[~moved], cur0[~moved])
        # each lagging process recorded every kept landing, the last of
        # them where it now stands
        assert np.all(procs.cursor[f_lag] > cur0[f_lag])
        assert np.all(procs.cursor < record_first)
        last = procs.bounces[f_lag, procs.cursor[f_lag] - 1]
        assert np.array_equal(last, procs.body.to_arc(procs.u_f[f_lag]))
        assert procs.cursor[f_lag[-1]] - cur0[f_lag[-1]] > 4


def test_process_disc_equal_first_hits_couple_at_once(tu34_law):
    # starts are compared by their first hits: the same ray launched with
    # a scaled velocity is the same process from its first hit on
    cert = _ac6_cert()
    pos, vel = STARTS[0]
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0], (pos, 2.0 * vel),
                                    cert, 1e6, 4, seed=1, record_first=3)
    t0 = Disc(1.0).exit_ray(pos, vel / np.hypot(*vel))[0]
    assert res.coupled.all() and np.all(res.coupling_time == t0)
    assert res.stage1_attempts.sum() + res.stage2_attempts.sum() == 0
    assert res.ticks == 0
    assert np.array_equal(res.first_bounces[:, 0], res.first_bounces[:, 1])


def test_process_disc_close_starts_couple_by_attempts(tu34_law):
    # a start 5e-9 away has its own first hit, so the pair is coupled by
    # the stages, not declared coupled at the first hit
    cert = _ac6_cert()
    pos, vel = STARTS[0]
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0],
                                    (pos + 5e-9, vel), cert, 1e6, 4, seed=1)
    assert res.coupled.all()
    assert np.all(res.stage1_attempts > 0)
    assert np.all(res.stage2_successes == 1)


def test_process_disc_coupled_rows_share_their_continuation(tu34_law):
    # after the coupling landing the pair is one process, so both rows of
    # the recorded first bounces continue alike from that landing, each
    # at its own bounce count
    cert = _ac6_cert()
    pos, vel = STARTS[0]
    res = couple_process_disc_batch(1.0, tu34_law, STARTS[0],
                                    (pos + 5e-9, vel), cert, 1e6, 4, seed=1,
                                    record_first=4000)
    assert res.coupled.all() and not np.isnan(res.first_bounces).any()
    for a, b in res.first_bounces:
        landing = a[np.isin(a, b)][0]
        ia, ib = np.flatnonzero(a == landing)[0], np.flatnonzero(b == landing)[0]
        m = min(a.size - ia, b.size - ib)
        assert m > 1
        assert np.array_equal(a[ia:ia + m], b[ib:ib + m])


def test_law_tables_cached_by_value():
    # a config builds a new law object on every run; equal laws share tables
    law = ReflectionLaw.truncated_uniform(0.75 * PI)
    again = ReflectionLaw.truncated_uniform(0.75 * PI)
    assert (process_disc._cached_two_bounce_tables(law)
            is process_disc._cached_two_bounce_tables(again))
    disc = Disc(1.0)
    assert (chains._cached_tables(disc, law, 2)
            is chains._cached_tables(disc, again, 2))


TWO_BOUNCE_LAWS = {
    "truncated_uniform": ReflectionLaw.truncated_uniform(0.75 * PI),
    "cosine": ReflectionLaw.cosine(),
}


@pytest.mark.parametrize("law", TWO_BOUNCE_LAWS.values(),
                         ids=TWO_BOUNCE_LAWS.keys())
def test_two_bounce_pdf_matches_monte_carlo(law):
    from scipy.stats import chi2 as chi2_dist
    tables = process_disc._cached_two_bounce_tables(law)
    n, bins = 1_000_000, 80
    rng = stream(71, 0)
    w = np.cos(law.sample(rng, n)) + np.cos(law.sample(rng, n))
    edges = np.linspace(tables.w_grid[0], tables.w_grid[-1], bins + 1)
    counts, _ = np.histogram(w, edges)
    # the table's mass per bin, by the trapezoid rule on 64 steps a bin
    fine = np.linspace(edges[0], edges[-1], 64 * bins + 1)
    pdf = np.interp(fine, tables.w_grid, tables.pdf_grid, left=0.0, right=0.0)
    cells = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(fine)
    expected = n * cells.reshape(bins, 64).sum(axis=1)
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2_dist.sf(stat, bins - 1) > 1e-3


@pytest.mark.parametrize("law", TWO_BOUNCE_LAWS.values(),
                         ids=TWO_BOUNCE_LAWS.keys())
def test_two_bounce_conditional_pair_constraint(law):
    tables = process_disc._cached_two_bounce_tables(law)
    rng = stream(72, 0)
    w = np.concatenate([tables.w_grid,
                        rng.uniform(tables.w_grid[0], tables.w_grid[-1],
                                    50_000)])
    th1, th2 = tables.conditional_pair(w, rng)
    assert np.max(np.abs(np.cos(th1) + np.cos(th2) - w)) < 1e-12
    assert np.max(np.abs(th1)) <= tables.m and np.max(np.abs(th2)) <= tables.m


def _conditional_pair_2d(tables, w, rng):
    # conditional_pair as it read the quantile table by 2-d gathers
    T, U = process_disc._T_GRID, process_disc._U_GRID
    w0, dw = tables.w_grid[0], tables.w_grid[1] - tables.w_grid[0]
    pos = ((w - w0) / dw).clip(0.0, T - 1.0)
    i0 = np.minimum(pos.astype(np.intp), T - 2)
    fw = pos - i0
    p = rng.random(w.size) * U
    j0 = np.minimum(p.astype(np.intp), U - 1)
    fp = p - j0
    q = tables.quantiles
    tau = ((1.0 - fw) * ((1.0 - fp) * q[i0, j0] + fp * q[i0, j0 + 1])
           + fw * ((1.0 - fp) * q[i0 + 1, j0] + fp * q[i0 + 1, j0 + 1]))
    u_hi, t_hi = tables._u_range(w)
    t = tau * t_hi
    u = u_hi - t * t
    v = process_disc._partner(w, u)
    signs = np.where(rng.random((2, w.size)) < 0.5, -1.0, 1.0)
    return signs[0] * u, signs[1] * v


@pytest.mark.parametrize("law", TWO_BOUNCE_LAWS.values(),
                         ids=TWO_BOUNCE_LAWS.keys())
def test_two_bounce_conditional_pair_flat_gather(law):
    # one flat index reads the same table elements as q[i0, j0] and its
    # neighbours: the draws are the same bits
    tables = process_disc._cached_two_bounce_tables(law)
    lo, hi = tables.w_grid[0], tables.w_grid[-1]
    w = np.concatenate([tables.w_grid, [lo - 0.5, hi + 0.5],
                        stream(74, 1).uniform(lo, hi, 50_000)])
    got = tables.conditional_pair(w, stream(74, 0))
    ref = _conditional_pair_2d(tables, w, stream(74, 0))
    for a, b in zip(got, ref):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


# w near the low end, in the middle and near 2, per law
CONDITIONAL_POINTS = {"truncated_uniform": (0.9, 1.4, 1.99),
                      "cosine": (0.75, 1.2, 1.99)}


@pytest.mark.parametrize("kind", CONDITIONAL_POINTS)
def test_two_bounce_conditional_pair_law(kind):
    # the first angle of Monte-Carlo pairs whose cosine sum falls within
    # 1e-3 of w0, against the sampler at each pair's own sum: both are
    # then draws from one mixture over the bin, which matters where the
    # conditional law's edge moves fast with w (near w = 2)
    law = TWO_BOUNCE_LAWS[kind]
    tables = process_disc._cached_two_bounce_tables(law)
    rng = stream(73, 0)
    for w0 in CONDITIONAL_POINTS[kind]:
        hits, sums = [], []
        while sum(h.size for h in hits) < 10_000:
            a = law.sample(rng, 1_000_000)
            w = np.cos(a) + np.cos(law.sample(rng, a.size))
            near = np.abs(w - w0) < 1e-3
            hits.append(a[near])
            sums.append(w[near])
        mc = np.concatenate(hits)
        th1, _ = tables.conditional_pair(np.concatenate(sums), rng)
        lo, hi = np.min(np.abs(mc)), np.max(np.abs(mc)) + 1e-9
        h1 = Histogram.from_samples(np.abs(th1), 30, lo, hi)
        h2 = Histogram.from_samples(np.abs(mc), 30, lo, hi)
        assert two_sample_chi2(h1, h2)[1] > 1e-3, w0
        assert abs(np.mean(th1 > 0.0) - 0.5) < 0.03, w0


# ---------------------------------------------------------------------------
# convex process coupling
# ---------------------------------------------------------------------------

def _convex_cert(ellipse):
    params = RateParams(eps=5e-4, beta=1.5, delta=1.2, zeta=0.1)
    x = point_at(ellipse, 0.15 * ellipse.perimeter)
    xt = point_at(ellipse, 0.55 * ellipse.perimeter)
    return convex_process_rate(ellipse, 1.0 / PI, params, x, xt), params


def test_process_convex_identical_starts(ellipse, uniform_half_law):
    cert, _ = _convex_cert(ellipse)
    start = (np.array([1.0, 0.3]), np.array([0.6, 1.0]))
    out = couple_process_convex(ellipse, uniform_half_law, start, start,
                                cert, 50.0, stream(71, 0))
    tau, _ = ellipse.exit_ray(start[0], start[1] / np.linalg.norm(start[1]))
    assert out.coupled
    assert abs(out.coupling_time - tau) < 1e-12


def test_process_convex_horizon_recorded(ellipse, uniform_half_law):
    cert, _ = _convex_cert(ellipse)
    trace = []
    res = couple_process_convex_batch(
        ellipse, uniform_half_law,
        (np.array([1.0, 0.2]), np.array([0.5, 1.0])),
        (np.array([-1.0, -0.2]), np.array([-0.5, -1.0])),
        cert, 150.0, 1, 72, record_first=8, trace=trace)
    assert not res.coupled[0]
    assert np.isnan(res.coupling_time[0])
    n1 = sum(1 for a in trace if a.stage == 1)
    assert n1 > 0 and n1 == res.stage1_attempts[0]
    # certified success is astronomically small: zero successes still
    # dominate it within three binomial sigmas
    p = cert.constants["p"]
    assert 0.0 >= p - 3.0 * math.sqrt(p * (1 - p) / max(n1, 1))
    # the recorded landings stay on the boundary
    first = res.first_bounces
    assert np.all((first >= 0.0) & (first < ellipse.perimeter))
    # tail dominance is vacuously respected: at lambda_M/2 the certified
    # bound exceeds one on any finite grid, so full survival passes
    from convexbilliards.stats import survival_report
    rep = survival_report(res.coupling_time, cert, np.linspace(0.0, 150.0, 20))
    assert rep.passed


def _convex_process_case(name, ellipse):
    """Body, certificate and the two (position, velocity) starts of a
    convex process coupling run.  On the ellipse stage one never succeeds
    at the test seeds; on the disc, with the slacks below, it succeeds on
    about one attempt in eight, so the runs draw common blocks and attempt
    stage two."""
    if name == "ellipse":
        cert, _ = _convex_cert(ellipse)
        return ellipse, cert, ((np.array([1.0, 0.2]), np.array([0.5, 1.0])),
                               (np.array([-1.0, -0.2]),
                                np.array([-0.5, -1.0])))
    disc = Disc(1.0)
    params = RateParams(eps=5e-4, beta=0.6, delta=0.4, zeta=0.5)
    cert = convex_process_rate(disc, 1.0 / PI, params, point_at(disc, 0.0),
                               point_at(disc, PI))
    return disc, cert, ((np.array([0.5, 0.1]), np.array([0.5, 1.0])),
                        (np.array([-0.5, -0.1]), np.array([-0.5, -1.0])))


@pytest.mark.parametrize("case,n,t_max", [("ellipse", 2000, 30.0),
                                          ("disc", 1000, 8.0)],
                         ids=["ellipse", "disc"])
def test_process_convex_marginal(ellipse, uniform_half_law, case, n, t_max):
    # the coupling leaves each process's own law alone: four bounces after
    # its first hit, each process lands as a free chain from that hit does
    body, cert, starts = _convex_process_case(case, ellipse)
    k, seed = 4, 76
    res = couple_process_convex_batch(body, uniform_half_law, *starts,
                                      cert, t_max, n, seed, record_first=k)
    if case == "disc":
        assert res.stage1_successes.sum() > 0
        assert res.stage2_attempts.sum() > 0
    P = body.perimeter
    for row, (pos, vel) in enumerate(starts):
        first = body.exit_ray(pos, vel / np.hypot(*vel))[1].s
        plain = run_chain_ensemble(body, uniform_half_law,
                                   np.full(n, first), k,
                                   stream(seed, n + row))[k]
        h1 = Histogram.from_samples(res.first_bounces[:, row, k - 1], 30,
                                    0.0, P, periodic=True)
        h2 = Histogram.from_samples(plain, 30, 0.0, P, periodic=True)
        assert two_sample_chi2(h1, h2)[1] > 1e-3


# two chunks of replicas each: the disc's runs are short, because each
# stage-two attempt builds its bisector windows
@pytest.mark.parametrize("case,t_max", [("ellipse", 30.0), ("disc", 2.0)],
                         ids=["ellipse", "disc"])
def test_process_convex_worker_invariance(ellipse, uniform_half_law, case,
                                          t_max):
    body, cert, starts = _convex_process_case(case, ellipse)
    n = 4500
    r1 = couple_process_convex_batch(body, uniform_half_law, *starts,
                                     cert, t_max, n, seed=77, workers=1)
    r2 = couple_process_convex_batch(body, uniform_half_law, *starts,
                                     cert, t_max, n, seed=77, workers=2)
    assert r1.stage1_attempts.sum() > n
    if case == "disc":
        assert r1.stage1_successes.sum() > 0
        assert r1.stage2_attempts.sum() > 0
    for name in ("coupled", "coupling_time", "stage1_attempts",
                 "stage1_successes", "stage2_attempts", "stage2_successes"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name),
                              equal_nan=True), name


def test_process_convex_stage_two_follows_each_stage_one_success(
        ellipse, uniform_half_law):
    body, cert, starts = _convex_process_case("disc", ellipse)
    res = couple_process_convex_batch(body, uniform_half_law, *starts,
                                      cert, 2.0, 500, seed=79)
    assert res.stage1_successes.sum() > 0
    assert np.array_equal(res.stage2_attempts, res.stage1_successes)


def test_process_convex_joint_success_bridges(uniform_half_law):
    # a joint success on the disc run through the convex stages: both
    # processes pass through the bisector patch and land on one target
    # point at one clock within the time window
    disc = Disc(1.0)
    params = RateParams(eps=5e-4, beta=0.6, delta=0.4, zeta=0.5)
    x, xt = point_at(disc, 0.0), point_at(disc, PI)
    cert = convex_process_rate(disc, 1.0 / PI, params, x, xt)
    procs = _ConvexProcesses(1, stream(78, 0), disc, uniform_half_law,
                             disc.to_native(np.array([0.0, PI])), (5.0, 5.0),
                             2, None, n0=cert.constants["n0"], zeta=0.5,
                             w_box=2.0, level1=0.0, floor=1.0 / PI,
                             params=params)
    i = np.array([0])
    mass, win = procs.window2(i)
    assert mass[0] > 0.0
    procs.couple2(np.array([0, 1]), win)
    R1, R2, p_lo, p_len, t_lo, t_len, _ = win[:, 0]
    clock = procs.clock[:, 0]
    assert clock[0] == clock[1] and R1 <= clock[0] - 5.0 <= R2
    assert procs.u[0, 0] == procs.u[1, 0]
    (mid_a, land_a), (mid_b, land_b) = procs.bounces
    assert land_a == land_b
    assert in_arcs(land_a, np.array([t_lo]), np.array([t_len]), TWO_PI)
    for w, mid in ((x, mid_a), (xt, mid_b)):
        assert in_arcs(mid, np.array([p_lo]), np.array([p_len + 1e-12]),
                       TWO_PI)
        path = float(_path_time(disc, w.position, mid, land_a))
        assert abs(path - (clock[0] - 5.0)) < 1e-9


def test_process_convex_narrow_law_rejected(ellipse, tu34_law):
    cert, _ = _convex_cert(ellipse)
    start = (np.array([1.0, 0.3]), np.array([0.6, 1.0]))
    with pytest.raises(HypothesisViolated):
        couple_process_convex(ellipse, tu34_law, start, start, cert, 10.0,
                              stream(73, 0))


@pytest.mark.parametrize("n0", [3, 5, 8])
@pytest.mark.parametrize("frac", [0.3, 0.5, 0.7],
                         ids=["below", "at", "above"])
def test_slice_times_law(n0, frac):
    # the flight times must be uniform on the slice {sum = total} of the
    # box: each row sums to its total inside the box, and the first time's
    # marginal is proportional to the remaining slice volume; a total above
    # n0 w / 2 takes the reflected branch
    from scipy.stats import chi2 as chi2_dist
    w, n = 0.8, 200_000
    total = frac * n0 * w
    draws = _slice_times(np.full(n, total), n0, w,
                         stream(75, 100 * n0 + int(10 * frac)))
    assert draws.shape == (n, n0)
    assert np.all(np.abs(draws.sum(axis=1) - total) < 1e-12)
    assert np.all((draws >= 0.0) & (draws <= w))
    lo, hi = max(0.0, total - (n0 - 1) * w), min(w, total)
    edges = np.linspace(lo, hi, 41)
    counts, _ = np.histogram(draws[:, 0], bins=edges)
    # cell masses of the marginal density box_slice_volume(total - tau)
    fine = np.linspace(edges[:-1], edges[1:], 201)
    mass = np.trapezoid(box_slice_volume(total - fine, n0 - 1, w), fine,
                        axis=0)
    expected = mass / mass.sum() * n
    keep = expected > 20
    stat = float(np.sum((counts[keep] - expected[keep]) ** 2
                        / expected[keep]))
    assert chi2_dist.sf(stat, int(keep.sum()) - 1) > 1e-3


def test_box_slice_volume_matches_analytic():
    # n = 2: triangular, width w
    w = 0.7
    for t, expect in ((0.35, 0.35), (0.7, 0.7), (1.05, 0.35)):
        assert abs(box_slice_volume(t, 2, w) - expect) < 1e-12
    # integral over t of the slice volume is w^n
    grid = np.linspace(0.0, 3 * 0.7, 20_001)
    total = np.trapezoid(box_slice_volume(grid, 3, w), grid)
    assert abs(total - w ** 3) < 1e-6


def test_block_time_bridge_hits_prescribed_total(ellipse, uniform_half_law):
    # stage-one common draw: realise prescribed block flight times for
    # several rows at once
    gen = stream(74, 0)
    rows = 12
    w_box = 2.0 / summarize(ellipse).curvature_max
    for n0 in (2, 3, 5):
        u0 = ellipse.to_native(gen.random(rows) * ellipse.perimeter)
        total = (0.2 + 0.6 * gen.random(rows)) * n0 * w_box
        path, taus = _realise_block_times(ellipse, uniform_half_law, u0,
                                          total, n0, w_box, gen)
        assert path.shape == taus.shape == (n0, rows)
        assert np.all(np.abs(taus.sum(axis=0) - total) < 1e-8)
        # the flight times are the chords between each row's landings
        for r in range(rows):
            xy = np.stack(ellipse.frame(np.r_[u0[r], path[:, r]])[:2],
                          axis=1)
            assert np.allclose(np.hypot(*np.diff(xy, axis=0).T),
                               taus[:, r], atol=1e-12)
        x, y = ellipse.position_at(ellipse.to_arc(path).ravel()).T
        assert np.all(np.abs((x / ellipse.a) ** 2 + (y / ellipse.b) ** 2
                             - 1.0) < 1e-8)


def test_block_times_pick_roots_by_weight(ellipse, uniform_half_law):
    # one-bounce blocks from two interleaved starts: each row lands on one
    # of its own start's chord-time roots, as often as that root's weight
    # share says
    n = 20_000
    starts = ellipse.to_native(np.array([0.7, 3.1]))
    totals = np.array([1.3, 2.1])
    u0, total = np.tile(starts, n // 2), np.tile(totals, n // 2)
    path, taus = _realise_block_times(ellipse, uniform_half_law, u0, total,
                                      1, 2.5, stream(80, 0))
    assert np.allclose(taus[0], total, atol=1e-9)
    for r in range(2):
        _, theta, weight = _chord_branches(ellipse, uniform_half_law,
                                           starts[r], totals[r])
        assert theta.size >= 2
        ends = ellipse.bounce(np.full(theta.size, starts[r]), theta)[0]
        land = path[0, r::2]
        hit = np.abs(land[:, None] - ends[None, :]) < 1e-9
        assert np.all(hit.sum(axis=1) == 1)
        share = weight / weight.sum()
        freq = hit.mean(axis=0)
        assert np.all(np.abs(freq - share)
                      < 4.0 * np.sqrt(share * (1.0 - share) / land.size))


def test_block_time_without_chord_raises(ellipse, uniform_half_law):
    # a box wider than the diameter admits flight times no chord realises
    with pytest.raises(ResidualSamplingError):
        _realise_block_times(ellipse, uniform_half_law,
                             ellipse.to_native(np.array([0.0, 1.0])),
                             np.array([9.8, 9.8]), 2, 5.0, stream(81, 0))


def test_chord_branches_invert_flight_time(ellipse, uniform_half_law):
    target = 0.8
    pair, theta, weight = _chord_branches(ellipse, uniform_half_law,
                                          ellipse.to_native(2.0), target)
    assert theta.size and np.all(pair == 0)
    for th, w in zip(theta, weight):
        assert abs(chord_times(ellipse, 2.0, th)[0] - target) < 1e-9
        assert w > 0.0


def test_chord_branches_disc_oracle(disc, cosine_law):
    # on a disc the chord time is 2r cos(theta): the branches are
    # -+arccos(tau / 2r), each weighted f(theta) / (2r |sin theta|)
    gen = stream(79, 0)
    u = disc.to_native(gen.random(50) * disc.perimeter)
    tau = 2.0 * disc.r * (0.005 + 0.99 * gen.random(50))
    pair, theta, weight = _chord_branches(disc, cosine_law, u, tau)
    assert np.array_equal(pair, np.repeat(np.arange(50), 2))
    root = np.arccos(tau / (2.0 * disc.r))
    exact = np.stack([-root, root], axis=-1).ravel()
    assert np.allclose(theta, exact, rtol=0.0, atol=1e-12)
    oracle = cosine_law.density(exact) / (2.0 * disc.r * np.abs(np.sin(exact)))
    assert np.allclose(weight, oracle, rtol=1e-12, atol=0.0)
    # a time met exactly at a scan angle returns that angle
    from convexbilliards.coupling.process_convex import _THETA_SCAN
    tau = disc.bounce(u[0], _THETA_SCAN[70])[1]
    _, theta, _ = _chord_branches(disc, cosine_law, u[0], tau)
    assert theta.size == 2 and theta[1] == _THETA_SCAN[70]
    assert abs(theta[0] + theta[1]) < 1e-15


@pytest.mark.parametrize("name", ["ellipse", "table"])
def test_chord_branches_batch_matches_single(name, cosine_law):
    # one call over many pairs gives each pair the bits it gets alone
    body = _one_bounce_case(name)[0]
    gen = stream(80, 0)
    u = body.to_native(gen.random(40) * body.perimeter)
    tau = gen.random(40) * body.diameter
    pair, theta, weight = _chord_branches(body, cosine_law, u, tau)
    assert theta.size > 40
    for j in range(u.size):
        one, th, w = _chord_branches(body, cosine_law, u[j], tau[j])
        assert np.all(one == 0)
        assert np.array_equal(theta[pair == j], th)
        assert np.array_equal(weight[pair == j], w)


def test_coupling_imports_no_scipy_optimize():
    # the coupling solves its roots with geometry's safeguarded Newton
    # steps, not with a second solver
    for path in sorted(Path(base.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module] + [f"{node.module}.{a.name}"
                                         for a in node.names]
            else:
                continue
            assert not any(n == "scipy.optimize"
                           or n.startswith("scipy.optimize.")
                           for n in names), path.name


def test_stage2_bridge_root(ellipse):
    params = RateParams(eps=5e-4, beta=1.5, delta=1.2, zeta=0.1)
    x = point_at(ellipse, 0.15 * ellipse.perimeter)
    xt = point_at(ellipse, 0.55 * ellipse.perimeter)
    win = bisector_window_geometry(ellipse, x, xt, params)
    t_land = 0.5 * (win.I_star[0] + win.I_star[1])
    u_time = 0.5 * (win.R1 + win.R2)
    both = lambda v: np.full(2, v)
    mids = _bridge_roots(ellipse, np.stack([x.position, xt.position]),
                         both(win.s_ybar - win.eps), both(win.s_ybar + win.eps),
                         both(t_land), both(u_time))
    for w, s_mid in zip((x, xt), mids):
        # the root lies in the bisector patch and realises the time exactly
        d = abs(math.remainder(s_mid - win.s_ybar, ellipse.perimeter))
        assert d <= params.eps + 1e-9
        tt = float(_path_time(ellipse, w.position, s_mid, t_land))
        assert abs(tt - u_time) < 1e-9
