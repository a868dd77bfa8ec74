import math

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from convexbilliards import CurvatureTable, Disc, Ellipse, point_at
from convexbilliards.dynamics import (
    cell_kernel,
    chord_times,
    disc_step_exact,
    run_chain,
    run_chain_ensemble,
    sample_process_at,
    transition_density,
    transition_row_integral,
)
from convexbilliards.errors import BeyondHorizon, CoincidentPoints
from convexbilliards.rng import stream
from convexbilliards.stats import Histogram, tv_to_probs

TWO_PI = 2.0 * math.pi


class _PointLaw:
    """Degenerate law emitting one fixed angle (sampler interface only)."""

    def __init__(self, theta):
        self.theta = theta
        self.support_width = math.pi

    def sample(self, rng, size=None):
        if size is None:
            return self.theta
        return np.full(size, self.theta)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_one_bounce_normal_reflection_is_antipodal(disc, rng):
    traj = run_chain(disc, _PointLaw(0.0), 0.0, 1, rng)
    assert traj.theta[0] == 0.0
    assert abs(traj.tau[0] - 2.0) < disc.tol_root
    assert abs(traj.phi[0] - math.pi) < 1e-12


def test_one_bounce_ellipse_axis_chord(ellipse, rng):
    traj = run_chain(ellipse, _PointLaw(0.0), 0.0, 1, rng)  # from (2, 0)
    assert abs(traj.tau[0] - 4.0) < ellipse.tol_root
    assert np.allclose(ellipse.position_at(traj.s[0]), [-2.0, 0.0],
                       atol=1e-9)


def test_disc_step_exact_examples():
    phi, tau = disc_step_exact(1.0, 0.0, 0.0)
    assert (phi, tau) == (math.pi, 2.0)
    phi, tau = disc_step_exact(1.0, 0.0, math.pi / 4.0)
    assert abs(phi - 3.0 * math.pi / 2.0) < 1e-12
    assert abs(tau - math.sqrt(2.0)) < 1e-12
    phi, tau = disc_step_exact(2.0, math.pi, -math.pi / 6.0)
    assert abs(phi - 5.0 * math.pi / 3.0) < 1e-12
    assert abs(tau - 2.0 * math.sqrt(3.0)) < 1e-12


def test_disc_step_exact_against_ray_trace(disc):
    # geometric oracle: trace the chord for a grid of launch angles
    from convexbilliards.reflection import reflect
    for phi0 in (0.0, 1.1, 4.5):
        for theta in (-1.3, -0.4, 0.2, 1.0):
            bp = point_at(disc, phi0)
            tau_geo, hit = disc.exit_ray(bp.position, reflect(bp, theta))
            phi_exact, tau_exact = disc_step_exact(1.0, phi0, theta)
            assert abs(tau_geo - tau_exact) < 1e-12
            assert abs((hit.s - phi_exact + math.pi) % TWO_PI - math.pi) < 1e-9


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_run_chain_zero_steps(disc, cosine_law, rng):
    traj = run_chain(disc, cosine_law, 1.5, 0, rng)
    assert len(traj) == 0
    assert traj.s0 == 1.5


def test_run_chain_matches_closed_form(cosine_law):
    body = Disc(1.7)
    traj = run_chain(body, cosine_law, 0.3 * 1.7, 10_000, stream(3, 1))
    gen = stream(3, 1)
    phi = 0.3
    for i in range(10_000):
        theta = float(cosine_law.sample(gen))
        phi, tau = disc_step_exact(1.7, phi, theta)
        assert abs(tau - traj.tau[i]) < 1e-9
        assert abs(phi - traj.phi[i]) < 1e-9


def test_time_additivity(ellipse, cosine_law, rng):
    traj = run_chain(ellipse, cosine_law, 0.0, 500, rng)
    assert np.all(np.diff(traj.T) > 0.0)
    assert np.all(traj.tau > 0.0)
    assert np.all(traj.tau <= ellipse.diameter + 1e-12)
    assert np.allclose(np.cumsum(traj.tau), traj.T)


def _ensemble_body(name):
    if name == "disc":
        return Disc(1.0)
    body = Ellipse(2.0, 1.0)
    if name == "table":
        s = np.arange(256) * (body.perimeter / 256)
        body = CurvatureTable(s, body.curvature_at(s))
    return body


@pytest.mark.parametrize("name", ["disc", "ellipse", "table"])
def test_ensemble_matches_scalar_engine(name, tu34_law):
    # same stream, one replica: the walk on arrays must reproduce the walk
    # on scalars
    body = _ensemble_body(name)
    arcs = run_chain_ensemble(body, tu34_law, np.array([1.0]), 50,
                              stream(9, 4))
    traj = run_chain(body, tu34_law, 1.0, 50, stream(9, 4))
    assert np.allclose(arcs[1:, 0], traj.s, atol=1e-8)


def test_stationarity_uniform_short(cosine_law):
    arcs = run_chain_ensemble(Disc(1.0), cosine_law, np.zeros(1), 200_000,
                              stream(11, 0))
    h = Histogram.from_samples(arcs[1:, 0], 100, 0.0, TWO_PI, periodic=True)
    assert tv_to_probs(h, np.full(100, 0.01)) < 0.03


# ---------------------------------------------------------------------------
# continuous-time interpolation
# ---------------------------------------------------------------------------

def test_sample_process_at_bounce_and_midpoint(disc, cosine_law, rng):
    traj = run_chain(disc, cosine_law, 0.0, 20, rng)
    k = 7
    st = sample_process_at(traj, disc, float(traj.T[k - 1]))
    assert np.allclose(st.position, disc.position_at(traj.s[k - 1]),
                       atol=1e-9)
    mid_t = 0.5 * (traj.T[k - 1] + traj.T[k])
    st_mid = sample_process_at(traj, disc, float(mid_t))
    p_a = disc.position_at(traj.s[k - 1])
    p_b = disc.position_at(traj.s[k])
    assert np.allclose(st_mid.position, 0.5 * (p_a + p_b), atol=1e-9)
    assert st_mid.bounces_so_far == k


def test_sample_process_inside_body(disc, cosine_law, rng):
    traj = run_chain(disc, cosine_law, 0.0, 50, rng)
    for t in rng.uniform(0.0, traj.T[-1], 200):
        st = sample_process_at(traj, disc, float(t))
        assert np.hypot(*st.position) <= 1.0 + disc.tol_geom
        assert abs(np.linalg.norm(st.velocity) - 1.0) < 1e-12


def test_sample_process_beyond_horizon(disc, cosine_law, rng):
    traj = run_chain(disc, cosine_law, 0.0, 5, rng)
    with pytest.raises(BeyondHorizon):
        sample_process_at(traj, disc, float(traj.T[-1]) + 1.0)


# ---------------------------------------------------------------------------
# transition kernel
# ---------------------------------------------------------------------------

def test_kernel_antipodal_cosine_value(disc, cosine_law):
    x = point_at(disc, 0.0)
    y = point_at(disc, math.pi)
    val = transition_density(disc, cosine_law, x, y)
    # launch angle 0 (density 1/2), landing angle 0, chord length 2
    assert abs(val - 0.25) < 1e-12


def test_kernel_small_chord_limit(ellipse, uniform_half_law):
    # as y -> x the density tends to curvature(x) * density(pi/2) / 2
    x = point_at(ellipse, 1.0)
    kappa = float(ellipse.curvature_at(1.0))
    expected = kappa * (1.0 / math.pi) / 2.0
    vals = [transition_density(ellipse, uniform_half_law, x,
                               point_at(ellipse, 1.0 + ds))
            for ds in (1e-2, 1e-3, 1e-4)]
    assert abs(vals[-1] - expected) < 1e-3 * expected + 1e-6
    assert vals[-1] <= ellipse.curvature_max / math.pi / 2.0 * 1.001


def test_kernel_zero_outside_cone(disc, tu34_law):
    x = point_at(disc, 0.0)
    y = point_at(disc, 0.1)  # nearly tangent: launch angle close to -pi/2
    assert transition_density(disc, tu34_law, x, y) == 0.0


def test_kernel_coincident_raises(disc, cosine_law):
    x = point_at(disc, 0.0)
    with pytest.raises(CoincidentPoints):
        transition_density(disc, cosine_law, x, x)


@pytest.mark.parametrize("body_name", ["disc", "ellipse"])
@pytest.mark.parametrize("law_name", ["cosine", "tu"])
def test_kernel_stochastic_rows(body_name, law_name, disc, ellipse,
                                cosine_law, tu34_law):
    body = {"disc": disc, "ellipse": ellipse}[body_name]
    law = {"cosine": cosine_law, "tu": tu34_law}[law_name]
    gen = stream(13, 5)
    for _ in range(4):
        x = point_at(body, float(gen.random()) * body.perimeter)
        val = transition_row_integral(body, law, x)
        assert abs(val - 1.0) < 1e-6


def test_markov_two_step_surrogate(disc, cosine_law):
    # empirical two-step landing distribution versus the cell kernel
    # composed with itself, from the midpoint of cell 0
    n = 100_000
    # 16 cells per histogram bin so cell and bin edges align exactly
    bins = 50
    cells = 16 * bins
    P = cell_kernel(disc, cosine_law, cells)
    s0 = 0.5 * disc.perimeter / cells
    arcs = run_chain_ensemble(disc, cosine_law, np.full(n, s0), 2,
                              stream(17, 0))
    counts, _ = np.histogram(arcs[2], bins=bins, range=(0.0, disc.perimeter))
    probs = (P @ P)[0].reshape(bins, -1).sum(axis=1)
    expected = probs * n
    keep = expected > 20
    stat = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    pval = float(chi2_dist.sf(stat, int(keep.sum()) - 1))
    assert pval > 1e-3


# ---------------------------------------------------------------------------
# landing-density lower bounds observed on simulations
# ---------------------------------------------------------------------------

def test_first_bounce_density_floor(disc, cosine_law):
    # density of the first landing angle dominates floor/2 on the certified
    # window around the antipode
    fc = cosine_law.certify_floor()
    n = 200_000
    th = cosine_law.sample(stream(19, 0), n)
    phi1 = math.pi + 2.0 * np.asarray(th)
    lo, hi = math.pi - fc.width, math.pi + fc.width
    bins = 40
    counts, edges = np.histogram(phi1, bins=bins, range=(lo, hi))
    dens = counts / n / ((hi - lo) / bins)
    sigma = np.sqrt(np.maximum(counts, 1.0)) / n / ((hi - lo) / bins)
    assert np.all(dens >= 0.5 * fc.floor - 3.0 * sigma)


def test_two_bounce_time_support(tu34_law):
    # with a support-limited law every two-bounce time lies in
    # [4 r cos(width/2), 4 r]
    r = 1.0
    th = tu34_law.sample(stream(23, 0), (2, 100_000))
    t2 = 2.0 * r * (np.cos(th[0]) + np.cos(th[1]))
    lo = 4.0 * r * math.cos(0.5 * tu34_law.support_width)
    assert np.all(t2 >= lo - 1e-12)
    assert np.all(t2 <= 4.0 * r + 1e-12)


def test_run_chain_on_tabulated_body(cosine_law):
    # the scalar engine, stepping the table's bounce kernel (a root in arc
    # length on its dense spline grid), runs a short chain on a
    # curvature-table body and stays on the boundary
    e = Ellipse(2.0, 1.0)
    s = np.linspace(0.0, e.perimeter, 513)[:-1]
    body = CurvatureTable(s, np.asarray(e.curvature_at(s)))
    traj = run_chain(body, cosine_law, 0.5, 40, stream(27, 0))
    assert len(traj) == 40
    for arc in traj.s:
        assert abs(body.gauge(body.position_at(arc))) < 1e-6
    assert np.all(traj.tau > 0.0)
    assert np.all(traj.tau <= body.diameter * (1.0 + 1e-6))


def test_chord_times_vectorised_matches_exit_ray(ellipse):
    from convexbilliards.reflection import reflect
    s0 = 2.3
    thetas = np.linspace(-1.4, 1.4, 9)
    taus = chord_times(ellipse, s0, thetas)
    pt = point_at(ellipse, s0)
    for th, tau in zip(thetas, taus):
        tau_ref, _ = ellipse.exit_ray(pt.position, reflect(pt, float(th)))
        assert abs(tau - tau_ref) < 1e-9
