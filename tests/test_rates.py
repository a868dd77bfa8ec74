import json
import math

import jsonschema
import numpy as np
import pytest

from convexbilliards import Disc, Ellipse, point_at, summarize
from convexbilliards.errors import (
    DegenerateBound,
    EmptyFeasibleSet,
    GeometryDegenerate,
    InvalidParams,
    NonPositiveAlpha,
    NonPositiveP,
)
from convexbilliards.rates import (
    CERTIFICATE_SCHEMA,
    RateCertificate,
    RateParams,
    bisector_window_geometry,
    convex_chain_rate,
    convex_process_rate,
    disc_chain_rate,
    disc_pair_profile,
    disc_process_rate,
    optimize_free_params,
    t2_density_floor,
    tail_lambda_max,
    tail_prefactor,
)

PI = math.pi


# ---------------------------------------------------------------------------
# disc chain
# ---------------------------------------------------------------------------

def test_disc_chain_case1_worked_example():
    cert = disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI))
    assert cert.constants["n0"] == 1
    assert abs(cert.constants["alpha"] - 2.0 / 3.0) < 1e-12
    # bound curve (1/3)^(n-1)
    assert abs(cert.bound(4) - (1.0 / 3.0) ** 3) < 1e-15


def test_disc_chain_case2_worked_example():
    cert = disc_chain_rate(0.5 * PI, 2.0 / PI, eps=PI / 8.0)
    assert cert.constants["n0"] == 2
    assert abs(cert.constants["alpha"] - 3.0 / 16.0) < 1e-12


def test_disc_chain_full_width_alpha_one():
    cert = disc_chain_rate(PI, 1.0 / PI)
    assert abs(cert.constants["alpha"] - 1.0) < 1e-12
    assert cert.bound(0.5) == 1.0
    assert cert.bound(2) == 0.0


def test_disc_chain_case_boundary_continuity():
    for width in (0.5 * PI + 1e-9, 0.5 * PI - 1e-9):
        eps = None if width > 0.5 * PI else 0.1
        cert = disc_chain_rate(width, 0.5, eps)
        assert 0.0 < cert.constants["alpha"] <= 1.0


def test_disc_chain_param_guards():
    with pytest.raises(InvalidParams):
        disc_chain_rate(0.4 * PI, 0.5, eps=None)
    with pytest.raises(InvalidParams):
        disc_chain_rate(0.4 * PI, 0.5, eps=2.0 * PI)
    with pytest.raises(InvalidParams):
        disc_chain_rate(1.5 * PI, 0.5)


# ---------------------------------------------------------------------------
# exponential tail helpers
# ---------------------------------------------------------------------------

def test_tail_lambda_max_synthetic_regression():
    # independent direct evaluation of the two branch formulas
    inner, outer, block = 0.5, 0.5, 4.0
    b1 = math.log(1.0 / (1.0 - inner)) / block
    disc = math.sqrt((1.0 - inner) ** 2 + 4.0 * inner * (1.0 - outer))
    s2 = (-(1.0 - inner) + disc) / (2.0 * inner * (1.0 - outer))
    b2 = math.log(s2) / block
    expected = min(b1, b2)
    got = tail_lambda_max(inner, outer, block)
    assert abs(got - expected) / expected < 1e-12
    assert abs(got - 0.05298) < 5e-6  # headline value


def test_tail_lambda_outer_one_limit():
    # as outer -> 1 the second branch reduces to the first
    assert abs(tail_lambda_max(0.5, 1.0, 4.0)
               - math.log(2.0) / 4.0) < 1e-15
    near = tail_lambda_max(0.5, 1.0 - 1e-13, 4.0)
    assert abs(near - math.log(2.0) / 4.0) < 1e-9


def test_tail_lambda_tiny_rates_stay_positive():
    lam = tail_lambda_max(1e-11, 1e-14, 8.0)
    assert 0.0 < lam < 1e-20


def test_tail_prefactor_grid_and_divergence():
    inner, outer, block, head = 0.3, 0.2, 4.0, 2.0
    lam_max = tail_lambda_max(inner, outer, block)
    grid = np.linspace(lam_max / 100.0, lam_max * (1.0 - 1e-6), 100)
    vals = [tail_prefactor(l, inner, outer, block, head) for l in grid]
    assert all(v > 0.0 and math.isfinite(v) for v in vals)
    assert vals[-1] > 1e4 * vals[0]  # diverges at the binding branch
    with pytest.raises(InvalidParams):
        tail_prefactor(lam_max * 1.01, inner, outer, block, head)


def test_tail_guards():
    with pytest.raises(DegenerateBound):
        tail_lambda_max(1.2, 0.5, 1.0)
    with pytest.raises(DegenerateBound):
        tail_lambda_max(0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# disc process
# ---------------------------------------------------------------------------

def _ac6_inputs():
    width = 0.75 * PI
    floor = 4.0 / (3.0 * PI)
    eta = 0.1 * (1.0 - 2.0 * math.cos(0.5 * width))
    eps = 0.1 * (2.0 * width - PI) / 8.0
    return width, floor, eta, eps


def test_disc_process_constants_positive():
    width, floor, eta, eps = _ac6_inputs()
    cert = disc_process_rate(1.0, width, floor, eta, eps)
    for key in ("delta", "h", "alpha", "lambda_M", "C_lambda"):
        assert cert.constants[key] > 0.0
    assert cert.constants["delta"] * cert.constants["h"] < 1.0


def test_disc_process_t2_floor_formula():
    # direct re-evaluation of the printed two-branch minimum
    r, width, floor, eta = 1.0, 0.75 * PI, 4.0 / (3.0 * PI), 0.1
    half = 0.5 * width
    branch1 = half - math.acos(math.cos(half) + eta / (2.0 * r))
    branch2 = math.acos(1.0 - eta / (2.0 * r))
    expected = 2.0 * floor ** 2 / (r * math.sin(half)) * min(branch1, branch2)
    assert abs(t2_density_floor(r, width, floor, eta) - expected) < 1e-15


def test_disc_process_alpha_matches_pair_profile():
    # the joint-stage success equals level * minimal-angle-overlap * time
    # window length; consistency of the two code paths
    width, floor, eta, eps = _ac6_inputs()
    cert = disc_process_rate(1.0, width, floor, eta, eps)
    prof = disc_pair_profile(1.0, width, floor, eps)
    min_angle_overlap = 4.0 * width - 2.0 * PI - 16.0 * eps
    alpha = prof["level"] * min_angle_overlap * (prof["t_hi"] - prof["t_lo"])
    assert abs(alpha - cert.constants["alpha"]) < 1e-12


def test_disc_pair_profile_is_tight_floor_of_joint_density():
    # analytic joint density of (landing angle, two-bounce time) on the
    # profile window, via the bounce-pair change of variables: for the
    # truncated-uniform law the density is
    #   floor^2 / (4 r cos(m) |sin(d)|),  m = angle/4, cos(d) = T/(4r cos m)
    r, width = 1.0, 0.75 * PI
    floor = 4.0 / (3.0 * PI)
    eps = 0.05
    prof = disc_pair_profile(r, width, floor, eps)
    aw = prof["angle_halfwidth"]
    angles = np.linspace(-aw, aw, 401)
    times = np.linspace(prof["t_lo"] + 1e-12, prof["t_hi"] - 1e-12, 101)
    m = angles[:, None] / 4.0
    z = times[None, :] / (4.0 * r)
    ratio = np.clip(z / np.cos(m), -1.0, 1.0)
    d = np.arccos(ratio)
    dens = floor ** 2 / (4.0 * r * np.cos(m) * np.maximum(np.sin(d), 1e-15))
    # the two angles stay inside the law's support on the whole window
    assert np.max(np.abs(m) + d) <= 0.5 * width + 1e-12
    dens_min = float(dens.min())
    assert dens_min >= prof["level"] * (1.0 - 1e-9)
    # the floor is tight: the minimum approaches the level at the corner
    assert dens_min <= prof["level"] * 1.01
    # the doubled (as-printed) level would NOT be a valid floor
    assert dens_min < 2.0 * prof["level"]


def test_t2_floor_dominated_by_quadrature_density():
    # the certified two-bounce time floor is a true lower bound of the
    # density computed by independent quadrature over the first angle
    from scipy.integrate import quad
    r, width = 1.0, 0.75 * PI
    floor = 4.0 / (3.0 * PI)
    law_half = 0.5 * width

    def t2_density(t):
        # integrate over the first angle; the law is uniform on its support
        def integrand(u):
            z = t / (2.0 * r) - math.cos(u)
            if not (math.cos(law_half) < z < 1.0):
                return 0.0
            return floor * 2.0 * floor / math.sqrt(1.0 - z * z)

        # the integrand has inverse-square-root points where z reaches one
        pts = []
        if math.cos(law_half) <= t / (2.0 * r) - 1.0 <= 1.0:
            u_star = math.acos(t / (2.0 * r) - 1.0)
            pts = [-u_star, u_star]
        import warnings
        from scipy.integrate import IntegrationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(integrand, -law_half, law_half, limit=400,
                          points=pts or None)
        return val

    for frac in (0.65, 0.8):
        eta = frac * 2.0 * r * (1.0 - math.cos(law_half))
        delta = t2_density_floor(r, width, floor, eta)
        lo = 4.0 * r * math.cos(law_half) + eta
        hi = 4.0 * r - eta
        for t in np.linspace(lo, hi, 9):
            assert t2_density(float(t)) >= delta * (1.0 - 1e-6)


def test_disc_process_param_guards():
    width, floor, eta, eps = _ac6_inputs()
    with pytest.raises(InvalidParams):
        disc_process_rate(1.0, 0.6 * PI, floor, eta, eps)  # width too small
    with pytest.raises(InvalidParams):
        disc_process_rate(1.0, width, floor, 10.0, eps)
    with pytest.raises(InvalidParams):
        disc_process_rate(1.0, width, floor, eta, 1.0)


# ---------------------------------------------------------------------------
# convex chain
# ---------------------------------------------------------------------------

def test_convex_chain_disc_worked_example():
    cert = convex_chain_rate(summarize(Disc(1.0)), 0.5 * PI, 1.0 / PI)
    q_min = cert.constants["q_min"]
    assert abs(q_min - math.sqrt(2.0) / (4.0 * PI)) < 1e-12
    # width pi/2 exceeds C * perimeter / 8 = pi/4: single-bounce case
    assert cert.constants["n0"] == 1
    assert abs(cert.constants["alpha"] - 2.0 * PI * q_min) < 1e-12


def test_convex_chain_ellipse_uses_geometry(ellipse):
    cert = convex_chain_rate(summarize(ellipse), 0.5 * PI, 1.0 / PI, eps=0.5)
    assert cert.inputs["c"] == pytest.approx(0.25, abs=1e-9)
    assert cert.inputs["C"] == pytest.approx(2.0, abs=1e-9)
    assert cert.constants["n0"] >= 2
    assert 0.0 < cert.constants["alpha"] <= 1.0


def test_convex_chain_full_width_rejected(ellipse):
    with pytest.raises(NonPositiveAlpha):
        convex_chain_rate(summarize(ellipse), PI, 1.0 / PI)


def test_convex_vs_disc_alpha_comparison():
    # the printed single-bounce reach doubles the disc's landing arc; with
    # the geometrically exact reach (half of it) the convex certificate is
    # coarser than the disc one wherever both apply.  the printed constant
    # can exceed the disc alpha, which this test documents.
    summary = summarize(Disc(1.0))
    floor = 1.0 / PI
    saw_printed_excess = False
    for width in np.linspace(0.55 * PI, 0.95 * PI, 9):
        alpha_disc = disc_chain_rate(width, floor).constants["alpha"]
        alpha_printed = convex_chain_rate(summary, width,
                                          floor).constants["alpha"]
        # reach-corrected variant: landing arc 2*width/C instead of 4*width/C
        q_min = floor * math.cos(0.5 * width) / 2.0
        alpha_corrected = q_min * (4.0 * width - 2.0 * PI)
        assert alpha_corrected <= alpha_disc + 1e-12
        if alpha_printed > alpha_disc:
            saw_printed_excess = True
    assert saw_printed_excess


# ---------------------------------------------------------------------------
# bisector windows
# ---------------------------------------------------------------------------

def _ellipse_params():
    return RateParams(eps=5e-4, beta=1.5, delta=1.2, zeta=0.1)


def test_bisector_windows_disc_symmetric_pair(disc):
    params = RateParams(eps=1e-3, beta=1.0, delta=1.0, zeta=0.4)
    x = point_at(disc, 0.5)
    xt = point_at(disc, -0.5)
    win = bisector_window_geometry(disc, x, xt, params)
    # the far bisector point is the antipode of the chord midpoint arc
    assert abs(abs(math.remainder(win.s_ybar - PI, 2.0 * PI))) < 1e-6
    # stationary landing coordinates symmetric about the bisector
    d1 = math.remainder(win.t_z_x - win.s_ybar, 2.0 * PI)
    d2 = math.remainder(win.t_z_xt - win.s_ybar, 2.0 * PI)
    assert abs(d1 + d2) < 1e-5
    assert win.R2 - win.R1 >= win.h * params.eps - 1e-12
    assert win.grad_min >= win.h - 1e-9


def test_bisector_windows_antipodal_perturbs(disc):
    params = RateParams(eps=1e-3, beta=1.0, delta=1.0)
    x = point_at(disc, 0.0)
    xt = point_at(disc, PI)  # exactly equidistant intersections
    win = bisector_window_geometry(disc, x, xt, params)
    assert win.R2 > win.R1  # perturbation rule produced a valid window


def test_bisector_windows_ellipse_pipeline(ellipse):
    params = _ellipse_params()
    x = point_at(ellipse, 0.0)                      # (2, 0)
    xt = point_at(ellipse, 0.25 * ellipse.perimeter)  # (0, 1)
    win = bisector_window_geometry(ellipse, x, xt, params)
    assert win.r1 < win.r2
    assert win.rt1 < win.rt2
    assert win.R2 - win.R1 >= win.h * params.eps - 1e-12
    assert win.grad_min >= win.h - 1e-9
    assert win.I_star[1] - win.I_star[0] == pytest.approx(
        0.5 * win.h * params.eps)


def _window_pairs(body, n_random, seed):
    """Random boundary pairs, then pairs 3e-9 D to 1e-2 D apart in arc."""
    gen = np.random.default_rng(seed)
    pairs = list(gen.random((n_random, 2)) * body.perimeter)
    for sep in np.geomspace(3e-9, 1e-2, 12) * body.diameter:
        a = gen.random() * body.perimeter
        pairs += [(a, a + sep), (a + sep, a)]
    return pairs


@pytest.mark.parametrize("name", ["disc", "ellipse-1.1", "ellipse-2",
                                  "table"])
def test_bisector_windows_defining_properties(name, curvature_table):
    # y_bar is equidistant from the starts, it is the farther of the
    # bisector's two boundary points (found here from the sign changes of
    # the distance gap on a fine grid), and each stationary landing zeroes
    # the path time's derivative in the first landing; close pairs, whose
    # chord midpoint lies within tol_geom of the boundary, get windows too
    from convexbilliards.rates import _path_time_dds
    body, params = {
        "disc": (Disc(1.0), RateParams(eps=5e-4, beta=0.6, delta=0.4)),
        "ellipse-1.1": (Ellipse(1.1, 1.0),
                        RateParams(eps=5e-4, beta=0.6, delta=0.4)),
        "ellipse-2": (Ellipse(2.0, 1.0), _ellipse_params()),
        "table": (curvature_table("ellipse-2"), _ellipse_params()),
    }[name]
    P, D = body.perimeter, body.diameter
    grid = (np.arange(1 << 16) + 0.5) * (P / (1 << 16))
    g = body.position_at(grid)
    for a, b in _window_pairs(body, 100, seed=27):
        x, xt = point_at(body, a), point_at(body, b)
        win = bisector_window_geometry(body, x, xt, params)
        y = body.position_at(win.s_ybar)
        assert abs(np.hypot(*(y - x.position))
                   - np.hypot(*(y - xt.position))) <= 1e-14 * D
        gap = (np.hypot(*(g - x.position).T)
               - np.hypot(*(g - xt.position).T))
        cells = np.flatnonzero(np.sign(gap) != np.sign(np.roll(gap, -1)))
        far = cells[np.argmax(np.hypot(*(g[cells] - x.position).T))]
        assert abs(math.remainder(win.s_ybar - grid[far], P)) <= P / (1 << 15)
        for w, t_z in ((x, win.t_z_x), (xt, win.t_z_xt)):
            assert abs(float(_path_time_dds(body, w.position, win.s_ybar,
                                            t_z))) <= 1e-13


def test_bisector_windows_param_guards(ellipse):
    x = point_at(ellipse, 0.0)
    xt = point_at(ellipse, 3.0)
    with pytest.raises(InvalidParams):
        bisector_window_geometry(ellipse, x, xt,
                                 RateParams(eps=1e-3, beta=3.0, delta=3.0))
    with pytest.raises(InvalidParams):
        bisector_window_geometry(ellipse, x, xt,
                                 RateParams(eps=0.6, beta=1.5, delta=1.2))
    with pytest.raises(InvalidParams):  # eps too large for h > 0
        bisector_window_geometry(ellipse, x, xt,
                                 RateParams(eps=0.4, beta=1.5, delta=1.2))


# ---------------------------------------------------------------------------
# convex process
# ---------------------------------------------------------------------------

def test_convex_process_disc_block_search():
    disc = Disc(1.0)
    params = RateParams(eps=1e-3, beta=1.0, delta=1.0, zeta=0.5)
    x = point_at(disc, 0.5)
    xt = point_at(disc, 2.8)
    cert = convex_process_rate(disc, 1.0 / PI, params, x, xt)
    assert cert.constants["n0"] == 2
    expected_p = (1.0 / PI) ** 2 * 0.5 * (4.0 - 1.0 - 2.0)
    assert abs(cert.constants["p"] - expected_p) < 1e-12
    assert cert.constants["lambda_M"] > 0.0
    assert any("block-count" in w for w in cert.warnings)


def test_convex_process_zeta_guards():
    disc = Disc(1.0)
    params = RateParams(eps=1e-3, beta=1.0, delta=1.0, zeta=1e-12)
    x, xt = point_at(disc, 0.5), point_at(disc, 2.8)
    with pytest.raises(NonPositiveP):
        convex_process_rate(disc, 1.0 / PI, params, x, xt)
    with pytest.raises(InvalidParams):
        convex_process_rate(disc, 1.0 / PI,
                            RateParams(eps=1e-3, beta=1.0, delta=1.0,
                                       zeta=2.0), x, xt)


def test_convex_process_ellipse_full_pipeline(ellipse):
    params = _ellipse_params()
    x = point_at(ellipse, 0.15 * ellipse.perimeter)
    xt = point_at(ellipse, 0.55 * ellipse.perimeter)
    cert = convex_process_rate(ellipse, 1.0 / PI, params, x, xt)
    ck = cert.constants
    assert ck["n0"] == 5
    assert 0.0 < ck["p"] < 1.0
    assert 0.0 < ck["kappa"] < 1.0
    assert ck["lambda_M"] > 0.0
    assert any("two-bounce block" in w for w in cert.warnings)
    # prefactor is finite on a grid strictly inside (0, lambda_M)
    for lam in np.linspace(ck["lambda_M"] / 50, 0.9 * ck["lambda_M"], 25):
        assert math.isfinite(cert.prefactor_at(float(lam)))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimizer_single_point_grid():
    params, cert = optimize_free_params(
        "disc_chain", {"width": 0.5 * PI, "floor": 2.0 / PI},
        {"eps": [PI / 8.0]})
    assert params.eps == PI / 8.0
    assert abs(cert.constants["alpha"] - 3.0 / 16.0) < 1e-12


def test_optimizer_beats_midpoint_choice():
    fixed = {"width": 0.5 * PI, "floor": 2.0 / PI}
    mid = disc_chain_rate(0.5 * PI, 2.0 / PI, eps=0.25 * PI)
    score_mid = mid.constants["alpha"] ** (1.0 / mid.constants["n0"])
    grid = list(np.linspace(0.01, 1.5, 60)) + [0.25 * PI]
    _, cert = optimize_free_params("disc_chain", fixed, {"eps": grid})
    score = cert.constants["alpha"] ** (1.0 / cert.constants["n0"])
    assert score >= score_mid - 1e-12


def test_optimizer_monotone_in_grid_refinement():
    fixed = {"r": 1.0, "width": 0.75 * PI, "floor": 4.0 / (3.0 * PI)}
    coarse = {"eta": (0.02, 0.2, 4), "eps": (0.01, 0.18, 4)}
    fine = {"eta": (0.02, 0.2, 7), "eps": (0.01, 0.18, 7)}  # superset grid
    _, c1 = optimize_free_params("disc_process", fixed, coarse)
    _, c2 = optimize_free_params("disc_process", fixed, fine)
    assert c2.constants["lambda_M"] >= c1.constants["lambda_M"] - 1e-18


def test_optimizer_empty_feasible_set():
    with pytest.raises(EmptyFeasibleSet):
        optimize_free_params("disc_chain",
                             {"width": 0.5 * PI, "floor": 2.0 / PI},
                             {"eps": [10.0, 20.0]})


def test_optimizer_grid_size_guard():
    with pytest.raises(InvalidParams):
        optimize_free_params("disc_process", {"r": 1, "width": 2.5,
                                              "floor": 0.4},
                             {"eta": (0.01, 0.1, 2000),
                              "eps": (0.01, 0.1, 2000)})


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_certificate_roundtrip_and_schema():
    width, floor, eta, eps = _ac6_inputs()
    for cert in (disc_chain_rate(0.75 * PI, 4.0 / (3.0 * PI)),
                 disc_process_rate(1.0, width, floor, eta, eps)):
        data = cert.to_json_dict()
        jsonschema.validate(data, CERTIFICATE_SCHEMA)
        clone = RateCertificate.from_json_dict(json.loads(json.dumps(data)))
        grid = np.linspace(0.0, 20.0, 7)
        assert np.allclose(clone.bound(grid), cert.bound(grid), rtol=1e-15)
        assert len(data["bound_curve"]) == 256
        ys = [p[1] for p in data["bound_curve"]]
        assert all(y1 >= y2 - 1e-15 for y1, y2 in zip(ys, ys[1:]))
