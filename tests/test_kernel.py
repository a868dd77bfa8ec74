"""The bounce kernel of every body against its scalar references.

``ConvexBody.bounce`` (vectorised, native coordinates) must reproduce the
scalar ``exit_ray`` (a cartesian solve from the origin's position; on the
table a scan of the ray's line over the dense nodes), and its
multi-bounce ``walk`` must be a chain of ``bounce`` calls, flight times
included; on the ellipse up to rounding, its closed-form chord matching the
turned normal and the general quadratic.  On every body an untimed walk
must land where a timed one does, bit for bit, and a table walk or bounce
from outside [0, perimeter) as from its wrapped arc length.  The
half-angle turn of the convex process's chord inversions must match cos
and sin.  The table's
chord must land no farther from a long-double root of the same cubic than
it did before its solve went to real polynomials, and more Newton steps
must move it by an ulp at most.  ``landing_density`` must be the density of
the kernel's landing: times the Jacobian |ds'/dtheta| of the landing map it
gives back the reflection law.  The exact cell kernel ``cell_kernel`` must
be stochastic, match the disc's closed form and quadrature of the
transition density, and give a fine table the chain law of its ellipse.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from convexbilliards import CurvatureTable, Disc, Ellipse, ReflectionLaw
from convexbilliards.dynamics import (TANGENCY_GUARD, cell_kernel,
                                      disc_step_exact, guarded_angles,
                                      landing_density, transition_density,
                                      transition_density_row)
from convexbilliards.geometry import _horner, _horner_d, _mod_two_pi, _turn
from convexbilliards.reflection import reflect

# Tolerances on landing arc and flight time.  The table's bounce is a
# fixed-iteration root on its dense x, y splines; its exit_ray finds the
# ray's line's crossings of the same splines by a scan of their nodes and
# quadratic-model steps on each crossed cell's cubic (measured worst gap over
# the 40 x 16 draws: 1.3e-15 in flight time, 8.9e-16 in arc); the closed
# forms agree to rounding.
TOL = {"disc": 1e-12, "ellipse": 1e-9, "table": 1e-9}
# Relative tolerance of the Jacobian identity with central differences of
# step 1e-5 (measured worst cases over 2000 draws: 5e-11 on the disc, 7e-10
# on the ellipse, 2e-6 on the table, whose frame normal and the tangent of
# its x, y splines differ by up to 3e-7 rad).
JAC_RTOL = {"disc": 1e-8, "ellipse": 1e-7, "table": 1e-4}


@functools.lru_cache(maxsize=None)
def _body(name):
    if name == "disc":
        return Disc(1.3)
    e = Ellipse(2.0, 1.0)
    if name == "ellipse":
        return e
    # a table from the ellipse's curvature sampled from s = 0 shares the
    # ellipse's arc origin
    n = 1024 if name == "table1024" else 256
    s = np.arange(n) * (e.perimeter / n)
    return CurvatureTable(s, e.curvature_at(s))


def _arc_gap(a, b, period):
    d = np.abs(np.mod(a - b, period))
    return np.minimum(d, period - d)


def _draws(max_size):
    return st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                              st.floats(-1.45, 1.45)),
                    min_size=1, max_size=max_size)


@pytest.mark.parametrize("name,examples,size", [("disc", 40, 16),
                                                ("ellipse", 40, 16),
                                                ("table", 40, 16)])
def test_bounce_matches_exit_ray(name, examples, size):
    # the table's two solves share its x, y splines and nothing else;
    # test_table_chord_matches_long_double_root and the Ellipse comparisons
    # check the splines
    body = _body(name)

    @settings(max_examples=examples, deadline=None)
    @given(_draws(size))
    def check(pairs):
        s = np.array([p[0] for p in pairs]) * body.perimeter
        theta = np.array([p[1] for p in pairs])
        u = body.to_native(s)
        landed, tau = body.bounce(u, theta)
        landing = body.to_arc(landed)
        for k in range(s.size):
            if name == "table":
                # fixed iteration counts: a chord's bits do not depend on
                # its batch
                alone = body.bounce(u[k], theta[k])
                assert alone[0] == landed[k] and alone[1] == tau[k]
            pt = body.point_at(s[k])
            tau_ref, hit = body.exit_ray(pt.position, reflect(pt, theta[k]))
            assert abs(tau[k] - tau_ref) < TOL[name]
            assert _arc_gap(landing[k], hit.s, body.perimeter) < TOL[name]

    check()


@pytest.mark.parametrize("name,examples,size", [("disc", 30, 16),
                                                ("ellipse", 30, 16),
                                                ("table", 30, 16)])
def test_landing_density_jacobian(name, examples, size):
    body = _body(name)
    law = ReflectionLaw.cosine()
    h = 1e-5

    @settings(max_examples=examples, deadline=None)
    @given(_draws(size))
    def check(pairs):
        s = np.array([p[0] for p in pairs]) * body.perimeter
        theta = np.array([p[1] for p in pairs])
        u = body.to_native(s)
        landed = body.bounce(u, theta)[0]
        up = body.to_arc(body.bounce(u, theta + h)[0])
        down = body.to_arc(body.bounce(u, theta - h)[0])
        ds = np.mod(up - down + 0.5 * body.perimeter, body.perimeter) \
            - 0.5 * body.perimeter
        dens = landing_density(body, law, body.frame(u), body.frame(landed))
        np.testing.assert_allclose(dens * np.abs(ds / (2.0 * h)),
                                   law.density(theta), rtol=JAC_RTOL[name])

    check()


def test_table_grazing_exit_matches_ellipse():
    # Table from 1024 curvature samples: the chords agree with the ellipse
    # to 1e-6 relative away from grazing; at 1e-3 rad from tangency the
    # chord's sensitivity to the reconstructed normal (1/cos(theta)) leaves
    # 2e-4.  The table's own scalar reference agrees to TOL["table"].
    e, table = _body("ellipse"), _body("table1024")
    s0 = e.perimeter / 24.0
    for theta, rtol in ((1.569, 1e-3), (-1.569, 1e-3), (1.2, 1e-6),
                        (-0.4, 1e-6)):
        tau_e = float(e.bounce(e.to_native(s0), theta)[1])
        tau_t = float(table.bounce(s0, theta)[1])
        pt = table.point_at(s0)
        tau_ray = table.exit_ray(pt.position, reflect(pt, theta))[0]
        assert tau_t == pytest.approx(tau_e, rel=rtol)
        assert abs(tau_ray - tau_t) < TOL["table"]


@pytest.mark.parametrize("kind", ["ellipse-2", "ellipse-3-0.5"])
def test_table_exit_ray_grazing_chords(kind, curvature_table):
    # Grazing rays: a launch from a boundary point within 1e-2 to 1e-7 rad
    # of tangency, whose chord is as short as 1e-7 and then lies inside one
    # dense cell, and a ray from 1e-7 inside the boundary along its
    # tangent.  exit_ray must match the arc-length chord of bounce; the
    # cartesian origin's rounding off the curve moves a chord 1e-7 long by
    # up to 2e-9 of the diameter (1e-7 and more at the parent, which also
    # raised TangentRay on some of these rays).
    body = curvature_table(kind)
    for s0 in np.linspace(0.0, body.perimeter, 13)[:-1] + 0.05:
        pt = body.point_at(s0)
        for k in range(2, 8):
            for theta in (0.5 * np.pi - 10.0 ** -k, 10.0 ** -k - 0.5 * np.pi):
                tau_ref = float(body.bounce(s0, theta)[1])
                tau = body.exit_ray(pt.position, reflect(pt, theta))[0]
                assert abs(tau - tau_ref) < 1e-8 * body.diameter
        origin = pt.position + 1e-7 * pt.normal
        tau, hit = body.exit_ray(origin, pt.tangent)
        assert abs(tau - np.sqrt(2e-7 / body.curvature_at(s0))) < 1e-5
        assert np.hypot(*(origin + tau * pt.tangent
                          - body.position_at(hit.s))) < 1e-9


@pytest.mark.parametrize("eps", [1e-9, 1e-7])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_table_bounce_at_tangency_guard(eps, sign):
    # eps = 1e-9 is the tangency guard's own clip.  The table's normal and
    # the tangent of its x, y splines differ by up to 3e-7 rad, so such a
    # ray may even point out of the splines' curve; the kernel still lands
    # it within a grazing distance of its origin (measured worst tau: 8.2e-7
    # at eps 1e-7, 4.3e-7 at 1e-9).
    table = _body("table1024")
    s = (np.arange(400) + 0.37) * (table.perimeter / 400)
    landing, tau = table.bounce(s, np.full(s.size, sign * (0.5 * np.pi - eps)))
    assert np.all(np.isfinite(tau))
    assert np.all((tau > 0.0) & (tau <= 1e-5))
    assert np.all(_arc_gap(landing, s, table.perimeter) <= 2.0 * tau)


# ---------------------------------------------------------------------------
# the table chord against an extended-precision root
# ---------------------------------------------------------------------------

STRESS_TABLES = ("ellipse-2", "ellipse-1.1", "3-fold", "4-fold",
                 "ellipse-3-0.5")


def _stress_chords(body, n=5000):
    """Starts uniform on the boundary, n launch angles uniform on
    [-1.5, 1.5] and n near tangency: +-(pi/2 - eps), eps log-uniform from
    the tangency guard to pi/2 - 1.5."""
    gen = np.random.default_rng(85)
    s = gen.uniform(0.0, body.perimeter, 2 * n)
    eps = 10.0 ** gen.uniform(np.log10(TANGENCY_GUARD),
                              np.log10(0.5 * np.pi - 1.5), n)
    near = np.where(gen.random(n) < 0.5, -1.0, 1.0) * (0.5 * np.pi - eps)
    return s, np.concatenate([gen.uniform(-1.5, 1.5, n), near])


def _long_double_gap(body, s, theta, landing):
    """|landing - root| / perimeter of the chords whose root lies in the
    cell of their landing, and the number of the others.

    The root solves Re((P(sigma) - o) w) = 0 in np.longdouble on the
    table's own spline coefficients, with w = conj(P'(s)) exp(-i theta)
    from long-double cos and sin: on the cubic of the landing's cell, or,
    for a landing within a cell of its origin, on the divided difference
    (P(sigma) - o) / (sigma - s) of the origin cell's cubic, as the
    kernel's short chords solve it.  Bisection runs to convergence."""
    LD = np.longdouble
    knots = body._s_dense
    N = knots.size - 1
    P = LD(body.perimeter)
    X, Y = body._x.c.astype(LD), body._y.c.astype(LD)
    j0, ts = body._dense.cell(s)
    ts = ts.astype(LD)
    cx, cy = X[:, j0], Y[:, j0]
    ox, oy = _horner(cx, ts), _horner(cy, ts)
    dx, dy = _horner_d(cx, ts), _horner_d(cy, ts)
    C, S = np.cos(theta.astype(LD)), np.sin(theta.astype(LD))
    wr, wi = dx * C - dy * S, -(dx * S + dy * C)
    j, _ = body._dense.cell(landing)
    short = np.isin((j - j0) % N, (0, 1, N - 1))
    # the landing cell in offsets into the origin's cell (short chords) or
    # into itself
    lo = knots[j].astype(LD) - knots[j0]
    lo = np.where(short, lo - P * np.round(lo / P), 0)
    hi = lo + (knots[j + 1] - knots[j])
    jx, jy = X[:, j], Y[:, j]

    def f(t):
        q = t * t + t * ts + ts * ts
        divided = ((cx[0] * q + cx[1] * (t + ts) + cx[2]) * wr
                   - (cy[0] * q + cy[1] * (t + ts) + cy[2]) * wi)
        g = (_horner(jx, t) - ox) * wr - (_horner(jy, t) - oy) * wi
        return np.where(short, divided, g)

    f_lo = f(lo)
    bracketed = np.sign(f_lo) * np.sign(f(hi)) <= 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        up = np.sign(f_mid) == np.sign(f_lo)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        f_lo = np.where(up, f_mid, f_lo)
    t = 0.5 * (lo + hi)
    root = np.where(short, s + (t - ts), knots[j] + t)
    gap = np.abs(np.mod(landing - root, P))
    gap = np.minimum(gap, P - gap) / P
    return gap[bracketed].astype(float), int(np.count_nonzero(~bracketed))


# Median and 99.9th percentile of the gaps on each table's 10 000 chords,
# measured on the kernel before its chord went to real polynomials (a
# normalised launch direction, g on complex points, five Newton steps) and
# rounded up; no chord was left out on any table.  The real-polynomial
# kernel measured 2.35e-17 and 1.75e-14 on ellipse-2, 2.26e-17 and
# 2.19e-14 on ellipse-3-0.5.
PARENT_GAP = {"ellipse-2": (2.55e-17, 2.63e-14),
              "ellipse-1.1": (2.61e-17, 2.32e-14),
              "3-fold": (2.64e-17, 3.29e-14),
              "4-fold": (2.81e-17, 2.67e-14),
              "ellipse-3-0.5": (2.41e-17, 3.48e-14)}


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("kind", STRESS_TABLES)
def test_table_chord_matches_long_double_root(kind, curvature_table):
    body = curvature_table(kind)
    s, theta = _stress_chords(body)
    gap, left_out = _long_double_gap(body, s, theta, body.bounce(s, theta)[0])
    assert left_out == 0
    median, p999 = PARENT_GAP[kind]
    assert np.median(gap) <= median
    assert np.quantile(gap, 0.999) <= p999


@pytest.mark.parametrize("kind", STRESS_TABLES)
def test_table_newton_steps_are_enough(kind, curvature_table, monkeypatch):
    # Three more Newton steps move no landing by more than an ulp.  Float
    # Newton iterates may end in a two-cycle of adjacent values, or reach it
    # a step late, and either moves a landing's last bit where it straddles
    # a rounding boundary: 1 to 3 landings of each table's 10 000.  Three is
    # the smallest such count: with two, some landings move by 27 to 1.6e7
    # ulps.
    body = curvature_table(kind)
    s, theta = _stress_chords(body)
    steps = CurvatureTable._NEWTON
    land = {}
    for n in (steps, steps + 3):
        monkeypatch.setattr(CurvatureTable, "_NEWTON", n)
        land[n] = body.bounce(s, theta)[0]
    moved = np.abs(land[steps + 3] - land[steps])
    assert np.all(moved <= np.spacing(land[steps]))
    assert np.count_nonzero(moved) <= 10


def test_ellipse_landing_reduction_is_mod_two_pi():
    # Ellipse.bounce reduces the landing angle from arctan2 with
    # _mod_two_pi; on arctan2's whole range [-pi, pi], -0.0, +-pi and the
    # tiny negatives that round to 2 pi included, its bits are np.mod's
    gen = np.random.default_rng(16)
    y, x = gen.standard_normal((2, 1_000_000))
    pi = np.pi
    t = np.concatenate([
        np.arctan2(y, x), np.linspace(-pi, pi, 1_000_001),
        np.arctan2([0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300],
                   [1.0, 1.0, -1.0, -1.0, -1.0, -1.0]),
        [-pi, pi, np.nextafter(-pi, 0.0), np.nextafter(pi, 0.0), -5e-324,
         -1e-300, -1e-17, -4e-16, -8.9e-16, 5e-324]])
    assert t.min() >= -pi and t.max() <= pi
    assert np.array_equal(_mod_two_pi(t).view(np.uint64),
                          np.mod(t, 2.0 * pi).view(np.uint64))


def test_turn_matches_cos_and_sin():
    # _turn rotates by the half-angle tangent; against np.cos and np.sin on
    # a dense grid over |theta| <= 3, with the guarded extremes (measured
    # worst on 2e6 angles: 4.4e-16 off the reference rotation, 4.4e-16 off
    # unit length)
    lim = 0.5 * np.pi - TANGENCY_GUARD
    grid = np.linspace(-3.0, 3.0, 2_000_001)
    extra = np.array([lim, -lim, 0.0, -0.0, 5e-324, -5e-324, 3.0, -3.0])
    gen = np.random.default_rng(20)
    for theta in (*np.array_split(grid, 8), extra):
        phi = gen.uniform(0.0, 2.0 * np.pi, theta.size)
        nx, ny = np.cos(phi), np.sin(phi)
        ex, ey = _turn(nx, ny, theta)
        c, s = np.cos(theta), np.sin(theta)
        assert np.abs(ex - (c * nx - s * ny)).max() <= 1e-15
        assert np.abs(ey - (s * nx + c * ny)).max() <= 1e-15
        assert np.abs(np.hypot(ex, ey) - 1.0).max() <= 1e-15
    # signed zeros come out as the reference rotation's: sin(-0.0) = -0.0
    for theta in (0.0, -0.0):
        for nx, ny in ((1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0),
                       (0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0)):
            c, s = np.cos(theta), np.sin(theta)
            assert np.array_equal(np.signbit(_turn(nx, ny, theta)),
                                  np.signbit((c * nx - s * ny,
                                              s * nx + c * ny)))


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 0.5), (1.1, 1.0)])
def test_ellipse_circle_root_is_the_general_root(a, b):
    # Ellipse._chord takes the unit circle's second root in closed form,
    # with o . u = -c (p ct^2 + q st^2), which assumes its origin o on the
    # circle; the reference solves the general quadratic from the same
    # origins (cos t, sin t) along the unit normal turned by cos and sin.
    # That root's square root multiplies the origin's off-circle rounding,
    # about 1e-16, by 1 / |o . u|, so the comparison keeps to
    # |theta| <= 1.5 (measured worst on 1e6 chords, seeds 21 to 25:
    # 1.2e-15 of the diameter in flight time and in landing; up to the
    # guarded extremes the general root moves by up to 5e-12)
    e = Ellipse(a, b)
    gen = np.random.default_rng(21)
    t = gen.uniform(0.0, 2.0 * np.pi, 200_000)
    theta = np.concatenate([gen.uniform(-1.5, 1.5, t.size - 1001),
                            np.linspace(-1.5, 1.5, 1001)])
    ct, st = np.cos(t), np.sin(t)
    land, (cx, cy), tau = e._chord((ct, st), theta, True)
    c, s = np.cos(theta), np.sin(theta)
    nx, ny = e._normal(ct, st)
    dx, dy = c * nx - s * ny, s * nx + c * ny
    # the general quadratic |o + tau u|^2 = 1, u = (dx / a, dy / b)
    ux, uy = dx / a, dy / b
    A, B = ux * ux + uy * uy, ct * ux + st * uy
    C0 = ct * ct + st * st - 1.0
    ref = (-B + np.sqrt(np.maximum(B * B - A * C0, 0.0))) / A
    assert np.abs(tau - ref).max() <= 1e-12 * e.diameter
    # the landing, on the ellipse, and its parameter angle
    gap = np.hypot(a * (cx - (ct + ref * dx / a)),
                   b * (cy - (st + ref * dy / b)))
    assert gap.max() <= 1e-12 * e.diameter
    assert np.array_equal(land, _mod_two_pi(np.arctan2(cy, cx)))


def _walk_angles(seed, steps, n):
    # uniform_half angles through the tangency guard; the first step also
    # launches at both guarded extremes
    theta = guarded_angles(ReflectionLaw.uniform_half(),
                           np.random.default_rng(seed), (steps, n))
    lim = 0.5 * np.pi - TANGENCY_GUARD
    theta[0, :2] = lim, -lim
    return theta


@pytest.mark.parametrize("name", ["disc", "table"])
def test_walk_is_a_loop_of_bounce(name):
    # where the state is the native coordinate, a walk is bit for bit a
    # chain of bounce calls, from a scalar start that the first bounce
    # broadcasts
    body = Disc(1.0) if name == "disc" else _body(name)
    theta = _walk_angles(17, 6, 3000)
    u0 = body.to_native(0.3 * body.perimeter)
    tau = np.empty(theta.shape)
    u = u0
    for k, w in enumerate(body.walk(u0, theta, tau)):
        u, t = body.bounce(u, theta[k])
        assert np.array_equal(w, u) and np.array_equal(tau[k], t)
    assert k == 5


@pytest.mark.parametrize("name", ["disc", "ellipse", "table"])
def test_untimed_walk_lands_as_timed(name):
    # a walk asked for no flight times computes none, and its landings are
    # those of the timed walk, bit for bit
    body = _body(name)
    theta = _walk_angles(23, 12, 3000)
    u0 = body.to_native(0.3 * body.perimeter)
    tau = np.empty(theta.shape)
    timed = list(body.walk(u0, theta, tau))
    untimed = list(body.walk(u0, theta))
    assert len(timed) == len(untimed) == 12
    for w, u in zip(untimed, timed):
        assert np.array_equal(w, u)


@pytest.mark.parametrize("frac", [-0.3, -0.0, 1.0, 1.7])
def test_table_start_wraps_once(frac):
    # a table walk and bounce from an arc length outside [0, perimeter)
    # give the bits of the same calls from the wrapped arc length
    body = _body("table")
    s0 = frac * body.perimeter
    wrapped = float(body.wrap(s0))
    assert 0.0 <= wrapped < body.perimeter
    theta = _walk_angles(24, 5, 2000)
    for a, b in zip(body.bounce(s0, theta[0]),
                    body.bounce(wrapped, theta[0])):
        assert np.array_equal(a, b)
    tau, tau_w = np.empty(theta.shape), np.empty(theta.shape)
    for w, v in zip(body.walk(s0, theta, tau),
                    body.walk(wrapped, theta, tau_w)):
        assert np.array_equal(w, v)
    assert np.array_equal(tau, tau_w)


@pytest.mark.parametrize("name", ["disc", "ellipse", "table"])
def test_walk_first_flight_time_is_bounce(name):
    # a walk's first bounce is bounce's, flight time included, bit for bit;
    # on a batch and on a scalar chain
    body = _body(name)
    theta = _walk_angles(26, 3, 5000)
    for u, th in ((body.to_native(0.3 * body.perimeter), theta),
                  (body.to_native(1.1), theta[:, 7])):
        tau = np.empty(th.shape)
        first = next(body.walk(u, th, tau))
        land, t = body.bounce(u, th[0])
        assert np.array_equal(first, land)
        assert np.array_equal(tau[0], t)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 0.5)])
def test_ellipse_walk_differs_from_bounce_by_rounding(a, b):
    # The walk carries the unit-circle landing instead of cos and sin of
    # its parameter angle.  Its first bounce is bounce's, bit for bit.
    # Every later bounce is compared with bounce from the walk's own last
    # landing (measured worst gaps on 1e5 chains x 12 steps, seeds 18 to
    # 21: 7.7e-15 of the perimeter, 1.6e-14 of the diameter).  The guarded
    # extremes launch at step 1 only: from a start moved by one ulp such a
    # chord's time moved by about 3e-8 with the general quadratic's root,
    # and moves by about 1e-15 with the circle root.
    e = Ellipse(a, b)
    P, D = e.perimeter, e.diameter
    theta = _walk_angles(18, 12, 100_000)
    u = e.to_native(0.3 * P)
    chain = u
    taus = np.empty(theta.shape)
    for k, w in enumerate(e.walk(u, theta, taus)):
        tau = taus[k]
        ref, t = e.bounce(u, theta[k])
        if k == 0:
            assert np.array_equal(w, ref) and np.array_equal(tau, t)
        assert _arc_gap(e.to_arc(w), e.to_arc(ref), P).max() <= 1e-9 * P
        assert np.abs(tau - t).max() <= 1e-9 * D
        if (a, b) == (2.0, 1.0):
            chain, t_chain = e.bounce(chain, theta[k])
            # against a whole chain of bounce calls (measured worst gaps,
            # seeds 18 to 21: 1.1e-10 in arc, 9.2e-11 in time).
            # Ellipse(3, 0.5) itself amplifies rounding: a chain of bounce
            # calls nudged by one ulp per step drifted by up to 2.8e-9 in
            # 12 steps, and the walk from the chain by up to 2.1e-9
            assert _arc_gap(e.to_arc(w), e.to_arc(chain), P).max() <= 1e-9 * P
            assert np.abs(tau - t_chain).max() <= 1e-9 * D
        u = w


def test_ellipse_walk_on_the_circle_is_the_disc_recursion():
    # on Ellipse(1, 1) the parameter angle is the polar angle, and every
    # step of the walk follows the disc's closed-form recursion
    e = Ellipse(1.0, 1.0)
    # (measured worst over seeds 19 to 22: 4.4e-15 in angle, 2.9e-15 in
    # time)
    theta = _walk_angles(19, 12, 200)
    phi = np.full(200, 0.7)
    tau = np.empty(theta.shape)
    for k, w in enumerate(e.walk(0.7, theta, tau)):
        phi, t = np.array([disc_step_exact(1.0, p, th)
                           for p, th in zip(phi, theta[k])]).T
        assert _arc_gap(w, phi, 2.0 * np.pi).max() <= 1e-12
        assert np.abs(tau[k] - t).max() <= 1e-12


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 0.5), (1.1, 1.0)])
def test_ellipse_walk_stays_on_the_circle(a, b):
    # the circle root does not project its landing back onto the circle, so
    # the carried point's radius drifts from 1 as a random walk of rounding
    # errors (measured worst over 2e4 bounces of these 4 chains, seeds 22
    # to 25: 4.7e-14)
    e = Ellipse(a, b)
    theta = _walk_angles(22, 20_000, 4)
    cx, cy = np.cos([0.1, 1.3, 2.9, 4.4]), np.sin([0.1, 1.3, 2.9, 4.4])
    worst = 0.0
    for th in theta:
        cx, cy = e._chord((cx, cy), th, False)[1]
        worst = max(worst, np.abs(np.hypot(cx, cy) - 1.0).max())
    assert worst <= 1e-12


@pytest.mark.parametrize("law", [ReflectionLaw.cosine(),
                                 ReflectionLaw.uniform_half()],
                         ids=["cosine", "uniform_half"])
def test_table_kernel_row_matches_ellipse(law):
    # Same arc origin, so the rows compare on one arc grid.  Worst relative
    # gap measured over these launch arcs: 1.5e-6 (cosine), 1.0e-4 (uniform),
    # on targets near the launch point, where cos(landing angle) is small and
    # carries the table normal's O(h^2) error.
    e, table = _body("ellipse"), _body("table1024")
    targets = (np.arange(512) + 0.5) * (e.perimeter / 512)
    for x in np.linspace(0.0, e.perimeter, 7, endpoint=False) + 0.1:
        np.testing.assert_allclose(
            transition_density_row(table, law, table.point_at(x), targets),
            transition_density_row(e, law, e.point_at(x), targets),
            rtol=5e-4)


# ---------------------------------------------------------------------------
# the exact cell kernel
# ---------------------------------------------------------------------------

_TABLE_ANGLES = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 41)
CELL_LAWS = {
    "cosine": ReflectionLaw.cosine(),
    "uniform_half": ReflectionLaw.uniform_half(),
    "truncated_uniform": ReflectionLaw.truncated_uniform(0.75 * np.pi),
    "table": ReflectionLaw.from_table(
        _TABLE_ANGLES, 1.0 + 0.3 * np.cos(2.0 * _TABLE_ANGLES)),
}


@pytest.mark.parametrize("law", CELL_LAWS.values(), ids=CELL_LAWS.keys())
@pytest.mark.parametrize("name", ["disc", "ellipse", "table"])
def test_cell_kernel_rows_sum_to_one(name, law):
    body = Disc(1.0) if name == "disc" else _body(name)
    K = cell_kernel(body, law, 512)
    assert K.shape == (512, 512) and K.min() >= 0.0
    np.testing.assert_allclose(K.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("law", CELL_LAWS.values(), ids=CELL_LAWS.keys())
def test_cell_kernel_disc_closed_form(law):
    # on the unit disc a launch angle theta lands pi + 2 theta ccw of the
    # start, so a cell at offsets [da, db) ccw of the start holds
    # F((db - pi) / 2) - F((da - pi) / 2); the start cell, whose offsets
    # wrap past 2 pi, sums its two end pieces
    n = 512
    disc = Disc(1.0)
    ds = disc.perimeter / n
    mid = (np.arange(n) + 0.5) * ds
    da = np.mod(np.arange(n) * ds - mid[:, None], disc.perimeter)
    db = da + ds
    ref = law.cdf(0.5 * (db - np.pi)) - law.cdf(0.5 * (da - np.pi))
    ends = (law.cdf(0.5 * np.pi) - law.cdf(0.5 * (da - np.pi))
            + law.cdf(0.5 * (db - disc.perimeter - np.pi))
            - law.cdf(-0.5 * np.pi))
    ref[np.diag_indices(n)] = np.diag(ends)
    np.testing.assert_allclose(cell_kernel(disc, law, n), ref, rtol=0.0,
                               atol=1e-12)


def _binned_chain_law(body, law, n_cells, steps, bins):
    # the exact law of a chain started uniformly on the first eighth of the
    # boundary, after each of ``steps`` steps, in ``bins`` equal arc bins;
    # cell masses are spread evenly over their cells
    P = body.perimeter
    K = cell_kernel(body, law, n_cells)
    edges = np.arange(n_cells + 1) * (P / n_cells)
    p = np.where(np.arange(n_cells) < n_cells // 8, 8.0 / n_cells, 0.0)
    laws = []
    for _ in range(steps):
        p = p @ K
        cdf = np.interp(np.arange(bins + 1) * (P / bins), edges,
                        np.concatenate([[0.0], np.cumsum(p)]))
        laws.append(np.diff(cdf))
    return laws


@pytest.mark.parametrize("n_cells", [1024, 2048])
def test_table_chain_law_matches_ellipse(n_cells):
    # The benchmark's general-body-table workload compares chains on the
    # 1024-sample table with Ellipse(2, 1) chains, started uniformly on the
    # eighth of the boundary past maximum curvature, in 24 bins after 1 and
    # 4 steps.  The two exact laws differ by a TV of 1.6e-7 and 1.1e-7 at
    # both cell counts, far below what its 3e4 samples can resolve (a
    # 256-sample table: 4.0e-6 and 3.0e-6).
    law = ReflectionLaw.uniform_half()
    e, table = _body("ellipse"), _body("table1024")
    # both bodies' curvature peaks at their shared arc origin
    for body in (e, table):
        s = np.arange(4096) * (body.perimeter / 4096)
        assert np.argmax(body.curvature_at(s)) == 0
    ref = _binned_chain_law(e, law, n_cells, 4, 24)
    got = _binned_chain_law(table, law, n_cells, 4, 24)
    for step in (0, 3):
        np.testing.assert_allclose(ref[step].sum(), 1.0, rtol=0.0, atol=1e-12)
        assert 0.5 * np.abs(got[step] - ref[step]).sum() <= 1e-6


def test_cell_kernel_matches_quadrature():
    # off-diagonal masses against adaptive quadrature of the transition
    # density over each cell, split where the launch angle crosses the
    # law's support edges (measured worst gap: 1.4e-14)
    e = Ellipse(2.0, 1.0)
    law = ReflectionLaw.truncated_uniform(0.75 * np.pi)
    n = 128
    ds = e.perimeter / n
    K = cell_kernel(e, law, n)
    for i in (0, 37, 90):
        x = e.point_at((i + 0.5) * ds)
        edges = e.to_arc(e.bounce(e.to_native(x.s),
                                  np.array([-0.375, 0.375]) * np.pi)[0])
        for j in range(n):
            if j == i:
                continue
            lo, hi = j * ds, (j + 1) * ds
            cuts = [p for p in edges if lo < p < hi]
            mass = quad(lambda s: transition_density(e, law, x,
                                                     e.point_at(s)),
                        lo, hi, points=cuts or None, limit=200,
                        epsabs=1e-14, epsrel=1e-12)[0]
            assert abs(K[i, j] - mass) < 1e-10
