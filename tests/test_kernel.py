"""The bounce kernel of every body against its scalar references.

``ConvexBody.bounce`` (vectorised, native coordinates) must reproduce the
scalar ``exit_ray`` (cartesian, located by ``arc_of_point``), and
``landing_density`` must be the density of the kernel's landing: times the
Jacobian |ds'/dtheta| of the landing map it gives back the reflection law.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexbilliards import CurvatureTable, Disc, Ellipse, ReflectionLaw
from convexbilliards.dynamics import landing_density, transition_density_row
from convexbilliards.reflection import reflect

# Tolerances on landing arc and flight time.  The table's bounce is a
# fixed-iteration root on its dense x, y splines; its exit_ray is a bracketed
# root of the radial gauge, an interpolant of the same nodes, with xtol =
# 1e-10 * diameter, and a projection by arc_of_point (measured worst gap over
# the 40 x 16 draws: 1e-10); the closed forms agree to rounding.
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
