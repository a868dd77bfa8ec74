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
from convexbilliards.dynamics import landing_density
from convexbilliards.reflection import reflect

# Tolerances on landing arc and flight time.  The table's exit is a
# bracketed root with xtol = 1e-10 * diameter, and its landing is a
# projection onto the spline curve; the closed forms agree to rounding.
TOL = {"disc": 1e-12, "ellipse": 1e-9, "table": 1e-9}
# Relative tolerance of the Jacobian identity with central differences of
# step 1e-5 (measured worst cases over 2000 draws: 5e-11 on the disc, 7e-10
# on the ellipse, 6e-7 over 40 on the table, whose landings carry the
# root-finding noise divided by h).
JAC_RTOL = {"disc": 1e-8, "ellipse": 1e-7, "table": 1e-4}


@functools.lru_cache(maxsize=None)
def _body(name):
    if name == "disc":
        return Disc(1.3)
    e = Ellipse(2.0, 1.0)
    if name == "ellipse":
        return e
    s = np.arange(256) * (e.perimeter / 256)
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
                                                ("table", 8, 4)])
def test_bounce_matches_exit_ray(name, examples, size):
    body = _body(name)

    @settings(max_examples=examples, deadline=None)
    @given(_draws(size))
    def check(pairs):
        s = np.array([p[0] for p in pairs]) * body.perimeter
        theta = np.array([p[1] for p in pairs])
        landing, tau = body.bounce(body.to_native(s), theta)
        landing = body.to_arc(landing)
        for k in range(s.size):
            pt = body.point_at(s[k])
            tau_ref, hit = body.exit_ray(pt.position, reflect(pt, theta[k]))
            assert abs(tau[k] - tau_ref) < TOL[name]
            assert _arc_gap(landing[k], hit.s, body.perimeter) < TOL[name]

    check()


@pytest.mark.parametrize("name,examples,size", [("disc", 30, 16),
                                                ("ellipse", 30, 16),
                                                ("table", 6, 3)])
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
    # A chord shorter than the table's march step used to start its root
    # bracket at the boundary origin, where the gauge is rounding noise.
    # Table from 1024 curvature samples: the chords agree to 1e-6 relative
    # away from grazing; at 1e-3 rad from tangency the chord's sensitivity
    # to the reconstructed normal (1/cos(theta)) leaves 2e-4.
    e = Ellipse(2.0, 1.0)
    s = np.arange(1024) * (e.perimeter / 1024)
    table = CurvatureTable(s, e.curvature_at(s))
    s0 = e.perimeter / 24.0
    for theta, rtol in ((1.569, 1e-3), (-1.569, 1e-3), (1.2, 1e-6),
                        (-0.4, 1e-6)):
        tau_e = float(e.bounce(e.to_native(s0), theta)[1])
        tau_t = float(table.bounce(s0, theta)[1])
        pt = table.point_at(s0)
        tau_ray = table.exit_ray(pt.position, reflect(pt, theta))[0]
        assert tau_t == pytest.approx(tau_e, rel=rtol)
        assert tau_ray == tau_t
