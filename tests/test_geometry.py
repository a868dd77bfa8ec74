import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from convexbilliards import (
    CurvatureTable,
    Disc,
    Ellipse,
    chord_angle,
    exit_ray,
    point_at,
    summarize,
)
from convexbilliards.errors import (
    CoincidentPoints,
    NonClosedCurve,
    OutsideBody,
    TangentRay,
)
from convexbilliards.rng import stream

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# point_at
# ---------------------------------------------------------------------------

def test_point_at_disc_origin_convention(disc):
    bp = point_at(disc, 0.0)
    assert np.allclose(bp.position, [1.0, 0.0])
    assert np.allclose(bp.normal, [-1.0, 0.0])  # inward
    assert np.allclose(bp.tangent, [0.0, 1.0])


def test_point_at_disc_half_perimeter_is_antipodal(disc):
    bp = point_at(disc, math.pi)
    assert np.allclose(bp.position, [-1.0, 0.0], atol=1e-12)


def test_point_at_ellipse_quarter_perimeter(ellipse):
    # independent quadrature oracle for the quarter arc length of the
    # ellipse; point_at there must hit the minor-axis vertex (0, 1)
    speed = lambda t: math.hypot(2.0 * math.sin(t), 1.0 * math.cos(t))
    quarter, err = quad(speed, 0.0, 0.5 * math.pi, limit=200)
    assert err < 1e-10
    bp = point_at(ellipse, quarter)
    assert np.allclose(bp.position, [0.0, 1.0], atol=ellipse.tol_geom)


def test_point_at_wraps_modulo_perimeter(ellipse):
    a = point_at(ellipse, 1.234)
    b = point_at(ellipse, 1.234 + 3.0 * ellipse.perimeter)
    assert np.allclose(a.position, b.position, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0))
def test_point_at_frame_orthonormal(s):
    body = Ellipse(2.0, 1.0)
    bp = point_at(body, s)
    assert abs(np.linalg.norm(bp.normal) - 1.0) < 1e-9
    assert abs(np.linalg.norm(bp.tangent) - 1.0) < 1e-9
    assert abs(float(np.dot(bp.normal, bp.tangent))) < 1e-9


def test_unit_speed_parametrisation(ellipse):
    # finite-difference arc speed equals one
    s = np.linspace(0.0, ellipse.perimeter, 257)[:-1]
    h = 1e-6
    p1 = ellipse.position_at(s + h)
    p0 = ellipse.position_at(s - h)
    speed = np.hypot(*(p1 - p0).T) / (2.0 * h)
    assert np.max(np.abs(speed - 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# exit_ray
# ---------------------------------------------------------------------------

def test_exit_ray_disc_diameter(disc):
    bp = point_at(disc, 0.0)
    tau, hit = exit_ray(disc, bp.position, bp.normal)
    assert abs(tau - 2.0) < disc.tol_root
    assert np.allclose(hit.position, [-1.0, 0.0], atol=1e-9)


def test_exit_ray_disc_chord_law(disc):
    # chord time is 2*r*cos(theta) for a launch theta off the normal
    from convexbilliards.reflection import reflect
    for theta in (-1.2, -0.5, 0.0, math.pi / 3, 1.4):
        bp = point_at(disc, 2.1)
        tau, _ = exit_ray(disc, bp.position, reflect(bp, theta))
        assert abs(tau - 2.0 * math.cos(theta)) < disc.tol_root


def test_exit_ray_ellipse_major_axis(ellipse):
    tau, hit = exit_ray(ellipse, np.array([2.0, 0.0]), np.array([-1.0, 0.0]))
    assert abs(tau - 4.0) < ellipse.tol_root
    assert np.allclose(hit.position, [-2.0, 0.0], atol=1e-9)


def test_exit_ray_tangent_and_outside_guards(disc, ellipse, curvature_table):
    # every body, at two boundary points: a boundary origin needs an
    # inward direction, and an origin 0.5 outside fails whether its ray
    # points toward the body, away from it or past it
    bodies = [disc, ellipse, curvature_table("ellipse-2"),
              curvature_table("ellipse-3-0.5")]
    for body in bodies:
        for s in (0.1, 0.6 * body.perimeter):
            bp = point_at(body, s)
            outside = bp.position - 0.5 * bp.normal
            with pytest.raises(TangentRay):
                exit_ray(body, bp.position, bp.tangent)
            with pytest.raises(TangentRay):
                exit_ray(body, bp.position, -bp.normal)
            for direction in (bp.normal, -bp.normal, bp.tangent):
                with pytest.raises(OutsideBody):
                    exit_ray(body, outside, direction)
    with pytest.raises(OutsideBody):
        exit_ray(disc, np.array([2.0, 0.0]), np.array([-1.0, 0.0]))


def test_exit_ray_boundary_membership_random(disc, ellipse, curvature_table):
    # scalar engine: random interior origins and directions.  The disc's
    # and the ellipse's hits lie on their closed-form curves |p| = r and
    # (x/a)^2 + (y/b)^2 = 1; a table's hit is its boundary point at hit.s
    gen = stream(5, 1)
    on_curve = {
        "disc": lambda p: abs(math.hypot(*p) - disc.r),
        "ellipse": lambda p: abs((p[0] / ellipse.a) ** 2
                                 + (p[1] / ellipse.b) ** 2 - 1.0),
    }
    for body in (disc, ellipse):
        for _ in range(2000):
            ang = gen.random() * 2.0 * math.pi
            rad = math.sqrt(gen.random()) * 0.98
            origin = np.array([rad * math.cos(ang), rad * math.sin(ang)])
            if isinstance(body, Ellipse):
                origin = origin * np.array([body.a, body.b])
            d_ang = gen.random() * 2.0 * math.pi
            direction = np.array([math.cos(d_ang), math.sin(d_ang)])
            tau, hit = exit_ray(body, origin, direction)
            assert tau > 0.0
            assert on_curve[body.variant](origin + tau * direction) \
                < body.tol_geom
            assert on_curve[body.variant](hit.position) < body.tol_geom
    table = curvature_table("ellipse-2")
    for _ in range(2000):
        # an interior origin: a point of the chord between two boundary
        # points
        a, b = table.position_at(gen.random(2) * table.perimeter)
        lam = 0.01 + 0.98 * gen.random()
        origin = lam * a + (1.0 - lam) * b
        d_ang = gen.random() * 2.0 * math.pi
        direction = np.array([math.cos(d_ang), math.sin(d_ang)])
        tau, hit = exit_ray(table, origin, direction)
        assert tau > 0.0
        assert np.hypot(*(origin + tau * direction
                          - table.position_at(hit.s))) < 1e-9


def test_exit_ray_boundary_membership_bulk(ellipse):
    # vectorised engine: one million landings stay on the implicit curve
    from convexbilliards.dynamics import run_chain_ensemble
    from convexbilliards import ReflectionLaw
    arcs = run_chain_ensemble(ellipse, ReflectionLaw.uniform_half(),
                              np.zeros(100_000), 10, stream(6, 2))
    pos = ellipse.position_at(arcs.ravel())
    resid = (pos[:, 0] / 2.0) ** 2 + pos[:, 1] ** 2 - 1.0
    assert pos.shape[0] == 1_100_000
    assert np.max(np.abs(resid)) < 1e-8


def test_chord_midpoints_interior(ellipse, rng):
    for _ in range(300):
        s1, s2 = rng.random(2) * ellipse.perimeter
        p1 = ellipse.position_at(s1)
        p2 = ellipse.position_at(s2)
        if np.hypot(*(p1 - p2)) < 1e-3:
            continue
        mid = 0.5 * (p1 + p2)
        assert (mid[0] / ellipse.a) ** 2 + (mid[1] / ellipse.b) ** 2 \
            < 1.0 - ellipse.tol_geom


# ---------------------------------------------------------------------------
# chord_angle
# ---------------------------------------------------------------------------

def test_chord_angle_antipodal_is_zero(disc):
    x = point_at(disc, 0.0)
    y = point_at(disc, math.pi)
    assert abs(chord_angle(disc, x, y)) < 1e-12


def test_chord_angle_quarter_separation(disc):
    # inscribed-angle oracle: for a central separation delta the chord makes
    # the angle (pi - delta)/2 with the normal at either endpoint
    for delta in (0.5, math.pi / 2, 2.0, 3.0):
        x = point_at(disc, 0.0)
        y = point_at(disc, delta)
        expected = (math.pi - delta) / 2.0
        assert abs(abs(chord_angle(disc, x, y)) - abs(expected)) < 1e-12


def test_chord_angle_tangent_limit(ellipse):
    x = point_at(ellipse, 1.0)
    y = point_at(ellipse, 1.0 + 1e-6)
    assert abs(chord_angle(ellipse, x, y)) > 0.5 * math.pi - 1e-3


def test_chord_angle_coincident_raises(disc):
    x = point_at(disc, 1.0)
    with pytest.raises(CoincidentPoints):
        chord_angle(disc, x, x)


def test_chord_angle_swap_consistency(ellipse):
    # recomputing with swapped arguments gives the angle at the other end;
    # both lie in [-pi/2, pi/2]
    x = point_at(ellipse, 0.3)
    y = point_at(ellipse, 4.1)
    a = chord_angle(ellipse, x, y)
    b = chord_angle(ellipse, y, x)
    assert abs(a) <= 0.5 * math.pi and abs(b) <= 0.5 * math.pi


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def test_summarize_disc():
    s = summarize(Disc(2.0))
    assert abs(s.perimeter - 4.0 * math.pi) < 1e-12
    assert s.diameter == 4.0
    assert s.curvature_min == s.curvature_max == 0.5


def test_summarize_ellipse_curvature_extrema(ellipse):
    # standard extrema: b/a^2 at the flat vertex, a/b^2 at the sharp vertex
    s = summarize(ellipse)
    assert abs(s.curvature_min - 1.0 / 4.0) < 1e-9
    assert abs(s.curvature_max - 2.0) < 1e-9
    # perimeter against an independent quadrature oracle
    speed = lambda t: math.hypot(2.0 * math.sin(t), math.cos(t))
    per, _ = quad(speed, 0.0, 2.0 * math.pi, limit=400)
    assert abs(s.perimeter - per) < 1e-8


def test_degenerate_ellipse_matches_disc():
    e = Ellipse(1.0, 1.0)
    d = Disc(1.0)
    se, sd = summarize(e), summarize(d)
    assert abs(se.perimeter - sd.perimeter) < 1e-9
    assert abs(se.diameter - sd.diameter) < 1e-12
    for s in (0.0, 1.0, 4.0):
        assert np.allclose(e.position_at(s), d.position_at(s), atol=1e-9)


def test_curvature_sandwich(ellipse):
    # at each grid point the osculating 1/C-disc fits inside and the
    # 1/c-disc contains the body (tangency at the point itself)
    s_grid = np.linspace(0.0, ellipse.perimeter, 17)[:-1]
    boundary = ellipse.position_at(np.linspace(0.0, ellipse.perimeter, 2048))
    summary = summarize(ellipse)
    r_in = 1.0 / summary.curvature_max
    r_out = 1.0 / summary.curvature_min
    for s in s_grid:
        p = ellipse.position_at(s)
        n = np.array(ellipse.frame(ellipse.to_native(s))[2:])
        c_in = p + r_in * n
        c_out = p + r_out * n
        d_in = np.min(np.hypot(*(boundary - c_in).T))
        d_out = np.max(np.hypot(*(boundary - c_out).T))
        assert d_in >= r_in - 1e-7
        assert d_out <= r_out + 1e-7


# ---------------------------------------------------------------------------
# curvature-table variant
# ---------------------------------------------------------------------------

def _ellipse_curvature_table(n=512):
    e = Ellipse(2.0, 1.0)
    s = np.linspace(0.0, e.perimeter, n + 1)[:-1]
    return s, np.asarray(e.curvature_at(s))


def test_curvature_table_reconstructs_ellipse():
    s, k = _ellipse_curvature_table()
    body = CurvatureTable(s, k)
    e = Ellipse(2.0, 1.0)
    assert abs(body.perimeter - e.perimeter) < 1e-6 * e.perimeter
    assert abs(body.diameter - e.diameter) < 1e-3
    # the reconstruction fixes position only up to rigid motion; compare
    # curvature profiles, which are intrinsic
    probe = np.linspace(0.0, body.perimeter, 64)
    assert np.allclose(body.curvature_at(probe), e.curvature_at(probe),
                       rtol=1e-4, atol=1e-4)


def test_curvature_table_exit_ray_consistent():
    # the table's arc length starts at the ellipse's vertex on the major
    # axis, so its normal chord there is that axis: length 4, to the far
    # vertex at half the perimeter
    s, k = _ellipse_curvature_table()
    body = CurvatureTable(s, k)
    bp = point_at(body, 0.0)
    tau, hit = exit_ray(body, bp.position, bp.normal)
    assert abs(tau - 4.0) < 1e-6
    assert abs(hit.s - 0.5 * body.perimeter) < 1e-6


def test_curvature_table_rejects_non_closed():
    s, k = _ellipse_curvature_table()
    with pytest.raises(NonClosedCurve):
        CurvatureTable(s, 1.05 * k)  # total turning off by five percent


def test_curvature_table_rejects_negative():
    s, k = _ellipse_curvature_table()
    k = k.copy()
    k[3] = -0.1
    with pytest.raises(ValueError):
        CurvatureTable(s, k)


# ---------------------------------------------------------------------------
# arc-length tables looked up by index
# ---------------------------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _with_neighbours(knots):
    """Every knot and the next float on either side of it."""
    return np.concatenate([knots, np.nextafter(knots, -np.inf),
                           np.nextafter(knots, np.inf)])


def test_ellipse_arc_lookup_matches_cubic_spline_bits(ellipse):
    # the evaluator reads CubicSpline's own coefficients; its cell and its
    # sum must be scipy's, so every value agrees to the bit, also where the
    # end cells extrapolate
    spline = CubicSpline(ellipse._t_grid, ellipse._s_grid)
    probes = {
        "random": stream(31, 0).uniform(0.0, 2.0 * math.pi, 10 ** 5),
        "knots": _with_neighbours(ellipse._t_grid),
        "ends": np.array([0.0, 2.0 * math.pi]),
        "extrapolated": np.array([-1e-17, 2.0 * math.pi + 1e-15]),
    }
    for name, t in probes.items():
        assert np.array_equal(_bits(ellipse.to_arc(t)), _bits(spline(t))), name
    assert np.isnan(ellipse.to_arc(np.array([0.5, np.nan]))[1])
    assert math.isnan(ellipse.to_arc(math.nan))
    # one scalar: the same bits
    assert _bits(ellipse.to_arc(1.25)) == _bits(spline(1.25))


def test_ellipse_to_native_matches_spline_newton(ellipse):
    # reference: the s -> t inversion's three Newton steps on CubicSpline
    spline = CubicSpline(ellipse._t_grid, ellipse._s_grid)
    s = np.concatenate([stream(32, 0).uniform(-5.0, 15.0, 10 ** 4),
                        ellipse._s_grid])
    sw = ellipse.wrap(s)
    t = np.interp(sw, ellipse._s_grid, ellipse._t_grid)
    for _ in range(3):
        t = t - (spline(np.clip(t, 0.0, 2.0 * math.pi)) - sw) \
            / ellipse._speed(t)
    assert np.array_equal(_bits(ellipse.to_native(s)), _bits(t))


def test_curvature_table_cell_matches_searchsorted():
    body = CurvatureTable(*_ellipse_curvature_table())
    knots = body._s_dense
    N = knots.size - 1
    s = np.concatenate([stream(33, 0).uniform(0.0, body.perimeter, 10 ** 5),
                        _with_neighbours(knots)])
    j, offset = body._dense.cell(s)
    ref = np.clip(np.searchsorted(knots, s, "right") - 1, 0, N - 1)
    assert np.array_equal(j, ref)
    assert np.array_equal(_bits(offset), _bits(s - knots[ref]))


@pytest.mark.parametrize("a,n,shift", [(2.0, 1024, 0.0), (1.1, 512, 0.3)])
def test_curvature_table_diameter_scan_matches_full_scan(a, n, shift):
    # the antipodal search finds the full scan's first row-major maximum:
    # on the benchmark's table (Ellipse(2, 1), 1024 samples) and on a
    # rounder one whose arc origin is moved, so the pair is not in the first
    # row block
    from convexbilliards.geometry import _farthest_pair, _refine_diameter
    e = Ellipse(a, 1.0)
    s = np.arange(n) * (e.perimeter / n)
    kappa = e.curvature_at(s + shift * e.perimeter)
    body = CurvatureTable(s, np.asarray(kappa))
    dense = body._s_dense[:-1]
    pts = np.stack([body._x(dense), body._y(dense)], axis=-1)
    sub = pts[:: max(1, pts.shape[0] // 4096)]
    x, y = sub[:, 0], sub[:, 1]
    best, i, j = -1.0, 0, 0
    for r in range(0, x.size, 64):   # every column of each row block
        d2 = (x[r:r + 64, None] - x) ** 2 + (y[r:r + 64, None] - y) ** 2
        k = int(np.argmax(d2))
        if d2.flat[k] > best:
            best, i, j = d2.flat[k], r + k // x.size, k % x.size
    assert _farthest_pair(sub[:, 0], sub[:, 1]) == (i, j)
    knots = body._s_dense[:: max(1, pts.shape[0] // 4096)]
    assert body.diameter == _refine_diameter(body, knots[i], knots[j])


# sha256 of each table's summary and of 4096 bounces, landings and flight
# times, re-recorded when the chord solve moved to an unnormalised launch
# direction, Newton on the landing cell's real cubic and three Newton steps
# (numpy 2.4, x86_64)
TABLE_GOLDEN = {
    "ellipse-2": "3b399c7041bb324b0b4ca546195655f7"
                 "a87c98ff1337a580e3b06d49126eb5a6",
    "ellipse-1.1": "adac9d2f15855c15877b784ed9ee686c"
                   "4353a369f8f4c78815990f29422c77c9",
    "3-fold": "905b5c9b45625d098d4fc88f18b7e065"
              "eb9a9b350798aaf655092e5d79dcd138",
    "4-fold": "3124e2c1adc5c3de31084e3ec448fc4b"
              "72a5da53ca27f5701bf9e18c2b34a1f1",
}


@pytest.mark.parametrize("kind", TABLE_GOLDEN)
def test_curvature_table_summary_and_bounce_golden(kind, curvature_table):
    import hashlib
    body = curvature_table(kind)
    u = stream(83, 0).uniform(0.0, body.perimeter, 4096)
    theta = stream(83, 1).uniform(-1.5, 1.5, 4096)
    land, tau = body.bounce(u, theta)
    summary = list(body.summarize().as_dict().values())
    digest = hashlib.sha256(
        np.concatenate([summary, land, tau]).tobytes()).hexdigest()
    assert digest == TABLE_GOLDEN[kind]


@pytest.mark.parametrize("kind", ["ellipse-2", "3-fold"])
def test_curvature_table_position_is_the_frame_position(kind,
                                                        curvature_table):
    # the diameter polish places its points without normals, on the bits
    # of frame's position: at random arcs, the knots and their neighbours,
    # and both ends of the period
    body = curvature_table(kind)
    P = body.perimeter
    s = np.concatenate([stream(84, 0).uniform(-P, 2.0 * P, 10 ** 4),
                        _with_neighbours(body._s_dense),
                        [-1e-300, -0.0, 0.0, P]])
    x, y = body.position(s)
    fx, fy, _, _ = body.frame(s)
    assert np.array_equal(_bits(x), _bits(fx))
    assert np.array_equal(_bits(y), _bits(fy))


@pytest.mark.parametrize("kind", ["ellipse-2", "ellipse-1.1", "3-fold"])
def test_curvature_table_nodes_are_spline_values(kind, curvature_table):
    # the diameter search reads the x and y splines at their knots from
    # the bounce kernel's constant coefficients
    body = curvature_table(kind)
    dense = body._s_dense[:-1]
    assert np.array_equal(_bits(body._z[3].real), _bits(body._x(dense)))
    assert np.array_equal(_bits(body._z[3].imag), _bits(body._y(dense)))


# ---------------------------------------------------------------------------
# farthest pair
# ---------------------------------------------------------------------------

def _full_scan_pair(x, y):
    """First row-major maximum of the whole (n, n) table of squared
    distances, scanned in blocks of 64 rows."""
    best, i, j = -1.0, 0, 0
    for r in range(0, x.size, 64):
        d2 = (x[r:r + 64, None] - x) ** 2 + (y[r:r + 64, None] - y) ** 2
        k = int(np.argmax(d2))
        if d2.flat[k] > best:
            best, i, j = d2.flat[k], r + k // x.size, k % x.size
    return i, j


def _random_convex_polygon(n, rng):
    """Valtr's uniformly random convex polygon: n vertices,
    counterclockwise, from n random x and n random y values."""
    def edge_parts(v):
        v = np.sort(v)
        upper = rng.random(n - 2) < 0.5
        a = np.concatenate([v[:1], v[1:-1][upper], v[-1:]])
        b = np.concatenate([v[:1], v[1:-1][~upper], v[-1:]])
        return np.concatenate([np.diff(a), -np.diff(b)])
    dx, dy = edge_parts(rng.random(n)), edge_parts(rng.random(n))
    rng.shuffle(dy)
    order = np.argsort(np.arctan2(dy, dx))
    return np.cumsum(dx[order]), np.cumsum(dy[order])


@pytest.mark.parametrize("n", [8, 9, 16, 61, 250, 1000, 4096])
def test_farthest_pair_matches_full_scan_on_random_polygons(n):
    # random shapes, each moved off the origin and started at a random
    # vertex, so the pair is anywhere in the vertex order
    from convexbilliards.geometry import _farthest_pair
    rng = stream(84, n)
    for _ in range(3 if n > 1000 else 12):
        x, y = _random_convex_polygon(n, rng)
        start = int(rng.integers(n))
        x = np.roll(x, start) + rng.uniform(-10.0, 10.0)
        y = np.roll(y, start) + rng.uniform(-10.0, 10.0)
        assert _farthest_pair(x, y) == _full_scan_pair(x, y)


@pytest.mark.parametrize("n", [8, 63, 64, 1000, 4096])
@pytest.mark.parametrize("noise", [0, 1], ids=["exact", "last-bit"])
def test_farthest_pair_breaks_near_ties_as_full_scan(n, noise):
    # on samples of a circle every vertex is nearly as far from its
    # antipode as any other, and rounding makes some exactly tied
    from convexbilliards.geometry import _farthest_pair
    rng = stream(85, n)
    t = (np.arange(n) + 0.25) * (TWO_PI / n)
    x, y = np.cos(t), np.sin(t)
    if noise:
        x += rng.integers(-1, 2, n) * np.spacing(x)
        y += rng.integers(-1, 2, n) * np.spacing(y)
    assert _farthest_pair(x, y) == _full_scan_pair(x, y)


def test_farthest_pair_ties_exist_on_the_circle():
    # the circle cases above test tie-breaking: the maximum is reached by
    # several pairs
    n = 64
    t = (np.arange(n) + 0.25) * (TWO_PI / n)
    x, y = np.cos(t), np.sin(t)
    d2 = (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2
    assert np.count_nonzero(d2 == d2.max()) > 2


def test_farthest_pair_memory_is_linear():
    # a few arrays of n values at a time: well under 1 MB at n = 4096,
    # where a block scan of 64 rows builds (64, 4096) temporaries of 2 MB
    import tracemalloc
    from convexbilliards.geometry import _farthest_pair
    n = 4096
    t = np.arange(n) * (TWO_PI / n)
    x, y = 2.0 * np.cos(t), np.sin(t)
    _farthest_pair(x, y)
    tracemalloc.start()
    try:
        _farthest_pair(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# root brackets
# ---------------------------------------------------------------------------

def _naive_sign_change_cells(vals, periodic):
    """The scan loop that ``_sign_change_cells`` replaces, row by row."""
    rows, n = vals.shape
    cells = []
    for r in range(rows):
        for i in range(n if periodic else n - 1):
            j = (i + 1) % n
            if vals[r, i] == 0.0 or vals[r, i] * vals[r, j] < 0.0:
                cells.append((r, i))
    return cells


@settings(max_examples=300, deadline=None)
@given(vals=arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=12),
                   elements=st.one_of(
                       st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-200]),
                       st.floats(-1e3, 1e3))),
       periodic=st.booleans())
@example(vals=np.zeros((3, 5)), periodic=False)
@example(vals=np.zeros((2, 4)), periodic=True)
@example(vals=np.array([[1.0, 2.0, 3.0, -1.0], [-1.0, 0.0, 2.0, 1.0]]),
         periodic=True)
def test_sign_change_cells_match_naive_loop(vals, periodic):
    from convexbilliards.geometry import _sign_change_cells
    rows, cells = _sign_change_cells(vals, periodic=periodic)
    assert list(zip(rows.tolist(), cells.tolist())) == \
        _naive_sign_change_cells(vals, periodic)
    # a 1-d row gives the cells of its one row
    (row0,) = _sign_change_cells(vals[0], periodic=periodic)
    assert row0.tolist() == cells[rows == 0].tolist()


def test_sign_change_cells_close_the_circle():
    # the last sample and the first bracket a root only on the circle
    from convexbilliards.geometry import _sign_change_cells
    vals = np.array([-1.0, -2.0, -0.5, 3.0])
    assert _sign_change_cells(vals, periodic=False)[0].tolist() == [2]
    assert _sign_change_cells(vals, periodic=True)[0].tolist() == [2, 3]
