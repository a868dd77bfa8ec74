import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.stats import chi2 as chi2_dist

from convexbilliards import (
    Disc,
    ReflectionLaw,
    certify_density_floor,
    point_at,
    reflect,
)
from convexbilliards.errors import NoPositiveCore
from convexbilliards.rng import stream


def _all_laws():
    angles = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 41)
    table = ReflectionLaw.from_table(angles, np.cos(angles) ** 2)
    return [ReflectionLaw.cosine(), ReflectionLaw.uniform_half(),
            ReflectionLaw.truncated_uniform(3.0 * math.pi / 4.0), table]


# ---------------------------------------------------------------------------
# densities and samplers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", _all_laws(), ids=lambda l: l.kind)
def test_density_normalised(law):
    assert abs(law.mass_check() - 1.0) < 1e-8


def test_cosine_median_angle(fixed_uniform):
    law = ReflectionLaw.cosine()
    assert law.sample(fixed_uniform([0.5])) == 0.0


def test_truncated_support(tu34_law, rng):
    s = tu34_law.sample(rng, 200_000)
    assert np.all(np.abs(s) <= 3.0 * math.pi / 8.0 + 1e-15)


def test_cosine_moment_bound(rng):
    # oracle first: the variance of the cosine law by quadrature
    var, err = quad(lambda t: t * t * 0.5 * math.cos(t),
                    -0.5 * math.pi, 0.5 * math.pi)
    assert err < 1e-12
    assert abs(var - (math.pi ** 2 / 4.0 - 2.0)) < 1e-12
    n = 1_000_000
    s = ReflectionLaw.cosine().sample(rng, n)
    assert abs(float(np.mean(s))) < 4.0 * math.sqrt(var / n)


@pytest.mark.parametrize("law", _all_laws(), ids=lambda l: l.kind)
def test_sampler_matches_density_chi2(law, rng):
    # goodness of fit of one million draws against exact bin masses
    n = 1_000_000
    bins = 100
    s = np.asarray(law.sample(rng, n))
    lo, hi = -0.5 * math.pi, 0.5 * math.pi
    counts, edges = np.histogram(s, bins=bins, range=(lo, hi))
    probs = np.diff(law.cdf(edges))
    keep = probs > 1e-12
    expected = probs[keep] * n
    stat = float(np.sum((counts[keep] - expected) ** 2 / expected))
    pval = float(chi2_dist.sf(stat, int(keep.sum()) - 1))
    assert pval > 1e-3


def test_table_roundtrip_cdf_and_rejections():
    angles = np.linspace(-0.4 * math.pi, 0.4 * math.pi, 33)
    law = ReflectionLaw.from_table(angles, 1.0 + 0.3 * np.cos(2 * angles))
    u = np.linspace(0.001, 0.999, 199)
    vals = law._table_ppf(u)
    assert np.max(np.abs(law.cdf(vals) - u)) < 1e-10
    with pytest.raises(ValueError):
        ReflectionLaw.from_table(angles, np.linspace(0.1, 1.0, 33))  # asymmetric
    bad = 1.0 + 0.3 * np.cos(2 * angles)
    bad[5] = -0.2
    bad[-6] = -0.2
    with pytest.raises(ValueError):
        ReflectionLaw.from_table(angles, bad)


def test_laws_compare_by_value():
    angles = np.linspace(-0.4 * math.pi, 0.4 * math.pi, 33)
    values = 1.0 + 0.3 * np.cos(2 * angles)
    table = ReflectionLaw.from_table(angles, values)
    same = ReflectionLaw.from_table(angles.copy(), 2.0 * values)  # same law
    other = ReflectionLaw.from_table(angles, 1.0 + 0.2 * np.cos(2 * angles))
    assert table == same and hash(table) == hash(same)
    assert table != other
    tu = ReflectionLaw.truncated_uniform(0.75 * math.pi)
    assert tu == ReflectionLaw.truncated_uniform(0.75 * math.pi)
    assert tu != ReflectionLaw.truncated_uniform(0.7 * math.pi)
    assert ReflectionLaw.cosine() != ReflectionLaw.uniform_half()
    assert len({tu, ReflectionLaw.truncated_uniform(0.75 * math.pi)}) == 1


# ---------------------------------------------------------------------------
# floor certificates
# ---------------------------------------------------------------------------

def test_certify_truncated_uniform(tu34_law):
    fc = certify_density_floor(tu34_law)
    width = 3.0 * math.pi / 4.0
    assert abs(fc.width - width) < 1e-9
    assert abs(fc.floor - 1.0 / width) < 1e-12


def test_certify_uniform_half(uniform_half_law):
    fc = certify_density_floor(uniform_half_law)
    assert abs(fc.width - math.pi) < 1e-9
    assert abs(fc.floor - 1.0 / math.pi) < 1e-12


def test_certify_cosine_matches_maximisation_oracle(cosine_law):
    # oracle first: maximise width * floor(width) = w * cos(w/2) / 2 by an
    # independent 1-d search
    res = minimize_scalar(lambda w: -w * math.cos(0.5 * w) / 2.0,
                          bounds=(0.1, math.pi), method="bounded")
    w_star = float(res.x)
    assert abs(w_star - 1.720667) < 1e-4  # frozen from the oracle
    fc = certify_density_floor(cosine_law)
    assert abs(fc.width - w_star) < 2e-3  # grid resolution of the search
    assert abs(fc.floor - 0.5 * math.cos(0.5 * fc.width)) < 1e-12
    # the certificate beats (or ties) any other candidate width's product
    assert fc.floor * fc.width >= 0.999 * (-res.fun)


@pytest.mark.parametrize("law", _all_laws(), ids=lambda l: l.kind)
def test_certificate_inequality_on_finer_grid(law):
    fc = law.certify_floor()
    grid = np.linspace(-0.5 * fc.width, 0.5 * fc.width, 100_001)
    assert np.all(law.density(grid) >= fc.floor - 1e-12)


def test_certify_explicit_width(cosine_law):
    fc = cosine_law.certify_floor(width=2.5)
    assert fc.width == 2.5
    assert abs(fc.floor - 0.5 * math.cos(1.25)) < 1e-12


def test_no_positive_core():
    angles = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 101)
    vals = np.where(np.abs(angles) < 0.3, 0.0, 1.0)  # dead centre band
    law = ReflectionLaw.from_table(angles, vals)
    with pytest.raises(NoPositiveCore):
        law.certify_floor(width=0.4)


# ---------------------------------------------------------------------------
# reflect
# ---------------------------------------------------------------------------

def test_reflect_normal_and_tangent_limits(disc):
    bp = point_at(disc, 0.7)
    assert np.allclose(reflect(bp, 0.0), bp.normal)
    v = reflect(bp, 0.5 * math.pi)
    assert abs(float(np.dot(v, bp.normal))) < 1e-12


def test_reflect_cosine_identity(disc, rng):
    bp = point_at(disc, 2.5)
    for theta in rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 50):
        v = reflect(bp, float(theta))
        assert abs(float(np.dot(v, bp.normal)) - math.cos(theta)) < 1e-15
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15


def test_reflect_injective(disc):
    bp = point_at(disc, 1.0)
    thetas = np.linspace(-1.5, 1.5, 101)
    vecs = np.array([reflect(bp, t) for t in thetas])
    angles = np.unwrap(np.arctan2(vecs[:, 1], vecs[:, 0]))
    assert np.all(np.diff(angles) > 0.0)  # strictly monotone rotation
