import functools
import math

import numpy as np
import pytest
from hypothesis import settings

from convexbilliards import CurvatureTable, Disc, Ellipse, ReflectionLaw
from convexbilliards.rng import stream

# fixed example sequences: the verdict depends neither on a random seed nor
# on a local example database
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def disc():
    return Disc(1.0)


@pytest.fixture(scope="session")
def ellipse():
    return Ellipse(2.0, 1.0)


def _curvature_table(kind):
    """Tables from ellipse curvature (``ellipse-1.1`` with its arc origin
    moved; ``ellipse-3-0.5``, curvature ratio 216, is the most eccentric)
    and from the 3- and 4-fold symmetric curvature
    (2 pi / L) (1 + eps cos(m 2 pi s / L)), which closes by symmetry."""
    if kind.startswith("ellipse"):
        a, b, n, shift = {"ellipse-2": (2.0, 1.0, 1024, 0.0),
                          "ellipse-1.1": (1.1, 1.0, 512, 0.3),
                          "ellipse-3-0.5": (3.0, 0.5, 2048, 0.0)}[kind]
        e = Ellipse(a, b)
        s = np.arange(n) * (e.perimeter / n)
        return CurvatureTable(s, np.asarray(
            e.curvature_at(s + shift * e.perimeter)))
    m, eps, n = {"3-fold": (3, 0.5, 600), "4-fold": (4, 0.7, 1000)}[kind]
    L = 7.0
    s = np.arange(n) * (L / n)
    return CurvatureTable(s, (2.0 * math.pi / L)
                          * (1.0 + eps * np.cos(m * 2.0 * math.pi * s / L)))


@pytest.fixture(scope="session")
def curvature_table():
    """The test tables by kind, each built once a session."""
    return functools.lru_cache(maxsize=None)(_curvature_table)


@pytest.fixture(scope="session")
def cosine_law():
    return ReflectionLaw.cosine()


@pytest.fixture(scope="session")
def uniform_half_law():
    return ReflectionLaw.uniform_half()


@pytest.fixture(scope="session")
def tu34_law():
    # truncated uniform on [-3*pi/8, 3*pi/8]
    return ReflectionLaw.truncated_uniform(3.0 * math.pi / 4.0)


@pytest.fixture()
def rng():
    return stream(20240817, 0)


class FixedUniform:
    """Stub generator returning prescribed uniforms (for inverse-CDF tests)."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = np.array([self.values.pop(0) for _ in range(int(np.prod(size)))])
        return out.reshape(size)


@pytest.fixture()
def fixed_uniform():
    return FixedUniform
