import math

import numpy as np
import pytest
from hypothesis import settings

from convexbilliards import Disc, Ellipse, ReflectionLaw
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
