import pathlib

import numpy as np
import pytest

import rigid3d as r

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

# The angles at which so3_log once switched formulas; the seeded tests still sample on both sides of them.
SMALL_ANGLE = 1e-8
NEAR_PI = np.pi - 1e-2


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_transform(rng, trans_scale=1.0):
    return r.Transform(r.random_rotation(rng), trans_scale * rng.standard_normal(3))


def random_rotvec(rng, max_angle=np.pi):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)
