import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import rigid3d as r

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = str(pathlib.Path(__file__).parents[1] / "src")

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


def child(code: str) -> str:
    """stdout of code run by a fresh interpreter that imports rigid3d from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
