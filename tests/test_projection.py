"""The nearest rotation to a matrix: one SVD in the library, checked against scipy's polar and Kabsch solutions."""

from unittest import mock

import numpy as np
import pytest

import rigid3d as r
from rigid3d.errors import DegenerateMatrix
from rigid3d.so3 import _nearest_rotation, _repair

from test_calibration import synthetic_handeye


def svd_calls(call):
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        call()
    return svd.call_count


def test_one_svd_per_fit(rng):
    p = rng.uniform(-1, 1, (20, 3))
    q = p @ r.random_rotation(rng).m.T + rng.uniform(-1, 1, 3)
    _, a_list, b_list = synthetic_handeye(rng)
    rot = r.random_rotation(rng).m
    assert svd_calls(lambda: r.register_point_sets(p, q)) == 1
    assert svd_calls(lambda: r.hand_eye_calibrate(a_list, b_list)) == 1
    assert svd_calls(lambda: r.orthonormalize(rot + 1e-3 * rng.standard_normal((3, 3)))) == 1
    assert svd_calls(lambda: _repair(rot * (1.0 + 1e-8))) == 1
    assert svd_calls(lambda: _repair(rot)) == 0


def test_nearest_rotation_sign_is_exact(rng):
    for flip in (1.0, -1.0):
        for _ in range(100):
            m = r.random_rotation(rng).m * [1.0, 1.0, flip] + 1e-3 * rng.standard_normal((3, 3))
            rot, sigma, d = _nearest_rotation(m)
            u, s, vt = np.linalg.svd(m)
            assert d == flip
            np.testing.assert_array_equal(sigma, s)
            np.testing.assert_array_equal(rot, u @ vt if d > 0 else (u * [1.0, 1.0, -1.0]) @ vt)
            r.RotationMatrix(rot)


def test_orthonormalize_is_the_polar_factor():
    polar = pytest.importorskip("scipy.linalg").polar  # test-only oracle
    rng = np.random.default_rng(20261018)
    accepted = 0
    for _ in range(2000):
        m = r.random_rotation(rng).m + 10.0 ** rng.uniform(-12, -0.5) * rng.standard_normal((3, 3))
        try:
            got = r.orthonormalize(m).m
        except DegenerateMatrix:
            continue
        accepted += 1
        np.testing.assert_allclose(got, polar(m)[0], rtol=0, atol=1e-15)
    assert 1900 < accepted < 2000


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_registration_matches_scipy_kabsch(noise):
    rotation = pytest.importorskip("scipy.spatial.transform").Rotation  # test-only oracle
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        n = int(rng.integers(3, 50))
        p = rng.uniform(-1, 1, (n, 3))
        q = p @ r.random_rotation(rng).m.T + rng.uniform(-10, 10, 3) + rng.normal(0.0, noise, (n, 3))
        got = r.register_point_sets(p, q).transform.rotation.m
        want, _ = rotation.align_vectors(q - q.mean(axis=0), p - p.mean(axis=0))
        np.testing.assert_allclose(got, want.as_matrix(), rtol=0, atol=1e-12)
