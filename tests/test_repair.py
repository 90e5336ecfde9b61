"""Rotations the library computes from valid rotations: re-projected past 1e-9, never rejected for drift.

A rotation that RotationMatrix accepts can sit within rounding of the 1e-9
drift tolerance. Its transpose, and its products with other rotations,
measure the same drift in exact arithmetic but may round past the line.
Every operation must still give an answer, and every rotation it returns
must pass RotationMatrix again.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigid3d as r
from rigid3d.errors import NotARotation
from rigid3d.so3 import ORTHO_TOL, _repair, _repair_stack

from test_calibration import synthetic_handeye
from test_kernels import max_diff

# accepted by RotationMatrix (drift 9.999999685215827e-10); its transpose measures 1.0000000589515158e-09
NEAR = np.array(
    [
        [-0.9833692294654133, 0.10822892937829015, -0.14584737399581726],
        [0.02827581861714184, 0.8844887278195633, 0.46570394947035115],
        [0.17940299801945514, 0.45383498018820123, -0.872839260876509],
    ]
)
EPS = np.finfo(float).eps


def revalidate(transforms):
    for t in transforms:
        r.RotationMatrix(t.rotation.m)


def near_tolerance(m, rng):
    """m times a symmetric stretch whose drift is ORTHO_TOL less a few eps, as RotationMatrix accepts it.

    m (S^2 - I) m^T has the Frobenius norm of S^2 - I, so the product's drift
    is set by the squared singular values of S alone, up to rounding.
    """
    while True:
        d = rng.standard_normal(3)
        v = r.random_rotation(rng).m
        s2 = 1.0 + (ORTHO_TOL - rng.integers(0, 4) * EPS) * d / np.linalg.norm(d)
        out = m @ (v @ np.diag(np.sqrt(s2)) @ v.T)
        try:
            r.RotationMatrix(out)
        except NotARotation:
            continue
        return out


def near_poses(rng, n):
    return [r.Transform(near_tolerance(r.random_rotation(rng).m, rng), rng.uniform(-10, 10, 3)) for _ in range(n)]


def test_pose_at_the_tolerance_has_an_inverse(rng):
    assert np.linalg.norm(NEAR.T @ NEAR - np.eye(3)) <= ORTHO_TOL < np.linalg.norm(NEAR @ NEAR.T - np.eye(3))
    r.RotationMatrix(NEAR)
    with pytest.raises(NotARotation, match="not orthogonal"):
        r.RotationMatrix(NEAR.T)
    t = r.Transform(NEAR, [1.0, -2.0, 3.0])
    inv = r.inverse(t)
    motions = r.relative_motions([t, r.Transform.identity()])
    revalidate([inv, *motions])
    assert max_diff(motions, [inv]) == 0.0
    # X is fitted to pairs that include A = t: the products A R_X are checked as rotations
    for _ in range(5):
        x0, a_list, b_list = synthetic_handeye(rng, n=8)
        a_list[0] = r.Transform(NEAR, rng.uniform(-100, 100, 3))
        b_list[0] = r.compose(r.compose(r.inverse(x0), a_list[0]), x0)
        est = r.HandEyeCalibrator().fit(a_list, b_list)
        revalidate([est.transform_, *est.predict(a_list)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_near_tolerance_rotations_never_raise(seed, n):
    rng = np.random.default_rng(seed)
    poses = near_poses(rng, n)
    out = [r.inverse(p) for p in poses]
    out += [r.compose(a, b) for a, b in zip(poses, poses[1:])]
    out += [r.se3_exp(r.se3_log(p)) for p in poses]
    out += r.relative_motions(poses)
    _, a_list, b_list = synthetic_handeye(rng, n=8)
    a_list = [r.Transform(near_tolerance(a.rotation.m, rng), a.translation) for a in a_list]
    out.append(r.hand_eye_calibrate(a_list, b_list).x)
    revalidate(out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_near_tolerance_relative_motions_match_scalar_chain(seed, n):
    poses = near_poses(np.random.default_rng(seed), n)
    want = [r.compose(r.inverse(a), b) for a, b in zip(poses, poses[1:])]
    got = r.relative_motions(poses)
    # bitwise, re-projected or not
    assert max_diff(got, want) == 0.0


def rejected(m) -> bool:
    try:
        r.RotationMatrix(m)
    except NotARotation:
        return True
    return False


@pytest.mark.parametrize("seed", range(4))
def test_stack_check_at_the_tolerance_is_the_scalar_step(seed):
    # near_tolerance matrices and their transposes straddle 1e-9 by rounding
    rng = np.random.default_rng(seed)
    ms = np.array([near_tolerance(r.random_rotation(rng).m, rng) for _ in range(100)])
    stack = np.concatenate([ms, np.swapaxes(ms, 1, 2)])
    want_flagged = [m for m in stack if rejected(m)]
    assert 0 < len(want_flagged) < len(stack) // 2
    flagged = []  # copies: _repair_stack writes each repaired element back into the row it passed
    with mock.patch("rigid3d.so3._repair", lambda m: flagged.append(m.copy()) or _repair(m)):
        got = _repair_stack(stack)
    assert len(flagged) == len(want_flagged)
    assert all(np.array_equal(f, w) for f, w in zip(flagged, want_flagged))
    assert got.tobytes() == np.array([_repair(m).m for m in stack]).tobytes()
