"""Rotations the library computes from valid rotations: re-projected past 1e-9, never rejected for drift.

A rotation that RotationMatrix accepts can sit within rounding of the 1e-9
drift tolerance. Its transpose, and its products with other rotations,
measure the same drift in exact arithmetic but may round past the line.
Every operation must still give an answer, and every rotation it returns
must pass RotationMatrix again.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigid3d as r
from rigid3d import so3
from rigid3d.errors import NotARotation, Rigid3dError
from rigid3d.so3 import ORTHO_TOL, _defects, _nearest_rotation, _repair, _repair_stack

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
    flagged = []  # copies: _repair_stack writes each repaired element back into the column it passed
    with mock.patch("rigid3d.so3._repair", lambda m: flagged.append(m.copy()) or _repair(m)):
        got = _repair_stack(stack.reshape(-1, 9).T)
    assert len(flagged) == len(want_flagged)
    assert all(np.array_equal(f, w.ravel()) for f, w in zip(flagged, want_flagged))
    assert got.T.tobytes() == np.array([_repair(m).m for m in stack]).tobytes()


def counted(name: str):
    """Patch so3.<name> with a mock that calls it and counts the calls."""
    return mock.patch.object(so3, name, side_effect=getattr(so3, name))


def test_one_drift_measurement_per_computed_rotation(rng):
    # RotationMatrix's own test is the only _defects call on a computed rotation that needs no repair
    a, b = (r.Transform(r.random_rotation(rng), rng.uniform(-10, 10, 3)) for _ in range(2))
    w = rng.uniform(-1, 1, 3)
    twist = r.Twist(rng.uniform(-10, 10, 3), w)
    q = r.matrix_to_quat(r.random_rotation(rng))
    angles = r.EulerAngles(rng.uniform(-1, 1, 3))
    calls = {
        "compose": lambda: r.compose(a, b),
        "inverse": lambda: r.inverse(a),
        "so3_exp": lambda: r.so3_exp(w),
        "se3_exp": lambda: r.se3_exp(twist),
        "quat_to_matrix": lambda: r.quat_to_matrix(q),
        "euler_to_matrix": lambda: r.euler_to_matrix(angles),
    }
    for name, call in calls.items():
        with counted("_defects") as defects, counted("_nearest_rotation") as project:
            call()
        assert (defects.call_count, project.call_count) == (1, 0), name


def reference_repair(m):
    """The rule _repair must give, written out: measure the drift, re-project past ORTHO_TOL, then check."""
    if math.sqrt(_defects(*m.ravel().tolist())[0]) > ORTHO_TOL:
        m = _nearest_rotation(m)[0]
    return r.RotationMatrix(m)


def outcome(repair, m):
    try:
        return repair(m).m.tobytes()
    except Rigid3dError as exc:
        return type(exc), str(exc)


def sweep(rng, n):
    """n of each: rotations, reflections within tolerance, drifted rotations and reflections, scaled rotations."""
    out = []
    for _ in range(n):
        rot = r.random_rotation(rng).m
        noise = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-12, -2)
        reflection = rot * [1.0, 1.0, -1.0]
        scale = 1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-12, 0)
        out += [rot, reflection, rot + noise, reflection + noise, scale * rot]
    return out


@pytest.mark.parametrize("seed", range(3))
def test_repair_keeps_the_measure_then_check_rule(seed):
    rng = np.random.default_rng(seed)
    near = [near_tolerance(r.random_rotation(rng).m, rng) for _ in range(100)]
    ms = sweep(rng, 200) + near + [m.T for m in near]
    got = [outcome(_repair, m) for m in ms]
    want = [outcome(reference_repair, m) for m in ms]
    assert got == want
    errors = [g for g in got if isinstance(g, tuple)]
    assert 0 < len(errors) < len(ms) // 2
    assert {e[1] for e in errors} == {"matrix determinant is not +1 within 1e-9"}
