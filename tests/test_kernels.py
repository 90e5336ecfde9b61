"""Stacked SO(3)/SE(3) kernels against the scalar functions they stand in for.

The solvers run their per-sample work on (n, 3, 3) and (n, 3) stacks. The
per-element loops over the public scalar functions are kept here as the
reference.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigid3d as r
from rigid3d.errors import NotARotation, Rigid3dError
from rigid3d.so3 import NEAR_PI, SMALL_ANGLE, _check_rotation_stack, _log_stack

from conftest import random_transform
from test_calibration import synthetic_handeye, synthetic_pivot

AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
ANGLES = st.one_of(
    st.floats(0.0, SMALL_ANGLE),
    st.floats(SMALL_ANGLE, NEAR_PI),
    st.floats(NEAR_PI, math.pi),
    st.just(math.pi),
)
SEEDS = st.integers(0, 2**32 - 1)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def half_turn(axis) -> np.ndarray:
    """Rotation by exactly pi: symmetric, so so3_log takes its sign-tie branch."""
    a = unit(axis)
    return 2.0 * np.outer(a, a) - np.eye(3)


def rotation(axis, angle, exact_pi) -> np.ndarray:
    return half_turn(axis) if exact_pi else r.so3_exp(unit(axis) * angle).m


def max_diff(got, want) -> float:
    return max(
        max(np.max(np.abs(g.rotation.m - w.rotation.m)), np.max(np.abs(g.translation - w.translation)))
        for g, w in zip(got, want)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(AXES, ANGLES, st.booleans()), min_size=1, max_size=8))
def test_log_stack_is_bitwise_so3_log(items):
    stack = np.array([rotation(*item) for item in items])
    want = np.array([r.so3_log(r.RotationMatrix(m)) for m in stack])
    assert np.array_equal(_log_stack(stack), want)


BAD = {
    "reflection": lambda m: -m,
    "off_orthogonal": lambda m: m + 1e-6 * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    "nan": lambda m: np.where(np.eye(3) == 1, np.nan, m),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BAD)), st.integers(0, 4), SEEDS)
def test_stack_check_raises_what_rotation_matrix_raises(kind, pos, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([r.random_rotation(rng).m for _ in range(5)])
    stack[pos] = BAD[kind](stack[pos])
    with pytest.raises(Rigid3dError) as scalar:
        r.RotationMatrix(stack[pos])
    with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
        _check_rotation_stack(stack)


def test_stack_check_reports_the_first_bad_element(rng):
    stack = np.array([r.random_rotation(rng).m for _ in range(4)])
    stack[1] = -stack[1]
    stack[3] = np.nan
    with pytest.raises(NotARotation, match="determinant"):
        _check_rotation_stack(stack)


def test_stack_check_passes_valid_stack(rng):
    stack = np.array([r.random_rotation(rng).m for _ in range(10)])
    assert _check_rotation_stack(stack) is stack


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(2, 40))
def test_relative_motions_match_scalar_chain(seed, n):
    rng = np.random.default_rng(seed)
    poses = [random_transform(rng, trans_scale=10.0) for _ in range(n)]
    want = [r.compose(r.inverse(a), b) for a, b in zip(poses, poses[1:])]
    got = r.relative_motions(iter(poses))
    assert len(got) == n - 1
    assert max_diff(got, want) <= 1e-12


def test_relative_motions_reproject_like_scalar_chain(rng):
    # each pose is valid (drift 8.7e-10), each T_i^-1 T_{i+1} product (drift 1.7e-9) is re-projected
    scale = 1.0 + 2.5e-10
    poses = [r.Transform(scale * r.random_rotation(rng).m, rng.standard_normal(3)) for _ in range(6)]
    want = [r.compose(r.inverse(a), b) for a, b in zip(poses, poses[1:])]
    got = r.relative_motions(poses)
    for g, w in zip(got, want):
        assert np.array_equal(g.rotation.m, w.rotation.m)
        assert np.array_equal(g.translation, w.translation)
        assert np.linalg.norm(g.rotation.m.T @ g.rotation.m - np.eye(3)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_hand_eye_predict_matches_scalar_chain(seed):
    rng = np.random.default_rng(seed)
    _, a_list, b_list = synthetic_handeye(rng, n=12, rot_noise=1e-3, trans_noise=0.5)
    est = r.HandEyeCalibrator().fit(a_list, b_list)
    x = est.transform_
    want = [r.compose(r.compose(r.inverse(x), a), x) for a in a_list]
    assert max_diff(est.predict(a_list), want) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_pivot_predict_matches_scalar_chain(seed):
    rng = np.random.default_rng(seed)
    _, _, poses = synthetic_pivot(rng, n=15, noise=0.1)
    est = r.PivotCalibrator().fit(poses)
    want = np.array([r.transform_point(p, est.tip_offset_) for p in poses])
    assert np.max(np.abs(est.predict(poses) - want)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_residual_fields_match_per_sample_loops(seed):
    rng = np.random.default_rng(seed)
    _, _, poses = synthetic_pivot(rng, n=15, noise=0.1)
    res = r.pivot_calibrate(poses)
    want = [np.linalg.norm(p.rotation.m @ res.tip_offset + p.translation - res.pivot_point) for p in poses]
    assert np.array_equal(res.per_pose_residuals, want)
    assert res.rms_error == math.sqrt(float(np.mean(res.per_pose_residuals**2)))

    _, a_list, b_list = synthetic_handeye(rng, n=12, rot_noise=1e-3, trans_noise=0.5)
    res = r.hand_eye_calibrate(a_list, b_list)
    x_r, x_t = res.x.rotation.m, res.x.translation
    want = [
        np.linalg.norm((a.rotation.m - np.eye(3)) @ x_t - (x_r @ b.translation - a.translation))
        for a, b in zip(a_list, b_list)
    ]
    assert np.array_equal(res.per_motion_translation_residuals, want)
    assert res.translation_rms == math.sqrt(float(np.mean(res.per_motion_translation_residuals**2)))


@pytest.mark.parametrize("angle", [math.pi, math.pi - 1e-6])
@pytest.mark.parametrize("slot", [0, 5, 9])
def test_hand_eye_with_one_motion_near_half_turn(rng, angle, slot):
    x0, a_list, b_list = synthetic_handeye(rng, n=10)
    b_list[slot] = r.Transform(r.so3_exp(unit(rng.standard_normal(3)) * angle), rng.uniform(-100, 100, 3))
    a_list[slot] = r.compose(r.compose(x0, b_list[slot]), r.inverse(x0))
    res = r.hand_eye_calibrate(a_list, b_list)
    assert r.geodesic_distance(res.x.rotation, x0.rotation) < 1e-8
    assert np.linalg.norm(res.x.translation - x0.translation) < 1e-8
    assert res.rotation_rms < 1e-8
