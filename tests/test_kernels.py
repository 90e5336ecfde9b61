"""Stacked SO(3)/SE(3) kernels against the scalar functions they stand in for.

The solvers run their per-sample work on stacks given as rows: the nine
row-major elements of n rotations as a (9, n) array, the three of n vectors
as (3, n). The per-element loops over the public scalar functions are kept
here as the reference.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigid3d as r
from rigid3d.errors import NotARotation, Rigid3dError
from rigid3d.se3 import _compose_stack, _inverse_stack, _stack_transforms
from rigid3d.so3 import _apply, _defects, _log, _log_stack, _mul, _overflow_ignored, _repair, _repair_stack, _transpose

from conftest import NEAR_PI, SMALL_ANGLE, random_transform
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
    """Rotation by exactly pi: symmetric, so so3_log applies the quaternion sign rule at w = 0."""
    a = unit(axis)
    return 2.0 * np.outer(a, a) - np.eye(3)


def rotation(axis, angle, exact_pi) -> np.ndarray:
    return half_turn(axis) if exact_pi else r.so3_exp(unit(axis) * angle).m


def stack_rows(ms) -> np.ndarray:
    """The contiguous (9, n) rows of an (n, 3, 3) stack of rotations."""
    return np.ascontiguousarray(np.reshape(ms, (-1, 9)).T)


def norm(v) -> float:
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


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
    assert np.array_equal(_log_stack(stack_rows(stack)).T, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_stack_is_bitwise_log_on_every_branch(seed):
    # angles straddling SMALL_ANGLE and NEAR_PI, mid-range ones, exact 0 and exact pi, in one shuffled stack
    rng = np.random.default_rng(seed)
    near = [SMALL_ANGLE * rng.uniform(0.5, 2.0, 100), NEAR_PI + rng.uniform(-1e-6, 1e-6, 100)]
    angles = np.concatenate([*near, rng.uniform(0.0, math.pi, 100), np.zeros(20)])
    ms = [r.so3_exp(unit(rng.standard_normal(3)) * a).m for a in angles]
    ms += [half_turn(rng.standard_normal(3)) for _ in range(20)] + [np.eye(3)]
    ms = np.array(ms)[rng.permutation(len(ms))]
    rows = ms.tolist()
    theta = np.array([math.acos(max(-1.0, min(1.0, (m[0][0] + m[1][1] + m[2][2] - 1.0) / 2.0))) for m in rows])
    assert min((theta < SMALL_ANGLE).sum(), ((theta >= SMALL_ANGLE) & (theta <= NEAR_PI)).sum(), (theta > NEAR_PI).sum()) > 50
    want = np.array([_log(m) for m in ms.reshape(-1, 9).tolist()])
    assert _log_stack(stack_rows(ms)).T.tobytes() == want.tobytes()  # tobytes: signed zeros count too


def test_log_stack_of_no_rows():
    assert _log_stack(np.zeros((9, 0))).shape == (3, 0)


BAD = {
    "reflection": lambda m: -m,
    "nan": lambda m: np.where(np.eye(3) == 1, np.nan, m),
    "inf": lambda m: np.where(np.eye(3) == 1, np.inf, m),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BAD)), st.integers(0, 4), SEEDS)
def test_stack_check_raises_what_rotation_matrix_raises(kind, pos, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([r.random_rotation(rng).m for _ in range(5)])
    stack[pos] = BAD[kind](stack[pos])
    with pytest.raises(Rigid3dError) as scalar:
        r.RotationMatrix(stack[pos])
    # under the error state that every library caller of _repair_stack gives it: an inf element's drift is inf - inf
    with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
        _overflow_ignored(_repair_stack)(stack_rows(stack))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), SEEDS)
def test_stack_check_repairs_drift_as_the_scalar_step_does(pos, seed):
    # a computed rotation off SO(3) by 1e-6 is re-projected, not rejected, and the caller's stack is not written
    rng = np.random.default_rng(seed)
    stack = np.array([r.random_rotation(rng).m for _ in range(5)])
    stack[pos] += 1e-6 * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    ms = stack_rows(stack)
    ms.setflags(write=False)
    got = _repair_stack(ms)
    assert np.array_equal(got[:, pos], _repair(stack[pos]).m.ravel())
    assert np.array_equal(np.delete(got, pos, axis=1), np.delete(ms, pos, axis=1))


def test_stack_check_reports_the_first_bad_element(rng):
    stack = np.array([r.random_rotation(rng).m for _ in range(4)])
    stack[1] = -stack[1]
    stack[3] = np.nan
    with pytest.raises(NotARotation, match="determinant"):
        _repair_stack(stack_rows(stack))


def test_stack_check_passes_valid_stack(rng):
    stack = stack_rows([r.random_rotation(rng).m for _ in range(10)])
    assert _repair_stack(stack) is stack


def test_strided_rows_give_the_bytes_of_contiguous_rows(rng):
    # _stack_transforms returns each stack as the transposed view of one (n, 9) or (n, 3) buffer
    poses = [random_transform(rng, trans_scale=10.0) for _ in range(50)]
    rs, ts = _stack_transforms(poses, "poses")
    assert not rs.flags.c_contiguous and not ts.flags.c_contiguous
    crs, cts = np.ascontiguousarray(rs), np.ascontiguousarray(ts)
    e, t = poses[0].rotation._e, poses[0]._t

    def outputs(rs, ts):
        return [
            _log_stack(rs), _defects(*rs), _mul(e, _transpose(rs)), _repair_stack(_mul(rs, e)),
            _apply(rs, ts), _apply(rs, t), _apply(e, ts),
            *_inverse_stack(rs, ts), *_compose_stack(rs, ts, _transpose(rs), t),
        ]

    for strided, contiguous in zip(outputs(rs, ts), outputs(crs, cts), strict=True):
        assert np.array(strided).tobytes() == np.array(contiguous).tobytes()


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(2, 40))
def test_relative_motions_match_scalar_chain(seed, n):
    rng = np.random.default_rng(seed)
    poses = [random_transform(rng, trans_scale=10.0) for _ in range(n)]
    want = [r.compose(r.inverse(a), b) for a, b in zip(poses, poses[1:])]
    got = r.relative_motions(iter(poses))
    assert len(got) == n - 1
    assert max_diff(got, want) == 0.0


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
    assert max_diff(est.predict(a_list), want) == 0.0


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_pivot_predict_matches_scalar_chain(seed):
    rng = np.random.default_rng(seed)
    _, _, poses = synthetic_pivot(rng, n=15, noise=0.1)
    est = r.PivotCalibrator().fit(poses)
    want = np.array([r.transform_point(p, est.tip_offset_) for p in poses])
    assert np.array_equal(est.predict(poses), want)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_residual_fields_match_per_sample_loops(seed):
    rng = np.random.default_rng(seed)
    _, _, poses = synthetic_pivot(rng, n=15, noise=0.1)
    res = r.pivot_calibrate(poses)
    want = [norm(r.transform_point(p, res.tip_offset) - res.pivot_point) for p in poses]
    assert np.array_equal(res.per_pose_residuals, want)
    assert res.rms_error == math.sqrt(float(np.mean(res.per_pose_residuals**2)))

    _, a_list, b_list = synthetic_handeye(rng, n=12, rot_noise=1e-3, trans_noise=0.5)
    res = r.hand_eye_calibrate(a_list, b_list)
    x_r, x_t = res.x.rotation, res.x.translation
    want = [
        norm(r.rotate(a.rotation, x_t) - x_t - (r.rotate(x_r, b.translation) - a.translation))
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
