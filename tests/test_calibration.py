import math

import numpy as np
import pytest

import rigid3d as r
from rigid3d.errors import (
    DegenerateGeometry,
    DegenerateMatrix,
    DegenerateMotion,
    Rigid3dError,
    TooFewMotions,
    TooFewPoints,
    TooFewPoses,
)
from rigid3d.calibration import _BLOCK
from rigid3d.so3 import _apply, _sq

from conftest import random_transform


def synthetic_pivot(rng, n=20, noise=0.0, max_angle=math.pi / 2):
    tip = rng.uniform(-50, 50, 3)
    pivot = rng.uniform(-100, 100, 3)
    poses = []
    for _ in range(n):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rot = r.so3_exp(axis * rng.uniform(0, max_angle))
        t = pivot - rot.m @ tip + rng.normal(0.0, noise, 3) if noise else pivot - rot.m @ tip
        poses.append(r.Transform(rot, t))
    return tip, pivot, poses


def synthetic_handeye(rng, n=10, rot_noise=0.0, trans_noise=0.0):
    x0 = r.Transform(r.random_rotation(rng), rng.uniform(-100, 100, 3))
    b_list = []
    for _ in range(n):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        w = axis * rng.uniform(math.radians(30), math.radians(90))
        b_list.append(r.Transform(r.so3_exp(w), rng.uniform(-100, 100, 3)))
    a_list = [r.compose(r.compose(x0, b), r.inverse(x0)) for b in b_list]

    def perturb(t):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        d = r.so3_exp(axis * rng.normal(0.0, rot_noise)) if rot_noise else r.RotationMatrix.identity()
        return r.Transform(
            r.RotationMatrix(d.m @ t.rotation.m),
            t.translation + (rng.normal(0.0, trans_noise, 3) if trans_noise else 0.0),
        )

    if rot_noise or trans_noise:
        a_list = [perturb(a) for a in a_list]
        b_list = [perturb(b) for b in b_list]
    return x0, a_list, b_list


def huge_pose(rng):
    """A random rotation and a translation of norm 1.5e308: a sum of two such translations overflows."""
    u = rng.standard_normal(3)
    return r.Transform(r.random_rotation(rng), 1.5e308 * (u / np.linalg.norm(u)))


def seeded_registration(seed):
    """Index-paired point sets (p, q): 3 to 39 points, q a rigid motion of p, with noise on odd seeds."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((rng.integers(3, 40), 3)) * rng.uniform(0.1, 100.0)
    t0 = random_transform(rng, rng.uniform(0.1, 100.0))
    q = p @ t0.rotation.m.T + t0.translation
    return p, q + rng.normal(0.0, 1e-2, q.shape) if seed % 2 else q


class TestRegistration:
    def test_identity(self):
        p = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        res = r.register_point_sets(p, p)
        np.testing.assert_allclose(res.transform.rotation.m, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(res.transform.translation, np.zeros(3), atol=1e-12)
        assert res.rms_error < 1e-12

    def test_recovers_ground_truth(self, rng):
        for _ in range(100):
            p = rng.standard_normal((10, 3))
            t0 = random_transform(rng)
            q = p @ t0.rotation.m.T + t0.translation
            res = r.register_point_sets(p, q)
            assert r.geodesic_distance(res.transform.rotation, t0.rotation) < 1e-9
            assert np.linalg.norm(res.transform.translation - t0.translation) < 1e-9
            assert res.rms_error < 1e-9

    def test_collinear_rejected(self):
        p = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        with pytest.raises(DegenerateGeometry):
            r.register_point_sets(p, p)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            r.register_point_sets([[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [1, 0, 0]])

    def test_cross_covariance_overflow_is_rejected(self):
        p = np.array([[1e155, 0, 0], [0, 1e155, 0], [0, 0, 1e155], [1, 2, 3]])
        with pytest.raises(Rigid3dError, match="^cross-covariance of the points overflows double precision$"):
            r.register_point_sets(p, p)

    # the cross-covariance is finite in both; the residuals' norms overflow in the first,
    # their mean square in the second
    @pytest.mark.parametrize("q", [[[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], -np.eye(4, 3)])
    def test_residual_overflow_is_rejected(self, q):
        p = np.eye(4, 3)
        with pytest.raises(Rigid3dError, match="^residual RMS overflows double precision$"):
            r.register_point_sets(p, 1e154 * np.array(q, dtype=float))

    def test_residuals_equal_transform_point_bitwise(self):
        for seed in range(200):
            p, q = seeded_registration(seed)
            res = r.register_point_sets(p, q)
            for i, residual in enumerate(res.per_point_residuals):
                expected = math.sqrt(_sq(*(r.transform_point(res.transform, p[i]) - q[i])))
                assert residual == expected, (seed, i)

    def test_output_bytes_do_not_follow_the_memory_layout(self):
        # F columns would be summed pairwise and the BLAS product would follow the layout; C input is read as given
        for seed in range(40):
            rng = np.random.default_rng([seed, 28])
            n = int(rng.integers(3, 5001))
            p = rng.uniform(-100.0, 100.0, (n, 3))
            t0 = random_transform(rng, 50.0)
            q = p @ t0.rotation.m.T + t0.translation + rng.normal(0.0, 1e-3, (n, 3))
            wide_p, wide_q = np.zeros((2 * n, 5)), np.zeros((2 * n, 5))
            wide_p[::2, 1:4], wide_q[::2, 1:4] = p, q
            layouts = {
                "C": (p, q),
                "F": (np.asfortranarray(p), np.asfortranarray(q)),
                "strided": (wide_p[::2, 1:4], wide_q[::2, 1:4]),
            }
            outs = {}
            for name, (a, b) in layouts.items():
                res = r.register_point_sets(a, b)
                outs[name] = (r.to_matrix4(res.transform).tobytes(), res.rms_error, res.per_point_residuals.tobytes())
            assert outs["F"] == outs["C"] and outs["strided"] == outs["C"], (seed, n)

    @pytest.mark.parametrize("n", [3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    def test_blocked_kernels_are_the_unblocked_formula(self, n):
        rng = np.random.default_rng(n)
        p = rng.uniform(-10.0, 10.0, (n, 3))
        t0 = random_transform(rng, 5.0)
        q = p @ t0.rotation.m.T + t0.translation + rng.normal(0.0, 1e-3, (n, 3))
        res = r.register_point_sets(p, q)
        e, t = res.transform.rotation._e, res.transform._t
        moved = _apply(e, p.T)
        residuals = np.sqrt(_sq(*[x + y - z for x, y, z in zip(moved, t, q.T)]))
        assert res.per_point_residuals.tobytes() == residuals.tobytes()
        transformed = np.stack(moved, axis=-1) + t
        est = r.RigidRegistration().fit(p, q)
        for pts in (p, np.asfortranarray(p)):
            out = est.transform(pts)
            assert out.flags.c_contiguous and out.tobytes() == transformed.tobytes()

    def test_centroid_is_the_mean_bit_for_bit(self):
        # register_point_sets sums each column of its C-ordered copy with np.einsum("ij->j", p), in mean(axis=0)'s order
        for seed in range(40):
            rng = np.random.default_rng([seed, 2801])
            n = int(rng.integers(1, 20_001))
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            p = rng.standard_normal((n, 3)) * scale + rng.standard_normal(3) * 10.0 * scale
            assert (np.einsum("ij->j", p) / n).tobytes() == p.mean(axis=0).tobytes(), (seed, n)

    def test_rms_matches_per_point(self, rng):
        p = rng.standard_normal((8, 3))
        q = p + rng.normal(0, 0.1, p.shape)
        res = r.register_point_sets(p, q)
        assert abs(res.rms_error - math.sqrt(np.mean(res.per_point_residuals**2))) < 1e-12

    def test_left_invariance(self, rng):
        p = rng.standard_normal((12, 3))
        q = p + rng.normal(0, 0.05, p.shape)
        g = random_transform(rng)
        rms0 = r.register_point_sets(p, q).rms_error
        gp = p @ g.rotation.m.T + g.translation
        gq = q @ g.rotation.m.T + g.translation
        rms1 = r.register_point_sets(gp, gq).rms_error
        assert abs(rms0 - rms1) < 1e-9

    def test_never_returns_reflection(self, rng):
        for _ in range(200):
            p = rng.standard_normal((6, 3))
            extent = p.max() - p.min()
            q = p @ r.random_rotation(rng).m.T + rng.normal(0, 0.01 * extent, p.shape)
            res = r.register_point_sets(p, q)
            assert np.linalg.det(res.transform.rotation.m) > 0

    def test_deterministic(self, rng):
        p = rng.standard_normal((10, 3))
        q = p + rng.normal(0, 0.1, p.shape)
        a = r.register_point_sets(p, q)
        b = r.register_point_sets(p, q)
        assert np.array_equal(a.transform.rotation.m, b.transform.rotation.m)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert a.rms_error == b.rms_error


class TestPivot:
    def test_recovers_ground_truth(self, rng):
        for _ in range(100):
            tip, pivot, poses = synthetic_pivot(rng)
            res = r.pivot_calibrate(poses)
            assert np.linalg.norm(res.tip_offset - tip) < 1e-9
            assert np.linalg.norm(res.pivot_point - pivot) < 1e-9
            assert res.rms_error < 1e-9

    def test_accepts_pose_samples(self, rng):
        tip, pivot, poses = synthetic_pivot(rng, n=5)
        res = r.pivot_calibrate(p for p in poses)
        assert np.linalg.norm(res.tip_offset - tip) < 1e-9

    def test_shared_rotation_rejected(self, rng):
        rot = r.random_rotation(rng)
        poses = [r.Transform(rot, rng.standard_normal(3)) for _ in range(5)]
        with pytest.raises(DegenerateMotion):
            r.pivot_calibrate(poses)

    def test_too_few_poses(self, rng):
        with pytest.raises(TooFewPoses):
            r.pivot_calibrate([random_transform(rng), random_transform(rng)])

    @pytest.mark.parametrize("tilt, accepted", [(1e-2, True), (1e-5, False)])
    def test_tilt_threshold(self, rng, tilt, accepted):
        tip, pivot, poses = synthetic_pivot(rng, n=10, max_angle=tilt)
        if accepted:
            assert np.linalg.norm(r.pivot_calibrate(poses).tip_offset - tip) < 1e-6
        else:
            with pytest.raises(DegenerateMotion, match="tip and pivot are not separable"):
                r.pivot_calibrate(poses)

    def test_identity_rotations_rejected_without_division(self, rng):
        # A = [I, -I] stacked has three singular values of exactly 0
        poses = [r.Transform(r.RotationMatrix.identity(), t) for t in rng.standard_normal((3, 3))]
        with pytest.raises(DegenerateMotion, match="tip and pivot are not separable"):
            r.pivot_calibrate(poses)

    def test_residual_overflow_is_rejected(self, rng):
        poses = [random_transform(rng, trans_scale=1e200) for _ in range(6)]
        with pytest.raises(Rigid3dError, match="^residual RMS overflows double precision$"):
            r.pivot_calibrate(poses)

    def test_overflowing_residual_sum_is_rejected_without_a_warning(self):
        # R_i g + t_i - b overflows before the norm for seeds 11, 16, 18 and 19; the warnings filter is "error"
        for seed in range(20):
            rng = np.random.default_rng(seed)
            with pytest.raises(Rigid3dError, match="^residual RMS overflows double precision$"):
                r.pivot_calibrate([huge_pose(rng) for _ in range(6)])

    def test_noise_bound(self, rng):
        # translation noise sigma 0.1 (mm scale), 50 poses: tip error stays below 0.1
        hits = 0
        for _ in range(50):
            tip, _, poses = synthetic_pivot(rng, n=50, noise=0.1)
            res = r.pivot_calibrate(poses)
            hits += np.linalg.norm(res.tip_offset - tip) < 0.1
        assert hits >= 47

    @pytest.mark.parametrize("seed", range(50))
    def test_left_invariance(self, seed):
        # on G T_i the tip is unchanged and the pivot point is G b
        rng = np.random.default_rng(seed)
        _, _, poses = synthetic_pivot(rng)
        g = r.Transform(r.random_rotation(rng), rng.uniform(-100, 100, 3))
        res = r.pivot_calibrate(poses)
        moved = r.pivot_calibrate([r.compose(g, p) for p in poses])
        np.testing.assert_allclose(moved.tip_offset, res.tip_offset, rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved.pivot_point, r.transform_point(g, res.pivot_point), rtol=0, atol=1e-9)

    def test_deterministic(self, rng):
        _, _, poses = synthetic_pivot(rng)
        a, b = r.pivot_calibrate(poses), r.pivot_calibrate(poses)
        assert np.array_equal(a.tip_offset, b.tip_offset)
        assert np.array_equal(a.pivot_point, b.pivot_point)


class TestHandEye:
    def test_recovers_ground_truth(self, rng):
        for _ in range(50):
            x0, a_list, b_list = synthetic_handeye(rng)
            res = r.hand_eye_calibrate(a_list, b_list)
            assert r.geodesic_distance(res.x.rotation, x0.rotation) < 1e-8
            assert np.linalg.norm(res.x.translation - x0.translation) < 1e-8
            assert res.rotation_rms < 1e-8
            assert res.translation_rms < 1e-8

    def test_equation_holds_on_noiseless_data(self, rng):
        x0, a_list, b_list = synthetic_handeye(rng)
        res = r.hand_eye_calibrate(a_list, b_list)
        for a, b in zip(a_list, b_list):
            left = r.compose(a, res.x)
            right = r.compose(res.x, b)
            assert r.geodesic_distance(left.rotation, right.rotation) < 1e-8
            assert np.linalg.norm(left.translation - right.translation) < 1e-8

    def test_single_axis_rejected(self, rng):
        x0 = random_transform(rng)
        b_list = [r.Transform(r.so3_exp([0, 0, a]), rng.standard_normal(3)) for a in (0.4, 0.9, 1.3)]
        a_list = [r.compose(r.compose(x0, b), r.inverse(x0)) for b in b_list]
        with pytest.raises(DegenerateMotion):
            r.hand_eye_calibrate(a_list, b_list)

    @pytest.mark.parametrize("rotating", [1, 0])
    def test_fewer_than_two_rotating_motions_rejected(self, rng, rotating):
        # pure translations have no rotation axis: one rotating pair, or none, leaves no second axis to compare
        x0 = random_transform(rng)
        rots = [r.so3_exp([0.3, -0.5, 0.8])] * rotating + [r.RotationMatrix.identity()] * (3 - rotating)
        b_list = [r.Transform(rot, rng.standard_normal(3)) for rot in rots]
        a_list = [r.compose(r.compose(x0, b), r.inverse(x0)) for b in b_list]
        with pytest.raises(DegenerateMotion, match="^need at least 2 motions with nonzero rotation$"):
            r.hand_eye_calibrate(a_list, b_list)

    def test_too_few_motions(self, rng):
        with pytest.raises(TooFewMotions):
            r.hand_eye_calibrate([random_transform(rng)], [random_transform(rng)])

    def test_generator_pairs_give_the_bytes_of_lists(self, rng):
        _, a_list, b_list = synthetic_handeye(rng, n=12, rot_noise=1e-3, trans_noise=0.5)
        want = r.hand_eye_calibrate(a_list, b_list)
        got = r.hand_eye_calibrate(iter(a_list), (b for b in b_list))
        assert r.to_matrix4(got.x).tobytes() == r.to_matrix4(want.x).tobytes()
        assert (got.rotation_rms, got.translation_rms) == (want.rotation_rms, want.translation_rms)
        assert got.per_motion_translation_residuals.tobytes() == want.per_motion_translation_residuals.tobytes()
        est = r.HandEyeCalibrator().fit(iter(a_list), iter(b_list))
        assert r.to_matrix4(est.transform_).tobytes() == r.to_matrix4(want.x).tobytes()
        assert (est.rotation_rms_, est.translation_rms_) == (want.rotation_rms, want.translation_rms)
        with pytest.raises(TooFewMotions, match="^motion lists must have equal length$"):
            r.hand_eye_calibrate(iter(a_list), iter(b_list[1:]))
        with pytest.raises(TooFewMotions, match="at least 3 motion pairs"):
            r.hand_eye_calibrate(iter(a_list[:2]), iter(b_list[:2]))

    def test_two_motions_are_too_few(self, rng):
        # M = sum beta_i alpha_i^T has rank <= 2 for two pairs, so X is never determined
        _, a_list, b_list = synthetic_handeye(rng, n=2)
        with pytest.raises(TooFewMotions, match="at least 3 motion pairs"):
            r.hand_eye_calibrate(a_list, b_list)

    def test_coplanar_axes_rejected(self, rng):
        # axes are pairwise non-parallel, but all lie in one plane: M^T M is singular
        x0 = random_transform(rng)
        axes = [[math.cos(t), math.sin(t), 0.0] for t in (0.0, 1.0, 2.0)]
        b_list = [r.Transform(r.so3_exp(w), rng.standard_normal(3)) for w in axes]
        a_list = [r.compose(r.compose(x0, b), r.inverse(x0)) for b in b_list]
        with pytest.raises(DegenerateMotion, match="not diverse enough"):
            r.hand_eye_calibrate(a_list, b_list)

    def test_reflected_correlation_rejected(self, rng):
        # A_i = X B_i^-1 X^-1 gives alpha_i = -R_X beta_i, so M^T = -R_X sum beta_i beta_i^T: its polar
        # factor -R_X is a reflection, and the nearest rotation to it would be a wrong X
        x0, _, b_list = synthetic_handeye(rng)
        a_list = [r.compose(r.compose(x0, r.inverse(b)), r.inverse(x0)) for b in b_list]
        with pytest.raises(DegenerateMatrix, match="polar factor of M is a reflection"):
            r.hand_eye_calibrate(a_list, b_list)

    def test_near_coplanar_axes_give_the_exact_rotation(self):
        # Noise-free motions about (cos i, sin i, eps z_i), eps = 10^U(-4, -2.5): M's smallest singular
        # value is of order eps^2, so the sets straddle the rejection test. Each accepted X is exact.
        rng = np.random.default_rng(2024)
        accepted = 0
        for _ in range(200):
            x0 = r.Transform(r.random_rotation(rng), rng.uniform(-100, 100, 3))
            eps = 10.0 ** rng.uniform(-4, -2.5)
            axes = [[math.cos(i), math.sin(i), eps * rng.standard_normal()] for i in range(8)]
            b_list = [r.Transform(r.so3_exp(w), rng.uniform(-100, 100, 3)) for w in axes]
            a_list = [r.compose(r.compose(x0, b), r.inverse(x0)) for b in b_list]
            try:
                res = r.hand_eye_calibrate(a_list, b_list)
            except DegenerateMotion:
                continue
            accepted += 1
            assert r.geodesic_distance(res.x.rotation, x0.rotation) <= 1e-12
        assert 0 < accepted < 200

    def test_parallel_axes_rejected_where_mtm_test_passes(self):
        # Inconsistent pairs: every A-axis lies 0.99e-6 rad from the first (just inside
        # PARALLEL_AXIS_TOL), the B-axes are random with the same angles. For this seed
        # the M^T M test alone accepts the set and returns an arbitrary X, so only the
        # axis-diversity test rejects it.
        rng = np.random.default_rng(54)
        axis0 = rng.standard_normal(3)
        axis0 /= np.linalg.norm(axis0)
        a_list, b_list = [], []
        for i, angle in enumerate(rng.uniform(0.1, math.pi - 0.1, 50)):
            perp = np.cross(axis0, rng.standard_normal(3))
            perp /= np.linalg.norm(perp)
            axis = axis0 if i == 0 else math.cos(0.99e-6) * axis0 + math.sin(0.99e-6) * perp
            a_list.append(r.Transform(r.so3_exp(axis / np.linalg.norm(axis) * angle), rng.uniform(-1, 1, 3)))
            b_axis = rng.standard_normal(3)
            b_list.append(r.Transform(r.so3_exp(b_axis / np.linalg.norm(b_axis) * angle), rng.uniform(-1, 1, 3)))
        m = sum(np.outer(r.so3_log(b.rotation), r.so3_log(a.rotation)) for a, b in zip(a_list, b_list))
        evals = np.linalg.eigvalsh(m.T @ m)
        assert evals[0] >= 1e-12 * max(evals[-1], 1.0)  # the M^T M test would pass
        with pytest.raises(DegenerateMotion, match="parallel"):
            r.hand_eye_calibrate(a_list, b_list)

    def test_residual_overflow_is_rejected(self, rng):
        _, a_list, b_list = synthetic_handeye(rng)
        a_list, b_list = ([r.Transform(t.rotation, 1e200 * t.translation) for t in ts] for ts in (a_list, b_list))
        with pytest.raises(Rigid3dError, match="^residual RMS overflows double precision$"):
            r.hand_eye_calibrate(a_list, b_list)

    def test_overflowing_translation_system_is_rejected_without_a_warning(self):
        # R_X t_Bi - t_Ai overflows for 20 of these 40 seeds; the warnings filter is "error"
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a_list = [huge_pose(rng) for _ in range(6)]
            b_list = [huge_pose(rng) for _ in range(6)]
            with pytest.raises(Rigid3dError):
                r.hand_eye_calibrate(a_list, b_list)

    @pytest.mark.xfail(
        strict=True, raises=DegenerateMatrix, reason="known defect (ROADMAP item 2): 27 of 50 seeds raise DegenerateMatrix"
    )
    def test_exact_half_turn_motion_on_every_seed(self):
        # motion 5 replaced by a half turn from a w = 0 quaternion, so R_B is exactly symmetric
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x0, a_list, b_list = synthetic_handeye(rng, n=10)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            b_list[5] = r.Transform(r.quat_to_matrix(r.UnitQuaternion(0.0, *axis)), rng.uniform(-100, 100, 3))
            a_list[5] = r.compose(r.compose(x0, b_list[5]), r.inverse(x0))
            res = r.hand_eye_calibrate(a_list, b_list)
            assert r.geodesic_distance(res.x.rotation, x0.rotation) < 1e-6

    def test_noise_bound(self, rng):
        # 0.1 deg rotation / 0.5 mm translation noise, 20 pairs
        hits = 0
        for _ in range(50):
            x0, a_list, b_list = synthetic_handeye(
                rng, n=20, rot_noise=math.radians(0.1), trans_noise=0.5
            )
            res = r.hand_eye_calibrate(a_list, b_list)
            ok = (
                r.geodesic_distance(res.x.rotation, x0.rotation) < math.radians(0.5)
                and np.linalg.norm(res.x.translation - x0.translation) < 2.0
            )
            hits += ok
        assert hits >= 47

    @pytest.mark.parametrize("seed", range(50))
    def test_world_frame_invariance(self, seed):
        # stream A's absolute poses re-expressed in a moved world, G A_i, give the same relative motions
        rng = np.random.default_rng(seed)
        _, a_motions, b_motions = synthetic_handeye(rng)
        a_abs, b_abs = [random_transform(rng, trans_scale=100.0)], [random_transform(rng, trans_scale=100.0)]
        for a, b in zip(a_motions, b_motions):
            a_abs.append(r.compose(a_abs[-1], a))
            b_abs.append(r.compose(b_abs[-1], b))
        g = r.Transform(r.random_rotation(rng), rng.uniform(-100, 100, 3))
        b_rel = r.relative_motions(b_abs)
        x = r.hand_eye_calibrate(r.relative_motions(a_abs), b_rel).x
        moved = r.hand_eye_calibrate(r.relative_motions([r.compose(g, a) for a in a_abs]), b_rel).x
        np.testing.assert_allclose(moved.rotation.m, x.rotation.m, rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved.translation, x.translation, rtol=0, atol=1e-9)

    def test_deterministic(self, rng):
        _, a_list, b_list = synthetic_handeye(rng)
        a = r.hand_eye_calibrate(a_list, b_list)
        b = r.hand_eye_calibrate(a_list, b_list)
        assert np.array_equal(a.x.rotation.m, b.x.rotation.m)
        assert np.array_equal(a.x.translation, b.x.translation)
