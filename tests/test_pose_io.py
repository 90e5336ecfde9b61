import io

import numpy as np
import pytest

import rigid3d as r
from rigid3d.errors import NonUnitQuaternion, ParseError, Rigid3dError, TooFewPoses
from rigid3d.pose_io import (
    parse_points_csv,
    parse_pose_csv,
    serialize_points_csv,
    serialize_pose_csv,
)
from rigid3d.so3 import _quat_norm

from conftest import random_transform


class TestParsePoses:
    def test_identity_pose(self):
        poses = parse_pose_csv(io.StringIO("0,0,0,1,0,0,0\n"))
        assert len(poses) == 1
        assert np.array_equal(r.to_matrix4(poses[0]), np.eye(4))

    def test_header_and_order(self):
        text = "tx,ty,tz,qw,qx,qy,qz\n1,0,0,1,0,0,0\n2,0,0,1,0,0,0\n"
        poses = parse_pose_csv(io.StringIO(text))
        assert [t.translation[0] for t in poses] == [1.0, 2.0]

    def test_comments_skipped(self):
        text = "# a comment\n0,0,0,1,0,0,0\n\n# trailing\n"
        assert len(parse_pose_csv(io.StringIO(text))) == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_pose_csv(io.StringIO("0,0,0,1,0,0\n"))
        assert exc.value.line == 1

    def test_non_numeric(self):
        with pytest.raises(ParseError) as exc:
            parse_pose_csv(io.StringIO("0,0,0,1,0,0,0\n0,0,abc,1,0,0,0\n"))
        assert exc.value.line == 2

    def test_gross_quaternion_rejected(self):
        with pytest.raises(NonUnitQuaternion) as exc:
            parse_pose_csv(io.StringIO("0,0,0,2,0,0,0\n"))
        assert exc.value.line == 1

    def test_small_drift_renormalized(self):
        poses = parse_pose_csv(io.StringIO("0,0,0,1.0001,0,0,0\n"))
        # (1.0001, 0, 0, 0) divided by its norm is exactly (1, 0, 0, 0)
        assert np.array_equal(poses[0].rotation.m, np.eye(3))

    def test_floats_match_the_public_constructors(self):
        # parsing builds each Transform from its floats; they are those of the public constructors, bit for bit
        rng = np.random.default_rng(2121)
        q = rng.standard_normal((1000, 4))
        q /= np.sqrt((q * q).sum(axis=1, keepdims=True))
        q *= rng.uniform(1.0 - 5e-4, 1.0 + 5e-4, (1000, 1))  # drift within QUAT_REJECT_TOL, renormalized
        rows = np.hstack([rng.uniform(-100.0, 100.0, (1000, 3)), q]).tolist()
        poses = parse_pose_csv(io.StringIO("".join(",".join(map(repr, row)) + "\n" for row in rows)))
        assert len(poses) == 1000
        for pose, (tx, ty, tz, *quat) in zip(poses, rows):
            n = _quat_norm(*quat)
            want = r.Transform(r.quat_to_matrix(r.UnitQuaternion(*(c / n for c in quat))), np.array([tx, ty, tz]))
            assert (pose.rotation._e, pose._t) == (want.rotation._e, want._t)
            t = pose.translation
            assert (t.dtype, t.shape, t.flags.writeable) == (np.float64, (3,), False)
            assert t.tolist() == [tx, ty, tz]


class TestParsePoints:
    def test_origin(self):
        points = parse_points_csv(io.StringIO("0,0,0\n"))
        assert points.dtype == np.float64
        assert np.array_equal(points, np.zeros((1, 3)))

    def test_two_points_in_order(self):
        points = parse_points_csv(io.StringIO("1,2,3\n4,5,6\n"))
        assert np.array_equal(points, [[1, 2, 3], [4, 5, 6]])

    def test_header_only_is_empty(self):
        assert parse_points_csv(io.StringIO("x,y,z\n")).shape == (0, 3)

    def test_nan_rejected(self):
        with pytest.raises(ParseError):
            parse_points_csv(io.StringIO("1,2,nan\n"))


class TestRoundTrip:
    def test_pose_serialize_parse(self, rng):
        poses = [random_transform(rng) for _ in range(20)]
        back = parse_pose_csv(io.StringIO(serialize_pose_csv(poses)))
        assert len(back) == len(poses)
        for a, b in zip(poses, back):
            assert np.array_equal(a.translation, b.translation)
            qa, qb = r.matrix_to_quat(a.rotation).components(), r.matrix_to_quat(b.rotation).components()
            assert np.all(np.abs(qa - qb) <= 1e-15)

    def test_points_serialize_parse(self, rng):
        points = rng.standard_normal((20, 3))
        back = parse_points_csv(io.StringIO(serialize_points_csv(points)))
        assert np.array_equal(back, points)

    @pytest.mark.parametrize("points", [np.zeros((2, 2)), [[0.0, 0.0, np.nan]]])
    def test_points_serialize_validates(self, points):
        with pytest.raises(Rigid3dError):
            serialize_points_csv(points)


class TestRelativeMotions:
    def test_equal_poses_give_identity(self, rng):
        t = random_transform(rng)
        motions = r.relative_motions([t, t])
        np.testing.assert_allclose(r.to_matrix4(motions[0]), np.eye(4), atol=1e-12)

    def test_from_identity(self, rng):
        t = random_transform(rng)
        motions = r.relative_motions([r.Transform.identity(), t])
        np.testing.assert_allclose(r.to_matrix4(motions[0]), r.to_matrix4(t), atol=1e-12)

    def test_telescoping_product(self, rng):
        poses = [random_transform(rng) for _ in range(10)]
        motions = r.relative_motions(poses)
        acc = poses[0]
        for m in motions:
            acc = r.compose(acc, m)
        np.testing.assert_allclose(r.to_matrix4(acc), r.to_matrix4(poses[-1]), atol=1e-12)

    def test_translation_overflow_is_rejected(self):
        poses = [r.Transform(r.RotationMatrix.identity(), [s * 1e308] * 3) for s in (1.0, -1.0, 1.0, -1.0)]
        with pytest.raises(Rigid3dError, match="^translation contains non-finite values$"):
            r.relative_motions(poses)

    def test_too_few(self, rng):
        with pytest.raises(TooFewPoses):
            r.relative_motions([random_transform(rng)])
