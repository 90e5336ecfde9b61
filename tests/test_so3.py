import math
import os
import pathlib
import platform
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

import rigid3d as r
from rigid3d.errors import (
    DegenerateMatrix,
    NotARotation,
    NotSkewSymmetric,
    NotUnitQuaternion,
    Rigid3dError,
    UnsupportedConvention,
)

from conftest import NEAR_PI, random_rotvec


def raises_without_warning(error, call, match=None):
    """call() raises error, and no warning (an overflow's RuntimeWarning) comes before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


def matrix_exp_series(k, terms=30):
    """Independent oracle: truncated power series of a 3x3 matrix."""
    acc = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms + 1):
        term = term @ k / n
        acc = acc + term
    return acc


def exp_longdouble(w) -> np.ndarray:
    """Independent oracle: Rodrigues in np.longdouble, I + sin(t)/t K + 2 sin^2(t/2)/t^2 K^2 (no 1 - cos cancellation)."""
    x, y, z = np.asarray(w, dtype=np.longdouble)
    k = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]], dtype=np.longdouble)
    t = np.sqrt(x * x + y * y + z * z)
    if t == 0:
        return np.eye(3, dtype=np.longdouble)
    return np.eye(3, dtype=np.longdouble) + np.sin(t) / t * k + 2 * np.sin(t / 2) ** 2 / t**2 * (k @ k)


# Angle samplers for the long-double round trip; None is an exact half turn 2 a a^T - I.
LOG_BANDS = {
    "below_1e-8": lambda rng: rng.uniform(0.0, 1e-8),
    "mid_range": lambda rng: rng.uniform(1e-8, NEAR_PI),
    "just_below_near_pi": lambda rng: NEAR_PI - rng.uniform(0.0, 3e-3),
    "within_1e-3_of_pi": lambda rng: math.pi - rng.uniform(0.0, 1e-3),
    "half_turn": lambda rng: None,
}


class TestHatVee:
    def test_hat_zero(self):
        assert np.array_equal(r.hat3([0, 0, 0]), np.zeros((3, 3)))

    def test_hat_definition(self):
        expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        assert np.array_equal(r.hat3([1, 2, 3]), expected)

    def test_hat_is_cross_product(self, rng):
        for _ in range(50):
            v, u = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(r.hat3(v) @ u, np.cross(v, u), atol=1e-12)

    def test_vee_zero(self):
        assert np.array_equal(r.vee3(np.zeros((3, 3))), np.zeros(3))

    def test_vee_inverts_hat(self, rng):
        np.testing.assert_array_equal(
            r.vee3(np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)), [1, 2, 3]
        )
        for _ in range(50):
            v = rng.standard_normal(3)
            np.testing.assert_array_equal(r.vee3(r.hat3(v)), v)

    def test_vee_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            r.vee3(np.eye(3))

    def test_vee_rejects_overflowing_asymmetry(self):
        s = np.zeros((3, 3))
        s[0, 0] = 1e308  # s + s^T overflows
        raises_without_warning(NotSkewSymmetric, lambda: r.vee3(s))


class TestExpLog:
    def test_exp_zero(self):
        np.testing.assert_allclose(r.so3_exp([0, 0, 0]).m, np.eye(3), atol=0)

    def test_exp_quarter_turn_x(self):
        expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(r.so3_exp([math.pi / 2, 0, 0]).m, expected, atol=1e-15)

    def test_exp_matches_power_series(self):
        v = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(r.so3_exp(v).m, matrix_exp_series(r.hat3(v)), atol=1e-12)

    def test_log_identity(self):
        np.testing.assert_array_equal(r.so3_log(r.RotationMatrix.identity()), np.zeros(3))

    def test_log_half_turn(self):
        np.testing.assert_allclose(
            r.so3_log(r.RotationMatrix(np.diag([1.0, -1.0, -1.0]))), [math.pi, 0, 0], atol=1e-12
        )

    def test_log_roundtrip_random(self, rng):
        for _ in range(1000):
            v = random_rotvec(rng, max_angle=math.pi - 1e-9)
            np.testing.assert_allclose(r.so3_log(r.so3_exp(v)), v, atol=1e-9)

    def test_exp_log_roundtrip_near_pi(self, rng):
        for delta in [0.0, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3]:
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            rot = r.so3_exp(axis * (math.pi - delta))
            np.testing.assert_allclose(r.so3_exp(r.so3_log(rot)).m, rot.m, atol=1e-9)

    def test_log_accurate_on_both_sides_of_near_pi(self, rng):
        # an acos/sin log's error grows as eps/(pi - theta)^2: 2e-7 rad at pi - 3e-4
        for delta in np.geomspace(1e-7, 0.3, 60):
            axis = rng.standard_normal(3)
            v = axis / np.linalg.norm(axis) * (math.pi - delta)
            np.testing.assert_allclose(r.so3_log(r.so3_exp(v)), v, rtol=0, atol=1e-10)

    def test_log_near_pi_matches_scipy(self):
        rotation = pytest.importorskip("scipy.spatial.transform").Rotation  # test-only oracle
        rng = np.random.default_rng(20261018)
        for _ in range(2000):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            # theta in (NEAR_PI, pi - 1e-13]
            rot = r.so3_exp(axis * (math.pi - rng.uniform(1e-13, math.pi - NEAR_PI)))
            np.testing.assert_allclose(
                r.so3_log(rot), rotation.from_matrix(rot.m).as_rotvec(), rtol=0, atol=1e-13
            )

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is plain double on this platform")
    @pytest.mark.parametrize("band", sorted(LOG_BANDS))
    def test_log_round_trip_in_long_double(self, band):
        # acos/sin of the trace loses eps/(pi - theta)^2, 2e-11 just below NEAR_PI; the quaternion formula stays near eps
        rng = np.random.default_rng(sorted(LOG_BANDS).index(band))
        worst = 0.0
        for _ in range(300):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = LOG_BANDS[band](rng)
            m = 2.0 * np.outer(axis, axis) - np.eye(3) if angle is None else r.so3_exp(axis * angle).m
            err = np.abs(exp_longdouble(r.so3_log(m)) - m.astype(np.longdouble))
            worst = max(worst, float(np.max(err)))
        assert worst <= 2e-15

    def test_log_angle_in_range(self, rng):
        for _ in range(200):
            rot = r.random_rotation(rng)
            assert np.linalg.norm(r.so3_log(rot)) <= math.pi + 1e-9

    def test_log_rejects_non_rotation(self):
        with pytest.raises(NotARotation):
            r.so3_log(np.eye(3) * 2.0)


class TestQuaternion:
    def test_identity_quat_matrix(self):
        np.testing.assert_array_equal(r.quat_to_matrix(r.UnitQuaternion.identity()).m, np.eye(3))

    def test_quarter_turn_z(self):
        s = math.sqrt(0.5)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_allclose(r.quat_to_matrix(r.UnitQuaternion(s, 0, 0, s)).m, expected, atol=1e-15)

    def test_matrix_to_quat_identity(self):
        q = r.matrix_to_quat(r.RotationMatrix.identity())
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_matrix_to_quat_quarter_turn_z(self):
        s = math.sqrt(0.5)
        q = r.matrix_to_quat(r.RotationMatrix(np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)))
        np.testing.assert_allclose([q.w, q.x, q.y, q.z], [s, 0, 0, s], atol=1e-15)

    def test_matrix_to_quat_matches_scipy_on_every_branch(self):
        rotation = pytest.importorskip("scipy.spatial.transform").Rotation  # test-only oracle
        rng = np.random.default_rng(20261018)
        axes = rng.standard_normal((20000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        ms = np.array([r.so3_exp(a * t).m for a, t in zip(axes, rng.uniform(0.0, math.pi, 20000))])
        # Shepperd's branch: the largest of trace, m00, m11 and m22
        largest = np.argmax(np.stack([np.trace(ms, axis1=1, axis2=2), ms[:, 0, 0], ms[:, 1, 1], ms[:, 2, 2]]), axis=0)
        assert np.bincount(largest, minlength=4).min() >= 1000
        got = np.array([r.matrix_to_quat(m).components() for m in ms])
        want = rotation.from_matrix(ms).as_quat(canonical=True, scalar_first=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "rows",
        [
            r.so3_exp([0.3, -0.4, 0.0]).m,  # trace branch: w > 0, kept
            r.so3_exp([0.6 * (math.pi - 1e-3), -0.8 * (math.pi - 1e-3), 0.0]).m,  # m11 branch: w < 0, flipped
            [[-0.28, -0.96, 0.0], [-0.96, 0.28, 0.0], [0.0, 0.0, -1.0]],  # half turn: w == 0 and x < 0, flipped
        ],
    )
    def test_matrix_to_quat_builds_one_quaternion(self, rows):
        # the sign is fixed on the raw components, so a flipped result is not built and normalized twice
        post_init = r.UnitQuaternion.__post_init__
        with mock.patch.object(r.UnitQuaternion, "__post_init__", autospec=True, side_effect=post_init) as ctor:
            q = r.matrix_to_quat(np.array(rows))
        assert ctor.call_count == 1
        assert q.w > 0.0 or (q.w == 0.0 and q.x > 0.0)

    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("op", ["compose", "inverse"])
    def test_quat_compose_and_inverse_build_one_quaternion(self, rng, op, flipped):
        # the unflipped build, negated exactly when the sign rule flips it: never normalized twice
        while True:
            a, b = (r.matrix_to_quat(r.random_rotation(rng)) for _ in range(2))
            if op == "compose":
                raw = (
                    a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                    a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                    a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                    a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
                )
                fn, args = r.quat_compose, (a, b)
            else:
                a = r.UnitQuaternion(-a.w, -a.x, -a.y, -a.z) if flipped else a
                raw = (a.w, -a.x, -a.y, -a.z)
                fn, args = r.quat_inverse, (a,)
            if (raw[0] < 0.0) == flipped:
                break
        unflipped = r.UnitQuaternion(*raw).components()
        post_init = r.UnitQuaternion.__post_init__
        with mock.patch.object(r.UnitQuaternion, "__post_init__", autospec=True, side_effect=post_init) as ctor:
            q = fn(*args)
        assert ctor.call_count == 1
        assert q.components().tobytes() == (-unflipped if flipped else unflipped).tobytes()

    def test_canonical_returns_self_when_unflipped(self, rng):
        q = r.matrix_to_quat(r.random_rotation(rng))
        assert q.canonical() is q

    def test_quat_matrix_roundtrip(self, rng):
        for _ in range(1000):
            rot = r.random_rotation(rng)
            np.testing.assert_allclose(r.quat_to_matrix(r.matrix_to_quat(rot)).m, rot.m, atol=1e-12)

    def test_double_cover(self, rng):
        q = r.matrix_to_quat(r.random_rotation(rng))
        neg = r.UnitQuaternion(*(-c for c in (q.w, q.x, q.y, q.z)))
        np.testing.assert_array_equal(r.quat_to_matrix(q).m, r.quat_to_matrix(neg).m)

    def test_canonical_sign(self, rng):
        for _ in range(200):
            q = r.matrix_to_quat(r.random_rotation(rng))
            assert q.w >= 0.0

    def test_quat_axis_angle_cross_check(self, rng):
        # quat_to_matrix(q) == so3_exp(2 atan2(|qv|, w) * unit(qv))
        for _ in range(100):
            q = r.matrix_to_quat(r.random_rotation(rng))
            qv = np.array([q.x, q.y, q.z])
            n = np.linalg.norm(qv)
            if n < 1e-12:
                continue
            v = 2.0 * math.atan2(n, q.w) * qv / n
            np.testing.assert_allclose(r.quat_to_matrix(q).m, r.so3_exp(v).m, atol=1e-9)

    def test_compose_identity_and_inverse(self, rng):
        q = r.matrix_to_quat(r.random_rotation(rng))
        e = r.UnitQuaternion.identity()
        assert r.quat_compose(e, q) == q
        prod = r.quat_compose(q, r.quat_inverse(q))
        np.testing.assert_allclose([prod.w, prod.x, prod.y, prod.z], [1, 0, 0, 0], atol=1e-12)

    def test_compose_is_matrix_homomorphism(self, rng):
        for _ in range(200):
            a = r.matrix_to_quat(r.random_rotation(rng))
            b = r.matrix_to_quat(r.random_rotation(rng))
            np.testing.assert_allclose(
                r.quat_to_matrix(r.quat_compose(a, b)).m,
                r.quat_to_matrix(a).m @ r.quat_to_matrix(b).m,
                atol=1e-12,
            )

    def test_inverse_is_transpose(self, rng):
        q = r.matrix_to_quat(r.random_rotation(rng))
        np.testing.assert_allclose(
            r.quat_to_matrix(r.quat_inverse(q)).m, r.quat_to_matrix(q).m.T, atol=1e-12
        )

    def test_inverse_of_quarter_turn(self):
        s = math.sqrt(0.5)
        inv = r.quat_inverse(r.UnitQuaternion(s, 0, 0, s))
        np.testing.assert_allclose([inv.w, inv.x, inv.y, inv.z], [s, 0, 0, -s], atol=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitQuaternion):
            r.UnitQuaternion(1.1, 0, 0, 0)

    def test_rejects_overflowing_norm(self):
        with pytest.raises(NotUnitQuaternion, match="^quaternion norm inf deviates"):
            r.UnitQuaternion(1e200, 0, 0, 0)

    def test_canonical_tie_break_at_zero_w(self):
        q = r.UnitQuaternion(0.0, 0.0, -0.6, 0.8).canonical()
        assert (q.w, q.x) == (0.0, 0.0) and q.y > 0.0 and q.z < 0.0

    @pytest.mark.parametrize("axis", [(0.0, 1.0, 0.0), (0.0, 0.6, -0.8), (0.0, -0.6, 0.8), (0.0, 0.0, -1.0)])
    def test_half_turn_first_nonzero_positive(self, axis):
        # exact half turns have no sign information: log and quaternion both take the axis
        # whose first nonzero component is positive
        a = np.array(axis)
        half = r.RotationMatrix(2.0 * np.outer(a, a) - np.eye(3))
        expected = a if a[np.flatnonzero(a)[0]] > 0.0 else -a
        np.testing.assert_allclose(r.so3_log(half), math.pi * expected, atol=1e-12)
        np.testing.assert_allclose(r.matrix_to_quat(half).components(), [0.0, *expected], atol=1e-12)

    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_nan(self, slot):
        q = [1.0, 0.0, 0.0, 0.0]
        q[slot] = math.nan
        with pytest.raises(NotUnitQuaternion):
            r.UnitQuaternion(*q)


# glibc picks its libm code path by the CPU's features; this tunable switches the FMA paths off for one process
NO_FMA_LIBM = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}
# the bytes of x ** 2 on fixed floats, then those of the quaternion paths on seeded inputs, on stdout
QUATERNION_BYTES = """
import sys
import numpy as np
import rigid3d as r
from rigid3d.pose_io import _pose_from_fields
squares = [x ** 2 for x in np.random.default_rng(0).uniform(-1.01, 1.01, 100_000).tolist()]
rng = np.random.default_rng(2027)
quats = [r.matrix_to_quat(r.random_rotation(rng)) for _ in range(20_000)]
g = rng.standard_normal((20_000, 4))
unit = (g / np.sqrt((g * g).sum(axis=1, keepdims=True))).tolist()
mats = [r.quat_to_matrix(r.UnitQuaternion(*q))._e for q in unit]
fields = np.hstack([rng.uniform(-10.0, 10.0, (20_000, 3)), np.round(np.array(unit), 4)]).tolist()
poses = [_pose_from_fields(f) for f in fields]
rows = [[q.w, q.x, q.y, q.z] for q in quats] + mats + [t.rotation._e + t._t for t in poses]
sys.stdout.buffer.write(np.array(squares).tobytes() + np.array([x for row in rows for x in row]).tobytes())
"""


def test_quaternion_bits_do_not_follow_the_libm_code_path():
    # the quaternion norm is + and * and one sqrt, so no libm variant moves a bit (x ** 2 calls pow)
    if platform.machine().lower() not in ("x86_64", "amd64") or platform.libc_ver()[0] != "glibc":
        pytest.skip(f"the tunable selects glibc's x86-64 code paths; this is {platform.machine()} {platform.libc_ver()}")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    default, no_fma = (
        subprocess.run([sys.executable, "-c", QUATERNION_BYTES], capture_output=True, env=e, timeout=120, check=True).stdout
        for e in (env, dict(env, **NO_FMA_LIBM))
    )
    squares = 100_000 * 8
    if default[:squares] == no_fma[:squares]:
        pytest.skip("the no-FMA libm gives the same x ** 2 as the default one on this host")
    a, b = (np.frombuffer(out[squares:], dtype=np.float64) for out in (default, no_fma))
    assert a.size == b.size == 20_000 * (4 + 9 + 12)
    moved = {
        name: int(np.count_nonzero((x != y).reshape(20_000, -1).any(axis=1)))
        for name, x, y in zip(
            ("matrix_to_quat", "quat_to_matrix", "_pose_from_fields"),
            np.split(a, [80_000, 260_000]),
            np.split(b, [80_000, 260_000]),
        )
    }
    assert a.tobytes() == b.tobytes(), f"outputs of 20,000 that differ: {moved}"


class TestEuler:
    def test_zero_angles(self):
        for conv in r.EulerConvention:
            e = r.EulerAngles(np.zeros(3), conv)
            np.testing.assert_allclose(r.euler_to_matrix(e).m, np.eye(3), atol=0)

    def test_yaw_quarter_turn(self):
        e = r.EulerAngles(np.array([0, 0, math.pi / 2]), r.EulerConvention.ZYX_INTRINSIC)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_allclose(r.euler_to_matrix(e).m, expected, atol=1e-15)

    def test_matches_elementary_rotations(self, rng):
        def rot_about(axis, a):
            v = np.zeros(3)
            v[axis] = a
            return r.so3_exp(v).m

        for _ in range(100):
            roll, pitch, yaw = rng.uniform(-math.pi, math.pi, 3)
            e = r.EulerAngles(np.array([roll, pitch, yaw]), r.EulerConvention.ZYX_INTRINSIC)
            expected = rot_about(2, yaw) @ rot_about(1, pitch) @ rot_about(0, roll)
            np.testing.assert_allclose(r.euler_to_matrix(e).m, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "convention, sequence, order",
        [
            (r.EulerConvention.ZYX_INTRINSIC, "ZYX", [2, 1, 0]),  # (roll, pitch, yaw) -> [yaw, pitch, roll]
            (r.EulerConvention.XYZ_EXTRINSIC, "xyz", [0, 1, 2]),
        ],
    )
    def test_matches_scipy(self, rng, convention, sequence, order):
        rotation = pytest.importorskip("scipy.spatial.transform").Rotation  # test-only oracle
        for _ in range(200):
            angles = rng.uniform(-math.pi, math.pi, 3)
            expected = rotation.from_euler(sequence, angles[order]).as_matrix()
            np.testing.assert_allclose(r.euler_to_matrix(r.EulerAngles(angles, convention)).m, expected, atol=1e-12)

    def test_matrix_to_euler_identity(self):
        e, locked = r.matrix_to_euler(r.RotationMatrix.identity())
        np.testing.assert_array_equal(e.angles, np.zeros(3))
        assert not locked

    def test_gimbal_lock(self):
        ry = r.so3_exp([0, math.pi / 2, 0])
        e, locked = r.matrix_to_euler(ry)
        assert locked
        assert e.angles[0] == 0.0
        assert abs(e.angles[1] - math.pi / 2) < 1e-9
        np.testing.assert_allclose(r.euler_to_matrix(e).m, ry.m, atol=1e-9)

    @pytest.mark.parametrize("distance", [1e-6, 1.5e-7, 1.1e-7])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_pitch_exact_near_lock(self, rng, distance, side):
        # asin(-m20) loses eps/distance here, up to 5e-10 rad at 1.1e-7
        pitch = side * (math.pi / 2 - distance)
        for roll, yaw in rng.uniform(-math.pi, math.pi, (300, 2)):
            e, locked = r.matrix_to_euler(r.euler_to_matrix(r.EulerAngles([roll, pitch, yaw])))
            assert not locked
            assert abs(e.angles[1] - pitch) <= 1e-15

    def test_roundtrip_away_from_lock(self, rng):
        count = 0
        while count < 1000:
            rot = r.random_rotation(rng)
            e, locked = r.matrix_to_euler(rot)
            if abs(e.angles[1]) > math.pi / 2 - 0.01:
                continue
            count += 1
            assert not locked
            np.testing.assert_allclose(r.euler_to_matrix(e).m, rot.m, atol=1e-9)

    def test_unsupported_convention(self):
        with pytest.raises(UnsupportedConvention):
            r.matrix_to_euler(r.RotationMatrix.identity(), "zxz")


class TestRotateOrthonormalize:
    def test_rotate_identity(self, rng):
        v = rng.standard_normal(3)
        np.testing.assert_array_equal(r.rotate(r.RotationMatrix.identity(), v), v)

    def test_rotate_quarter_turn(self):
        rot = r.so3_exp([0, 0, math.pi / 2])
        np.testing.assert_allclose(r.rotate(rot, [1, 0, 0]), [0, 1, 0], atol=1e-15)

    def test_rotate_preserves_norm(self, rng):
        for _ in range(100):
            rot, v = r.random_rotation(rng), rng.standard_normal(3)
            assert abs(np.linalg.norm(r.rotate(rot, v)) - np.linalg.norm(v)) < 1e-12

    def test_orthonormalize_fixes_perturbation(self, rng):
        rot = r.random_rotation(rng)
        noisy = rot.m + 1e-6 * rng.standard_normal((3, 3))
        fixed = r.orthonormalize(noisy)
        assert np.linalg.norm(fixed.m - rot.m) < 1e-5

    def test_orthonormalize_exact_rotation_unchanged(self, rng):
        rot = r.random_rotation(rng)
        np.testing.assert_allclose(r.orthonormalize(rot.m).m, rot.m, atol=1e-12)

    def test_orthonormalize_scale_drift(self, rng):
        rot = r.random_rotation(rng)
        np.testing.assert_allclose(r.orthonormalize(1.0001 * rot.m).m, rot.m, atol=1e-9)

    def test_orthonormalize_idempotent(self, rng):
        m = r.random_rotation(rng).m + 1e-3 * rng.standard_normal((3, 3))
        once = r.orthonormalize(m)
        np.testing.assert_allclose(r.orthonormalize(once.m).m, once.m, atol=1e-12)

    def test_orthonormalize_rejects_singular(self):
        with pytest.raises(DegenerateMatrix):
            r.orthonormalize(np.zeros((3, 3)))

    def test_orthonormalize_rejects_far_input(self, rng):
        with pytest.raises(DegenerateMatrix):
            r.orthonormalize(5.0 * r.random_rotation(rng).m)

    def test_orthonormalize_rejects_overflowing_distance(self):
        raises_without_warning(DegenerateMatrix, lambda: r.orthonormalize(1e300 * np.eye(3)), "too far")

    def test_rotate_overflow_is_rejected(self, rng):
        rot = r.random_rotation(rng)
        raises_without_warning(Rigid3dError, lambda: r.rotate(rot, [1.7e308] * 3), "^rotated vector contains non-finite")


# 1e200 squared overflows in the membership test: each entry point rejects it as not a rotation
HUGE = 1e200 * np.eye(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: r.RotationMatrix(HUGE),
        lambda: r.Transform(HUGE, np.zeros(3)),
        lambda: r.so3_log(HUGE),
        lambda: r.from_matrix4(np.diag([1e200, 1e200, 1e200, 1.0])),
    ],
    ids=["RotationMatrix", "Transform", "so3_log", "from_matrix4"],
)
def test_overflowing_matrix_is_not_a_rotation(call):
    raises_without_warning(NotARotation, call)


class TestGeodesic:
    def test_zero_distance(self, rng):
        rot = r.random_rotation(rng)
        assert r.geodesic_distance(rot, rot) < 1e-12

    def test_quarter_turn(self):
        d = r.geodesic_distance(r.RotationMatrix.identity(), r.so3_exp([math.pi / 2, 0, 0]))
        assert abs(d - math.pi / 2) < 1e-12

    def test_matches_trace_formula(self, rng):
        for _ in range(200):
            a, b = r.random_rotation(rng), r.random_rotation(rng)
            d = r.geodesic_distance(a, b)
            trace = np.trace(a.m.T @ b.m)
            expected = math.acos(max(-1.0, min(1.0, (trace - 1.0) / 2.0)))
            assert abs(d - expected) < 1e-9
            assert abs(d - r.geodesic_distance(b, a)) < 1e-12


def test_all_emitted_rotations_are_valid(rng):
    # every constructor path goes through RotationMatrix validation
    for _ in range(200):
        rot = r.so3_exp(random_rotvec(rng))
        assert np.linalg.norm(rot.m.T @ rot.m - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(rot.m) - 1.0) < 1e-9
