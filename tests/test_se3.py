import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigid3d as r
from rigid3d.errors import InvalidHomogeneousRow, NotARotation, Rigid3dError
from rigid3d.so3 import EXP_MAX_COMPONENT, ORTHO_TOL, SERIES_ANGLE, SMALL_ANGLE

from conftest import random_transform


def drift(m):
    return np.linalg.norm(m.T @ m - np.eye(3))


def se3_exp_series(xi, terms=30):
    """Oracle: truncated power series of the 4x4 twist matrix."""
    m = np.zeros((4, 4))
    m[:3, :3] = r.hat3(xi.w)
    m[:3, 3] = xi.v
    acc = np.eye(4)
    term = np.eye(4)
    for n in range(1, terms + 1):
        term = term @ m / n
        acc = acc + term
    return acc


class TestGroupOps:
    def test_compose_identity(self, rng):
        t = random_transform(rng)
        out = r.compose(r.Transform.identity(), t)
        np.testing.assert_allclose(out.rotation.m, t.rotation.m, atol=1e-15)
        np.testing.assert_allclose(out.translation, t.translation, atol=1e-15)

    def test_compose_with_inverse(self, rng):
        t = random_transform(rng)
        out = r.compose(t, r.inverse(t))
        np.testing.assert_allclose(out.rotation.m, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-12)

    def test_compose_matches_matrix_product(self, rng):
        for _ in range(100):
            a, b = random_transform(rng), random_transform(rng)
            np.testing.assert_allclose(
                r.to_matrix4(r.compose(a, b)), r.to_matrix4(a) @ r.to_matrix4(b), atol=1e-12
            )

    def test_associativity(self, rng):
        for _ in range(50):
            a, b, c = (random_transform(rng) for _ in range(3))
            left = r.compose(r.compose(a, b), c)
            right = r.compose(a, r.compose(b, c))
            np.testing.assert_allclose(r.to_matrix4(left), r.to_matrix4(right), atol=1e-9)

    def test_inverse_identity(self):
        out = r.inverse(r.Transform.identity())
        np.testing.assert_array_equal(r.to_matrix4(out), np.eye(4))

    def test_inverse_pure_translation(self):
        t = r.Transform(r.RotationMatrix.identity(), [1, 2, 3])
        np.testing.assert_array_equal(r.inverse(t).translation, [-1, -2, -3])

    def test_compose_reprojects_drifted_product(self, rng):
        # each factor is valid (drift 8.7e-10), their product (drift 1.7e-9) is not
        scale = 1.0 + 2.5e-10
        a, b = (r.Transform(scale * r.random_rotation(rng).m, rng.standard_normal(3)) for _ in range(2))
        assert drift(a.rotation.m @ b.rotation.m) > ORTHO_TOL
        c = r.compose(a, b)
        assert drift(c.rotation.m) < 1e-12
        np.testing.assert_allclose(c.rotation.m, a.rotation.m @ b.rotation.m, atol=1e-8)

    def test_compose_translation_overflow_is_rejected(self):
        t = r.Transform(r.RotationMatrix.identity(), [1e308, 1e308, 1e308])
        with pytest.raises(Rigid3dError, match="^translation contains non-finite values$"):
            r.compose(t, t)

    def test_inverse_translation_overflow_is_rejected(self):
        # |t| is past the largest double, so a rotated component can be too
        t = r.Transform(r.quat_to_matrix(r.UnitQuaternion(0.8, 0.2, 0.4, 0.4)), [1.7e308] * 3)
        with pytest.raises(Rigid3dError, match="^translation contains non-finite values$"):
            r.inverse(t)

    def test_double_inverse(self, rng):
        t = random_transform(rng)
        np.testing.assert_allclose(r.to_matrix4(r.inverse(r.inverse(t))), r.to_matrix4(t), atol=1e-12)


class TestActions:
    def test_point_identity(self, rng):
        p = rng.standard_normal(3)
        np.testing.assert_array_equal(r.transform_point(r.Transform.identity(), p), p)

    def test_point_pure_translation(self):
        t = r.Transform(r.RotationMatrix.identity(), [1, 2, 3])
        np.testing.assert_array_equal(r.transform_point(t, [0, 0, 0]), [1, 2, 3])

    def test_point_isometry(self, rng):
        for _ in range(100):
            t = random_transform(rng)
            p, q = rng.standard_normal(3), rng.standard_normal(3)
            d0 = np.linalg.norm(p - q)
            d1 = np.linalg.norm(r.transform_point(t, p) - r.transform_point(t, q))
            assert abs(d0 - d1) < 1e-12

    def test_direction_ignores_translation(self, rng):
        v = rng.standard_normal(3)
        t = r.Transform(r.RotationMatrix.identity(), [5, -3, 2])
        np.testing.assert_array_equal(r.transform_direction(t, v), v)

    def test_point_overflow_is_rejected(self):
        t = r.Transform(np.eye(3), [1.7e308] * 3)
        with pytest.raises(Rigid3dError, match="^transformed point contains non-finite values$"):
            r.transform_point(t, [1e308] * 3)

    def test_direction_overflow_is_rejected(self):
        t = r.Transform(r.quat_to_matrix(r.UnitQuaternion(0.8, 0.2, 0.4, 0.4)), np.zeros(3))
        with pytest.raises(Rigid3dError, match="^transformed direction contains non-finite values$"):
            r.transform_direction(t, [1.7e308] * 3)

    def test_direction_is_affine_difference(self, rng):
        for _ in range(50):
            t = random_transform(rng)
            p, v = rng.standard_normal(3), rng.standard_normal(3)
            diff = r.transform_point(t, p + v) - r.transform_point(t, p)
            np.testing.assert_allclose(diff, r.transform_direction(t, v), atol=1e-12)


class TestExpLog:
    def test_exp_zero(self):
        t = r.se3_exp(r.Twist(np.zeros(3), np.zeros(3)))
        np.testing.assert_array_equal(r.to_matrix4(t), np.eye(4))

    def test_exp_pure_translation(self):
        t = r.se3_exp(r.Twist([1, 2, 3], [0, 0, 0]))
        np.testing.assert_array_equal(t.rotation.m, np.eye(3))
        np.testing.assert_array_equal(t.translation, [1, 2, 3])

    def test_exp_matches_series(self, rng):
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            xi = r.Twist(rng.standard_normal(3), axis * rng.uniform(0, math.pi))
            np.testing.assert_allclose(r.to_matrix4(r.se3_exp(xi)), se3_exp_series(xi), atol=1e-12)

    def test_log_identity(self):
        xi = r.se3_log(r.Transform.identity())
        np.testing.assert_array_equal(xi.as_array(), np.zeros(6))

    def test_log_pure_translation(self):
        xi = r.se3_log(r.Transform(r.RotationMatrix.identity(), [1, 2, 3]))
        np.testing.assert_array_equal(xi.v, [1, 2, 3])
        np.testing.assert_array_equal(xi.w, np.zeros(3))

    def test_roundtrip(self, rng):
        for _ in range(1000):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            rot = r.so3_exp(axis * rng.uniform(0, math.pi - 1e-3))
            t = r.Transform(rot, rng.standard_normal(3))
            xi = r.se3_log(t)
            np.testing.assert_allclose(r.to_matrix4(r.se3_exp(xi)), r.to_matrix4(t), atol=1e-9)


# Angles on both sides of each branch threshold of the exponential, plus mid-range and near pi.
EXP_ANGLES = st.one_of(
    st.sampled_from([0.0, *[np.nextafter(t, d) for t in (SMALL_ANGLE, SERIES_ANGLE) for d in (0.0, np.inf)]]),
    st.floats(1e-10, 1e-7),
    st.floats(1e-5, 1e-3),
    st.floats(1e-3, math.pi - 1e-4),
    st.floats(math.pi - 1e-4, math.pi),
)
AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 0.1)
LINEAR = st.tuples(*[st.floats(-10.0, 10.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=400, deadline=None)
@given(AXES, EXP_ANGLES, LINEAR)
def test_exp_shares_one_rodrigues_evaluation(axis, angle, v):
    w = np.asarray(axis) / np.linalg.norm(axis) * angle
    xi = r.Twist(v, w)
    t = r.se3_exp(xi)
    assert t.rotation.m.tobytes() == r.so3_exp(w).m.tobytes()
    want = se3_exp_series(xi)[:3, 3]  # V(w) v = sum_n K^n v / (n + 1)!
    assert np.linalg.norm(t.translation - want) <= 1e-12 * np.linalg.norm(want)
    if angle < math.pi - 1e-4:
        np.testing.assert_allclose(r.se3_log(t).as_array(), xi.as_array(), rtol=0, atol=1e-9)


EXP_ENTRY_POINTS = {
    "so3_exp": r.so3_exp,
    "se3_exp_twist": lambda w: r.se3_exp(r.Twist([1.0, 2.0, 3.0], w)),
    "se3_exp_array": lambda w: r.se3_exp([1.0, 2.0, 3.0, *w]),
}


# beyond the bound the norm or theta**3 overflows, which the RuntimeWarning filter would turn into a failure
@pytest.mark.parametrize("entry", sorted(EXP_ENTRY_POINTS))
@pytest.mark.parametrize("size", [1e103, 1e150, 1e200, 1e308])
def test_exp_rejects_components_beyond_bound(entry, size):
    for w in ([0.0, 0.0, size], [size, -size, size], [-size, 0.5, 0.0]):
        with pytest.raises(Rigid3dError, match="beyond 1e\\+100"):
            EXP_ENTRY_POINTS[entry](w)


@pytest.mark.parametrize("entry", sorted(EXP_ENTRY_POINTS))
def test_exp_accepts_components_at_bound(entry):
    for w in ([EXP_MAX_COMPONENT] * 3, [-EXP_MAX_COMPONENT, 0.0, 1.0]):
        EXP_ENTRY_POINTS[entry](w)


class TestAdjoint:
    def test_adjoint_identity(self):
        np.testing.assert_array_equal(r.adjoint(r.Transform.identity()), np.eye(6))

    def test_adjoint_pure_rotation(self, rng):
        rot = r.random_rotation(rng)
        ad = r.adjoint(r.Transform(rot, np.zeros(3)))
        np.testing.assert_array_equal(ad[:3, :3], rot.m)
        np.testing.assert_array_equal(ad[3:, 3:], rot.m)
        np.testing.assert_array_equal(ad[:3, 3:], np.zeros((3, 3)))

    def test_adjoint_of_inverse(self, rng):
        for _ in range(50):
            t = random_transform(rng)
            np.testing.assert_allclose(r.adjoint(r.inverse(t)), np.linalg.inv(r.adjoint(t)), atol=1e-9)

    def test_apply_twist_identity(self, rng):
        xi = r.Twist(rng.standard_normal(3), rng.standard_normal(3))
        out = r.adjoint_apply_twist(r.Transform.identity(), xi)
        np.testing.assert_array_equal(out.as_array(), xi.as_array())

    def test_apply_twist_lever_arm(self):
        t = r.Transform(r.RotationMatrix.identity(), [1, 0, 0])
        out = r.adjoint_apply_twist(t, r.Twist([0, 0, 0], [0, 0, 1]))
        np.testing.assert_allclose(out.v, np.cross([1, 0, 0], [0, 0, 1]), atol=1e-15)
        np.testing.assert_array_equal(out.w, [0, 0, 1])

    def test_apply_matches_matrix(self, rng):
        for _ in range(50):
            t = random_transform(rng)
            xi = r.Twist(rng.standard_normal(3), rng.standard_normal(3))
            np.testing.assert_allclose(
                r.adjoint_apply_twist(t, xi).as_array(), r.adjoint(t) @ xi.as_array(), atol=1e-12
            )

    def test_conjugation_identity(self, rng):
        for _ in range(100):
            t = random_transform(rng)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            xi = r.Twist(rng.standard_normal(3), axis * rng.uniform(0, 1.0))
            left = r.compose(r.compose(t, r.se3_exp(xi)), r.inverse(t))
            right = r.se3_exp(r.adjoint_apply_twist(t, xi))
            np.testing.assert_allclose(r.to_matrix4(left), r.to_matrix4(right), atol=1e-9)

    def test_adjoint_overflow_is_rejected(self):
        t = r.Transform(r.so3_exp([0.1, 0.2, 0.3]), [1.7e308] * 3)
        with pytest.raises(Rigid3dError, match="^adjoint contains non-finite values$"):
            r.adjoint(t)

    def test_apply_twist_overflow_is_rejected(self):
        t = r.Transform(r.so3_exp([0.1, 0.2, 0.3]), [1.7e308] * 3)
        with pytest.raises(Rigid3dError, match="^twist linear part contains non-finite values$"):
            r.adjoint_apply_twist(t, r.Twist([0, 0, 0], [1, 1, 1]))


class TestWrench:
    def test_identity(self, rng):
        h = r.Wrench(rng.standard_normal(3), rng.standard_normal(3))
        out = r.transform_wrench(r.Transform.identity(), h)
        np.testing.assert_array_equal(out.f, h.f)
        np.testing.assert_array_equal(out.tau, h.tau)

    def test_moment_of_force(self):
        t = r.Transform(r.RotationMatrix.identity(), [0, 1, 0])
        out = r.transform_wrench(t, r.Wrench([1, 0, 0], [0, 0, 0]))
        np.testing.assert_allclose(out.tau, np.cross([0, 1, 0], [1, 0, 0]), atol=1e-15)

    def test_power_pairing_consistency(self, rng):
        # f.v + tau.w is invariant when the twist moves by Ad_T and the wrench
        # moves by the co-adjoint of the same T
        for _ in range(100):
            t = random_transform(rng)
            xi = r.Twist(rng.standard_normal(3), rng.standard_normal(3))
            h = r.Wrench(rng.standard_normal(3), rng.standard_normal(3))
            xi2 = r.adjoint_apply_twist(t, xi)
            h2 = r.transform_wrench(t, h)
            p_before = float(h.f @ xi.v + h.tau @ xi.w)
            p_after = float(h2.f @ xi2.v + h2.tau @ xi2.w)
            assert abs(p_before - p_after) < 1e-9

    def test_overflow_is_rejected(self):
        t = r.Transform(r.so3_exp([0.1, 0.2, 0.3]), np.zeros(3))
        with pytest.raises(Rigid3dError, match="^force contains non-finite values$"):
            r.transform_wrench(t, r.Wrench([1.7e308] * 3, [0, 0, 0]))


class TestHomogeneous:
    def test_to_matrix4_identity(self):
        np.testing.assert_array_equal(r.to_matrix4(r.Transform.identity()), np.eye(4))

    def test_to_matrix4_translation(self):
        m = r.to_matrix4(r.Transform(r.RotationMatrix.identity(), [1, 2, 3]))
        np.testing.assert_array_equal(m[:3, 3], [1, 2, 3])
        np.testing.assert_array_equal(m[:3, :3], np.eye(3))

    def test_roundtrip(self, rng):
        for _ in range(100):
            t = random_transform(rng)
            back = r.from_matrix4(r.to_matrix4(t))
            np.testing.assert_allclose(r.to_matrix4(back), r.to_matrix4(t), atol=1e-12)

    def test_repair_path(self, rng):
        t = random_transform(rng)
        m = r.to_matrix4(t)
        m[:3, :3] *= 1.00001
        repaired = r.from_matrix4(m)
        assert np.linalg.norm(repaired.rotation.m - t.rotation.m) < 1e-4

    def test_repair_is_orthonormalize(self, rng):
        for _ in range(50):
            m = r.to_matrix4(random_transform(rng))
            m[:3, :3] += 1e-6 * rng.standard_normal((3, 3))
            assert drift(m[:3, :3]) > ORTHO_TOL
            assert r.from_matrix4(m).rotation.m.tobytes() == r.orthonormalize(m[:3, :3]).m.tobytes()

    def test_rejects_bad_last_row(self):
        m = np.eye(4)
        m[3, 0] = 0.1
        with pytest.raises(InvalidHomogeneousRow):
            r.from_matrix4(m)

    def test_rejects_beyond_repair(self, rng):
        m = r.to_matrix4(random_transform(rng))
        m[:3, :3] *= 1.01
        with pytest.raises(NotARotation):
            r.from_matrix4(m)

    def test_valid_block_kept_bitwise(self, rng):
        for _ in range(50):
            m = r.to_matrix4(random_transform(rng))
            assert r.to_matrix4(r.from_matrix4(m)).tobytes() == m.tobytes()

    def test_rejects_reflection(self, rng):
        m = r.to_matrix4(random_transform(rng))
        m[:3, 2] *= -1.0  # orthogonal block with det -1: no drift, but no rotation to repair it to
        with pytest.raises(NotARotation, match="1e-4 repair threshold"):
            r.from_matrix4(m)
