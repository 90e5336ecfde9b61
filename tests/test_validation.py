import numpy as np
import pytest

import rigid3d as r
from rigid3d import validation
from rigid3d.errors import NotARotation, Rigid3dError
from rigid3d.se3 import _build_transforms
from rigid3d.validation import check_matrix

from conftest import random_transform
from test_calibration import synthetic_handeye, synthetic_pivot

PTS = np.zeros((4, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: r.so3_exp(np.zeros(4)), "rotation vector must have shape (3,), got (4,)"),
        (lambda: r.RotationMatrix(np.eye(4)), "rotation matrix must have shape (3, 3), got (4, 4)"),
        (lambda: r.register_point_sets(PTS[:, :2], PTS), "source points must have shape (n, 3), got (4, 2)"),
        (lambda: r.register_point_sets(PTS, np.zeros(3)), "target points must have shape (n, 3), got (3,)"),
        (lambda: r.Transform(np.eye(3), [0.0, np.nan, 0.0]), "translation contains non-finite values"),
    ],
)
def test_error_messages(call, message):
    with pytest.raises(Rigid3dError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: r.Transform(np.eye(3), "abc"), "translation must be numeric: could not convert string to float: 'abc'"),
        (lambda: r.register_point_sets("a", "b"), "source points must be numeric: could not convert string to float: 'a'"),
        (lambda: r.RotationMatrix([["1", "0", "x"]] * 3), "rotation matrix must be numeric: could not convert string to float: 'x'"),
        (
            lambda: r.Twist(np.zeros(3), {}),
            "twist angular part must be numeric: float() argument must be a string or a real number, not 'dict'",
        ),
        # numeric text, which float() and NumPy would read as numbers
        (lambda: r.so3_exp(["0.1", "0", "0"]), "rotation vector must be numeric: it contains text"),
        (lambda: r.Transform(np.eye(3), ["1", "2", "3"]), "translation must be numeric: it contains text"),
        (lambda: r.RotationMatrix([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), "rotation matrix must be numeric: it contains text"),
        (lambda: r.RotationMatrix(np.eye(3).astype(str)), "rotation matrix must be numeric: it contains text"),
        (lambda: r.UnitQuaternion("1", "0", "0", "0"), "quaternion must be numeric: it contains text"),
        (lambda: r.UnitQuaternion(b"1", b"0", b"0", b"0"), "quaternion must be numeric: it contains text"),
        (lambda: r.UnitQuaternion(np.str_("1"), 0.0, 0.0, 0.0), "quaternion must be numeric: it contains text"),
    ],
    ids=[
        "Transform", "register_point_sets", "RotationMatrix", "Twist", "so3_exp-text", "Transform-text",
        "RotationMatrix-text", "RotationMatrix-text-array", "UnitQuaternion-text", "UnitQuaternion-bytes",
        "UnitQuaternion-np.str_",
    ],
)
def test_non_numeric_input_is_named(call, message):
    raises_exactly(call, Rigid3dError, message)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_any_length_slot(n):
    assert check_matrix(np.zeros((n, 3)), (None, 3), "points").shape == (n, 3)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 3), (3, 4)])
def test_any_length_slot_keeps_rank_and_fixed_sizes(shape):
    with pytest.raises(Rigid3dError, match=r"must have shape \(n, 3\)"):
        check_matrix(np.zeros(shape), (None, 3), "points")


# Every array a value type stores, as (build the value from a candidate for that one array, the name its
# messages use, the shape it must have). The value's other arrays are valid.
SLOTS = {
    "RotationMatrix": (lambda x: r.RotationMatrix(x), "rotation matrix", (3, 3)),
    "Transform.rotation": (lambda x: r.Transform(x, np.zeros(3)), "rotation matrix", (3, 3)),
    "Transform.translation": (lambda x: r.Transform(r.RotationMatrix.identity(), x), "translation", (3,)),
    "Twist.v": (lambda x: r.Twist(x, np.zeros(3)), "twist linear part", (3,)),
    "Twist.w": (lambda x: r.Twist(np.zeros(3), x), "twist angular part", (3,)),
    "Wrench.f": (lambda x: r.Wrench(x, np.zeros(3)), "force", (3,)),
    "Wrench.tau": (lambda x: r.Wrench(np.zeros(3), x), "torque", (3,)),
    "EulerAngles": (lambda x: r.EulerAngles(x), "euler angles", (3,)),
}
WRONG_SHAPES = [(), (0,), (2,), (3,), (4,), (6,), (9,), (1, 3), (3, 1), (3, 3), (3, 4), (4, 4), (1, 3, 3), (3, 3, 3)]
RAGGED = {
    (3, 3): [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
    (3,): [0.0, [1.0], 2.0],
}
RAGGED_MESSAGE = (
    "setting an array element with a sequence. The requested array has an inhomogeneous shape after 1 dimensions. "
    "The detected shape was (3,) + inhomogeneous part."
)


def valid(shape, rng):
    return r.random_rotation(rng).m.copy() if shape == (3, 3) else rng.standard_normal(3)


def raises_exactly(call, cls, message):
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is cls
    assert str(exc.value) == message


@pytest.mark.parametrize("slot", SLOTS)
def test_wrong_shape_message(slot):
    build, name, shape = SLOTS[slot]
    want = "(3, 3)" if shape == (3, 3) else "(3,)"
    for bad in WRONG_SHAPES:
        if bad == shape:
            continue
        for fill in (0.0, np.nan):  # the shape is named before any non-finite element
            msg = f"{name} must have shape {want}, got {bad}"
            raises_exactly(lambda: build(np.full(bad, fill)), Rigid3dError, msg)


@pytest.mark.parametrize("slot", SLOTS)
def test_non_finite_message_at_every_position(slot):
    build, name, shape = SLOTS[slot]
    rng = np.random.default_rng(1301)
    for pos in np.ndindex(shape):
        for bad in (np.nan, np.inf, -np.inf):
            x = valid(shape, rng)
            x[pos] = bad
            raises_exactly(lambda: build(x), Rigid3dError, f"{name} contains non-finite values")
            raises_exactly(lambda: build(x.tolist()), Rigid3dError, f"{name} contains non-finite values")


@pytest.mark.parametrize("slot", SLOTS)
def test_entries_of_1e200(slot):
    # a vector stores them as given; a rotation's orthogonality test overflows and rejects them, with no warning
    build, _, shape = SLOTS[slot]
    rng = np.random.default_rng(1302)
    candidates = [rng.choice([-1e200, 1e200], size=shape)]
    for pos in np.ndindex(shape):
        x = valid(shape, rng)
        x[pos] = 1e200
        candidates.append(x)
    for x in candidates:
        if shape == (3, 3):
            raises_exactly(lambda: build(x), NotARotation, "matrix is not orthogonal within 1e-9")
        else:
            value = build(x)
            stored = [v for v in vars(value).values() if isinstance(v, list) and max(map(abs, v)) >= 1e200]
            assert len(stored) == 1 and np.array(stored[0]).tobytes() == x.tobytes()


@pytest.mark.parametrize("slot", SLOTS)
def test_ragged_list_message(slot):
    build, name, shape = SLOTS[slot]
    raises_exactly(lambda: build(RAGGED[shape]), Rigid3dError, f"{name} must be numeric: {RAGGED_MESSAGE}")


# the stored slots, and the scalar entries that read a caller's numbers without storing them
NUMERIC_ENTRIES = {
    **SLOTS,
    "UnitQuaternion": (lambda x: r.UnitQuaternion(*x), "quaternion", (4,)),
    "so3_exp": (r.so3_exp, "rotation vector", (3,)),
    "hat3": (r.hat3, "vector", (3,)),
}


@pytest.mark.parametrize("entry", NUMERIC_ENTRIES)
def test_int_past_double_range_message(entry):
    # float() and np.asarray raise OverflowError on such an int; it is named as any other unreadable number
    build, name, shape = NUMERIC_ENTRIES[entry]
    x = np.eye(3).tolist() if shape == (3, 3) else [0.0] * shape[0]
    (x[0] if shape == (3, 3) else x)[0] = 10**400
    raises_exactly(lambda: build(x), Rigid3dError, f"{name} must be numeric: int too large to convert to float")


@pytest.mark.parametrize("entry", NUMERIC_ENTRIES)
@pytest.mark.parametrize("text", ["1", b"1"], ids=["str", "bytes"])
def test_numeric_text_message(entry, text):
    # float() and np.asarray would read the text as 1.0 and accept the value; it is refused as text
    build, name, shape = NUMERIC_ENTRIES[entry]
    x = np.eye(3).tolist() if shape == (3, 3) else [1.0] + [0.0] * (shape[0] - 1)
    (x[0] if shape == (3, 3) else x)[0] = text
    raises_exactly(lambda: build(x), Rigid3dError, f"{name} must be numeric: it contains text")


@pytest.mark.parametrize("slot", ["RotationMatrix", "Transform.rotation"])
def test_rotation_messages_keep_their_order(slot):
    build = SLOTS[slot][0]
    rng = np.random.default_rng(1303)
    m = r.random_rotation(rng).m
    raises_exactly(lambda: build(-m), NotARotation, "matrix determinant is not +1 within 1e-9")
    raises_exactly(lambda: build(m + 1e-6), NotARotation, "matrix is not orthogonal within 1e-9")
    drifted = m.copy()
    drifted[0] *= 1.0 + 1e-6
    drifted[1, 1] = np.nan  # non-finite is named before the drift
    raises_exactly(lambda: build(drifted), Rigid3dError, "rotation matrix contains non-finite values")


def count_isfinite(monkeypatch) -> list:
    """Count finiteness tests: np.isfinite over an array and the library's _finite over a vector's floats."""
    calls = []
    for target, name in ((np, "isfinite"), (validation, "_finite")):
        real = getattr(target, name)

        def counting(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, counting)
    return calls


@pytest.mark.parametrize(
    "build, checks",
    [
        # a rotation's drift test within ORTHO_TOL already implies nine finite elements
        (lambda rot, R, t: r.RotationMatrix(R), 0),
        (lambda rot, R, t: r.Transform(rot, t), 1),
        (lambda rot, R, t: r.Transform(R, t), 1),
        (lambda rot, R, t: r.Twist(t, t), 2),
        (lambda rot, R, t: r.Wrench(t, t), 2),
        (lambda rot, R, t: r.EulerAngles(t), 1),
    ],
    ids=["RotationMatrix(R)", "Transform(rot, t)", "Transform(R, t)", "Twist", "Wrench", "EulerAngles"],
)
def test_one_finiteness_check_per_stored_vector(monkeypatch, rng, build, checks):
    rot = r.random_rotation(rng)
    R, t = rot.m.copy(), rng.standard_normal(3)
    calls = count_isfinite(monkeypatch)
    build(rot, R, t)
    assert len(calls) == checks


def test_stored_arrays_are_read_only_copies(rng):
    R, t = r.random_rotation(rng).m.copy(), rng.standard_normal(3)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    rs, ts = np.array([R, R.T]), rng.standard_normal((2, 3))
    values = {
        "rotation": (r.RotationMatrix(R), "m", R),
        "transform": (r.Transform(R, t), "translation", t),
        "twist v": (r.Twist(u, v), "v", u),
        "twist w": (r.Twist(u, v), "w", v),
        "wrench f": (r.Wrench(u, v), "f", u),
        "wrench tau": (r.Wrench(u, v), "tau", v),
        "euler": (r.EulerAngles(u), "angles", u),
    }
    built = _build_transforms(rs.reshape(-1, 9).T, ts.T)
    for i, tf in enumerate(built):
        values[f"stack rotation {i}"] = (tf.rotation, "m", rs)
        values[f"stack translation {i}"] = (tf, "translation", ts)
    before = {k: getattr(value, attr).copy() for k, (value, attr, _) in values.items()}
    for key, (value, attr, source) in values.items():
        stored = getattr(value, attr)
        assert stored.dtype == np.float64 and not stored.flags.writeable, key
        assert not np.shares_memory(stored, source), key
    for source in (R, t, u, v, rs, ts):
        source[...] = 7.0
    for key, (value, attr, _) in values.items():
        assert getattr(value, attr).tobytes() == before[key].tobytes(), key


ENTRY_POINTS = {
    "pivot_calibrate": lambda rng, bad: r.pivot_calibrate(bad),
    "hand_eye_calibrate": lambda rng, bad: r.hand_eye_calibrate(synthetic_handeye(rng, n=5)[1], bad),
    "relative_motions": lambda rng, bad: r.relative_motions(bad),
    "PivotCalibrator.predict": lambda rng, bad: r.PivotCalibrator().fit(synthetic_pivot(rng)[2]).predict(bad),
    "HandEyeCalibrator.predict": lambda rng, bad: r.HandEyeCalibrator().fit(*synthetic_handeye(rng)[1:]).predict(bad),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_an_item_that_is_not_a_transform_is_named(rng, entry):
    poses = [random_transform(rng) for _ in range(5)]
    poses[3] = r.to_matrix4(poses[3])
    with pytest.raises(Rigid3dError, match="^item 3 is of type ndarray, not Transform$"):
        ENTRY_POINTS[entry](rng, poses)
