"""Value types store their floats: the scalar path builds no array, and each public array is built once from the floats.

RotationMatrix, Transform, Twist, Wrench, EulerAngles and UnitQuaternion
keep their elements as Python floats. The scalar functions read and
write those floats; .m, .translation, .v, .w, .f, .tau and .angles are
read-only arrays built on first access and cached. UnitQuaternion has
no array: its .w, .x, .y and .z are the floats themselves.

The three solver results are records of the same kind: frozen, pickled
and shown as the values are, and no dataclass. Importing rigid3d loads
neither dataclasses nor the inspect it pulls in.
"""

import dataclasses
import inspect
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import rigid3d as r
from rigid3d import se3, so3, validation

from conftest import NEAR_PI, SMALL_ANGLE, child, random_transform
from test_calibration import synthetic_handeye, synthetic_pivot
from test_lazy_numpy import SCALAR_COMMANDS


def counting(monkeypatch, target, name: str, calls: list | None = None) -> list:
    """Patch target.name with a wrapper that records each call, in calls when given."""
    calls = [] if calls is None else calls
    real = getattr(target, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, wrapper)
    return calls


def array_builds(monkeypatch) -> list:
    """Count np.array, np.asarray and floats, wherever the library holds floats."""
    calls = counting(monkeypatch, np, "array")
    counting(monkeypatch, np, "asarray", calls)
    real = validation.floats

    def floats(*args, **kwargs):
        calls.append("floats")
        return real(*args, **kwargs)

    for module in (validation, so3, se3):
        monkeypatch.setattr(module, "floats", floats)
    return calls


SCALAR_PATH = {
    "compose": lambda a, b, tw, q: r.compose(a, b),
    "inverse": lambda a, b, tw, q: r.inverse(a),
    "quat_to_matrix": lambda a, b, tw, q: r.quat_to_matrix(q),
    "se3_exp": lambda a, b, tw, q: r.se3_exp(tw),
    "se3_log": lambda a, b, tw, q: r.se3_log(a),
    "matrix_to_quat": lambda a, b, tw, q: r.matrix_to_quat(a.rotation),
    "matrix_to_euler": lambda a, b, tw, q: r.matrix_to_euler(a.rotation),
    "adjoint_apply_twist": lambda a, b, tw, q: r.adjoint_apply_twist(a, tw),
}


@pytest.mark.parametrize("name", sorted(SCALAR_PATH))
def test_no_array_on_the_scalar_path(monkeypatch, rng, name):
    a, b = random_transform(rng), random_transform(rng)
    tw = r.Twist(rng.standard_normal(3), rng.standard_normal(3))
    q = r.matrix_to_quat(r.random_rotation(rng))
    calls = array_builds(monkeypatch)
    SCALAR_PATH[name](a, b, tw, q)
    assert calls == []


def test_the_counter_sees_a_constructor(monkeypatch, rng):
    calls = array_builds(monkeypatch)
    r.Transform(r.random_rotation(rng), rng.standard_normal(3))
    assert "floats" in calls and "asarray" in calls


@pytest.mark.parametrize("call", ["se3_exp", "from_array"])
def test_a_raw_twist_is_checked_once(monkeypatch, call):
    xi = np.array([1.0, -2.0, 3.0, 0.1, -0.2, 0.3])
    calls = counting(monkeypatch, validation, "_checked")
    counting(monkeypatch, validation, "_finite", calls)
    out = r.se3_exp(xi) if call == "se3_exp" else r.Twist.from_array(xi)
    assert len(calls) == 1
    if call == "from_array":
        assert out.v.tobytes() == xi[:3].tobytes() and out.w.tobytes() == xi[3:].tobytes()


def test_a_raw_twist_is_rejected_as_before():
    with pytest.raises(r.Rigid3dError, match=r"^twist must have shape \(6,\), got \(5,\)$"):
        r.Twist.from_array(np.zeros(5))
    with pytest.raises(r.Rigid3dError, match="^twist contains non-finite values$"):
        r.se3_exp([0.0, 0.0, np.inf, 0.0, 0.0, 0.0])


def rotation_of_angle(rng, kind: str) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    if kind == "pi":  # exactly pi: symmetric, so so3_log applies the quaternion sign rule at w = 0
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    angle = {"zero": 0.0, "small": SMALL_ANGLE / 3.0, "mid": 1.3, "near_pi": NEAR_PI + 5e-3}[kind]
    return r.so3_exp(axis * angle).m


ANGLES = ["zero", "small", "mid", "near_pi", "pi"]


def public_arrays(rot, t, tw, wr, euler):
    """(value, public array name, stored floats) of each array a value type exposes."""
    return [
        (rot, "m", rot._e),
        (t, "translation", t._t),
        (t.rotation, "m", t.rotation._e),
        (tw, "v", tw._v),
        (tw, "w", tw._w),
        (wr, "f", wr._f),
        (wr, "tau", wr._tau),
        (euler, "angles", euler._a),
    ]


@pytest.mark.parametrize("kind", ANGLES)
def test_public_arrays_are_the_stored_floats_built_once(rng, kind):
    m = rotation_of_angle(rng, kind)
    pose = r.Transform(m, rng.uniform(-10, 10, 3))
    computed = public_arrays(
        r.quat_to_matrix(r.matrix_to_quat(pose.rotation)),
        r.compose(pose, pose),
        r.se3_log(pose),
        r.transform_wrench(pose, r.Wrench(rng.standard_normal(3), rng.standard_normal(3))),
        r.matrix_to_euler(pose.rotation)[0],
    )
    built = public_arrays(
        r.RotationMatrix(m), pose, r.Twist(*rng.standard_normal((2, 3))), r.Wrench(*rng.standard_normal((2, 3))),
        r.EulerAngles(rng.standard_normal(3)),
    )
    for value, name, floats in computed + built:
        first = getattr(value, name)
        assert getattr(value, name) is first, name
        assert first.dtype == np.float64 and not first.flags.writeable, name
        assert first.tobytes() == np.array(floats).tobytes(), name  # tobytes: signed zeros count too
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1.0


def test_stacked_values_cache_arrays_equal_to_their_floats(rng):
    motions = r.relative_motions([random_transform(rng) for _ in range(4)])
    arrays = [t.rotation.m for t in motions]
    assert all(t.rotation.m is m for t, m in zip(motions, arrays))
    assert all(t.rotation.m.tobytes() == np.array(t.rotation._e).tobytes() for t in motions)
    assert all(t.translation.tobytes() == np.array(t._t).tobytes() for t in motions)


def test_equality_compares_the_stored_floats(rng):
    # two values are equal when their classes and stored floats are: built or computed, cached array or not
    m = r.random_rotation(rng).m
    t = rng.standard_normal(3)
    a, b = r.Transform(m, t), r.Transform(m.tolist(), tuple(t))
    assert a == b and hash(a) == hash(b)
    assert r.compose(a, r.Transform.identity()) == a
    assert r.Twist.from_array([1, 2, 3, 4, 5, 6]) == r.Twist([1, 2, 3], [4, 5, 6])
    assert r.Wrench([1, 2, 3], [4, 5, 6]) != r.Wrench([1, 2, 3], [4, 5, 7])
    assert r.EulerAngles([0.1, 0.2, 0.3]) != r.EulerAngles([0.1, 0.2, 0.3], r.EulerConvention.XYZ_EXTRINSIC)
    assert r.RotationMatrix.identity() != r.Transform.identity()
    assert r.Twist([1, 2, 3], [4, 5, 6]) != r.Wrench([1, 2, 3], [4, 5, 6])
    assert r.Transform(m, t) != r.Transform(m, t + 1.0)
    assert len({a, b, r.inverse(a)}) == 2
    q = r.matrix_to_quat(a.rotation)
    assert q == r.UnitQuaternion(q.w, q.x, q.y, q.z) and hash(q) == hash(r.UnitQuaternion(*q.components()))
    assert q != r.quat_inverse(q) and q != (q.w, q.x, q.y, q.z)


def stored_arrays(value) -> list:
    """The names of the ndarrays that value, or the rotation it holds, keeps in its __dict__."""
    parts = [value, *(v for v in vars(value).values() if isinstance(v, so3._Value))]
    return [k for part in parts for k, v in vars(part).items() if isinstance(v, np.ndarray)]


def built_values(rng) -> dict:
    """One value of each type from every path that makes one: public constructors, computations, stacks, identity."""
    rot = r.random_rotation(rng)
    R, t, u = rot.m.copy(), rng.standard_normal(3), rng.standard_normal(3)
    values = {}
    for kind, conv in {"array": lambda a: a, "list": lambda a: a.tolist(), "tuple": lambda a: tuple(a.tolist())}.items():
        R_, t_, u_ = conv(R), conv(t), conv(u)
        values[f"RotationMatrix({kind})"] = r.RotationMatrix(R_)
        values[f"Transform({kind})"] = r.Transform(R_, t_)
        values[f"Twist({kind})"] = r.Twist(t_, u_)
        values[f"Wrench({kind})"] = r.Wrench(t_, u_)
        values[f"EulerAngles({kind})"] = r.EulerAngles(u_)
    pose = r.Transform(rot, t)
    values.update({
        "compose": r.compose(pose, pose),
        "inverse": r.inverse(pose),
        "se3_exp": r.se3_exp(np.r_[t, u]),
        "se3_log": r.se3_log(pose),
        "so3_exp": r.so3_exp(u),
        "orthonormalize": r.orthonormalize(R),
        "matrix_to_euler": r.matrix_to_euler(rot)[0],
        "transform_wrench": r.transform_wrench(pose, r.Wrench(t, u)),
        "Twist.from_array": r.Twist.from_array(np.r_[t, u]),
        "from_matrix4": r.from_matrix4(r.to_matrix4(pose)),
        "RotationMatrix.identity": r.RotationMatrix.identity(),
        "Transform.identity": r.Transform.identity(),
    })
    for i, motion in enumerate(r.relative_motions([pose, r.compose(pose, pose), r.inverse(pose)])):
        values[f"_build_transforms {i}"] = motion
    return values


def test_values_hold_no_array_until_one_is_read(rng):
    for key, value in built_values(rng).items():
        assert stored_arrays(value) == [], key


PUBLIC_ARRAYS = {
    r.RotationMatrix: ("m",), r.EulerAngles: ("angles",), r.Twist: ("v", "w"), r.Wrench: ("f", "tau"),
    r.Transform: ("translation",),
}


def read_arrays(value) -> list:
    """The bytes of each public array of value and of the rotation a Transform holds; reading them caches them."""
    out = [getattr(value, name).tobytes() for name in PUBLIC_ARRAYS[type(value)]]
    return out + (read_arrays(value.rotation) if isinstance(value, r.Transform) else [])


def test_pickle_keeps_the_floats_and_drops_the_cached_arrays(rng):
    for key, value in built_values(rng).items():
        arrays = read_arrays(value)
        assert stored_arrays(value) != [], key
        back = pickle.loads(pickle.dumps(value))
        assert stored_arrays(back) == [] and back == value, key
        assert read_arrays(back) == arrays, key


def test_values_are_frozen_and_pickle(rng):
    t = r.compose(random_transform(rng), random_transform(rng))
    with pytest.raises(FrozenInstanceError):
        t.translation = np.zeros(3)
    with pytest.raises(FrozenInstanceError):
        del t.rotation
    back = pickle.loads(pickle.dumps(t))
    assert back == t and back.rotation.m.tobytes() == t.rotation.m.tobytes()
    q = r.matrix_to_quat(t.rotation)
    with pytest.raises(FrozenInstanceError):
        q.w = 1.0
    with pytest.raises(FrozenInstanceError):
        del q.x
    back = pickle.loads(pickle.dumps(q))
    assert back == q and (back.w, back.x, back.y, back.z) == (q.w, q.x, q.y, q.z)


def solver_results(rng) -> dict:
    """One result of each solver, on exact synthetic inputs."""
    p = rng.standard_normal((6, 3))
    return {
        "RegistrationResult": r.register_point_sets(p, p + 1.0),
        "PivotResult": r.pivot_calibrate(synthetic_pivot(rng, n=5)[2]),
        "HandEyeResult": r.hand_eye_calibrate(*synthetic_handeye(rng, n=4)[1:]),
    }


RESULT_FIELDS = {
    "RegistrationResult": ("transform", "rms_error", "per_point_residuals"),
    "PivotResult": ("tip_offset", "pivot_point", "rms_error", "per_pose_residuals"),
    "HandEyeResult": ("x", "rotation_rms", "translation_rms", "per_motion_translation_residuals"),
}


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_results_are_frozen_records_that_pickle(rng, name):
    result, fields = solver_results(rng)[name], RESULT_FIELDS[name]
    assert type(result).__name__ == name and not dataclasses.is_dataclass(result)
    assert tuple(inspect.signature(type(result)).parameters) == fields
    for field in fields:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
            setattr(result, field, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
            delattr(result, field)
    back = pickle.loads(pickle.dumps(result))
    assert type(back) is type(result) and vars(back).keys() == vars(result).keys()
    for field in fields:
        got, want = getattr(back, field), getattr(result, field)
        assert got == want if isinstance(want, (float, r.Transform)) else got.tobytes() == want.tobytes(), field
    assert repr(result) == f"{name}({', '.join(f'{f}={getattr(result, f)!r}' for f in fields)})"
    assert repr(back) == repr(result)


def test_result_equality_compares_the_fields_and_hashing_an_array_raises():
    result = r.RegistrationResult(r.Transform.identity(), 0.0, np.zeros(1))
    assert repr(result) == (
        f"RegistrationResult(transform={r.Transform.identity()!r}, rms_error=0.0, per_point_residuals=array([0.]))"
    )
    assert result == r.RegistrationResult(r.Transform.identity(), 0.0, np.zeros(1))
    assert result != r.RegistrationResult(r.Transform.identity(), 1.0, np.zeros(1))
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(result)


FROZEN_IN_A_FRESH_INTERPRETER = """
import sys
preloaded = 'dataclasses' in sys.modules
import rigid3d
loaded = 'dataclasses' in sys.modules
try:
    rigid3d.Transform.identity().translation = None
except Exception as exc:
    import dataclasses
    print(preloaded, loaded, type(exc) is dataclasses.FrozenInstanceError)
"""


def test_the_frozen_error_is_the_dataclasses_one_though_rigid3d_never_loaded_it():
    out = child(FROZEN_IN_A_FRESH_INTERPRETER)
    if out.startswith("True"):
        pytest.skip("this interpreter loads dataclasses at start-up (site or sitecustomize)")
    assert out == "False False True\n"


def loaded_while(code: str) -> str:
    """Which of dataclasses and inspect a fresh interpreter loads while it runs code, as a sorted list.

    The difference from the modules loaded at start leaves out what site preloads.
    """
    return child(
        f"import io, sys\nbefore = set(sys.modules)\n{code}\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )


@pytest.mark.parametrize("module", ["rigid3d", "rigid3d.cli"])
def test_import_loads_no_dataclasses(module):
    assert loaded_while(f"import {module}") == "[]\n"


@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_command_loads_no_dataclasses(name):
    argv = SCALAR_COMMANDS[name]
    run = f"from rigid3d.cli import run_cli\nassert run_cli({argv!r}, stdout=io.StringIO(), stderr=io.StringIO()) == 0"
    assert loaded_while(run) == "[]\n"


def test_the_loaded_modules_are_seen():
    # the positive control: the gate above sees dataclasses and inspect when they load
    assert loaded_while("import dataclasses") == "['dataclasses', 'inspect']\n"


def test_repr_shows_the_public_arrays():
    assert repr(r.Transform.identity()) == (
        "Transform(rotation=RotationMatrix(m=array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]])), "
        "translation=array([0., 0., 0.]))"
    )
    assert repr(r.EulerAngles([1, 2, 3])) == (
        "EulerAngles(angles=array([1., 2., 3.]), convention=<EulerConvention.ZYX_INTRINSIC: 'zyx_intrinsic'>)"
    )
    assert repr(r.UnitQuaternion.identity()) == "UnitQuaternion(w=1.0, x=0.0, y=0.0, z=0.0)"
    assert not dataclasses.is_dataclass(r.UnitQuaternion.identity())


def test_single_operand_enters_as_floats(rng):
    # a float times a row, in _apply's order: the same bits as the (9, 1) broadcast and as transform_point
    t = random_transform(rng, 10.0)
    p = rng.uniform(-100, 100, (50, 3))
    rs = np.array([r.random_rotation(rng).m for _ in range(50)])
    rows = rs.reshape(-1, 9).T
    got = np.transpose(so3._apply(t.rotation._e, p.T)) + t.translation
    assert got.tobytes() == (np.transpose(so3._apply(t.rotation.m.reshape(9, 1), p.T)) + t.translation).tobytes()
    assert got.tobytes() == np.array([r.transform_point(t, x) for x in p]).tobytes()
    assert np.transpose(so3._apply(rows, t._t)).tobytes() == np.array([r.rotate(m, t.translation) for m in rs]).tobytes()
    e, ms = t.rotation._e, rs.reshape(-1, 9).tolist()
    assert np.transpose(so3._mul(e, rows)).tobytes() == np.array([so3._mul(e, m) for m in ms]).tobytes()
    assert np.transpose(so3._mul(rows, e)).tobytes() == np.array([so3._mul(m, e) for m in ms]).tobytes()


def test_an_overflowing_computed_vector_is_named_as_before():
    huge = r.Transform(r.RotationMatrix.identity(), [1e308, 0.0, 0.0])
    with pytest.raises(r.Rigid3dError, match="^translation contains non-finite values$"):
        r.compose(huge, huge)
    with pytest.raises(r.Rigid3dError, match="^twist linear part contains non-finite values$"):
        r.adjoint_apply_twist(huge, r.Twist([0.0, 0.0, 0.0], [0.0, 10.0, 0.0]))  # t x (R w) overflows
