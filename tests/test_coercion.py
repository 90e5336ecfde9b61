"""One coercion rule at every public entry: a wrong type, a string, bytes or None in any parameter raises a Rigid3dError.

The walk covers every public name of rigid3d and the public methods of
its classes, the estimators' fit, predict and transform among them. Each
entry in CALLS gives a valid call; every parameter of it in turn is then
replaced by a library value of another type, by a string, by bytes and
by None. A value-typed parameter that gets another library value, or
that takes no raw form (Transform, Wrench, EulerAngles), answers with
so3._as's one message, "<parameter> is of type <type>, not <class>", as
do the rng and a pose list or stream that is not iterable or that is a
str or bytes. A public name in neither CALLS nor EXEMPT fails the walk.
"""

import inspect
import io
import types

import numpy as np
import pytest

import rigid3d as r
from rigid3d.errors import Rigid3dError
from rigid3d.so3 import _Value

from test_calibration import synthetic_handeye, synthetic_pivot

RNG = np.random.default_rng(3001)
R = r.random_rotation(RNG)
T = r.Transform(R, RNG.standard_normal(3))
XI = r.Twist(RNG.standard_normal(3), RNG.standard_normal(3))
H = r.Wrench(RNG.standard_normal(3), RNG.standard_normal(3))
Q = r.matrix_to_quat(R)
E = r.EulerAngles(RNG.standard_normal(3))
P = RNG.standard_normal((5, 3))
_, _, PIVOT = synthetic_pivot(RNG, n=6)
_, HAND_A, HAND_B = synthetic_handeye(RNG, n=5)
POSE_TEXT = r.serialize_pose_csv(PIVOT)
POINT_TEXT = r.serialize_points_csv(P)

# name -> a fresh (callable, valid positional arguments); a fresh estimator or stream for each call
CALLS = {
    "RotationMatrix": lambda: (r.RotationMatrix, [R.m]),
    "UnitQuaternion": lambda: (r.UnitQuaternion, [Q.w, Q.x, Q.y, Q.z]),
    "EulerAngles": lambda: (r.EulerAngles, [E.angles, r.EulerConvention.XYZ_EXTRINSIC]),
    "Transform": lambda: (r.Transform, [R, T.translation]),
    "Twist": lambda: (r.Twist, [XI.v, XI.w]),
    "Twist.from_array": lambda: (r.Twist.from_array, [XI.as_array()]),
    "Wrench": lambda: (r.Wrench, [H.f, H.tau]),
    "hat3": lambda: (r.hat3, [XI.w]),
    "vee3": lambda: (r.vee3, [r.hat3(XI.w)]),
    "so3_exp": lambda: (r.so3_exp, [XI.w]),
    "so3_log": lambda: (r.so3_log, [R]),
    "quat_to_matrix": lambda: (r.quat_to_matrix, [Q]),
    "matrix_to_quat": lambda: (r.matrix_to_quat, [R]),
    "quat_compose": lambda: (r.quat_compose, [Q, Q]),
    "quat_inverse": lambda: (r.quat_inverse, [Q]),
    "euler_to_matrix": lambda: (r.euler_to_matrix, [E]),
    "matrix_to_euler": lambda: (r.matrix_to_euler, [R, r.EulerConvention.XYZ_EXTRINSIC]),
    "rotate": lambda: (r.rotate, [R, XI.v]),
    "orthonormalize": lambda: (r.orthonormalize, [R.m]),
    "geodesic_distance": lambda: (r.geodesic_distance, [R, R]),
    "random_rotation": lambda: (r.random_rotation, [np.random.default_rng(1)]),
    "compose": lambda: (r.compose, [T, T]),
    "inverse": lambda: (r.inverse, [T]),
    "transform_point": lambda: (r.transform_point, [T, XI.v]),
    "transform_direction": lambda: (r.transform_direction, [T, XI.v]),
    "se3_exp": lambda: (r.se3_exp, [XI]),
    "se3_log": lambda: (r.se3_log, [T]),
    "adjoint": lambda: (r.adjoint, [T]),
    "adjoint_apply_twist": lambda: (r.adjoint_apply_twist, [T, XI]),
    "transform_wrench": lambda: (r.transform_wrench, [T, H]),
    "to_matrix4": lambda: (r.to_matrix4, [T]),
    "from_matrix4": lambda: (r.from_matrix4, [r.to_matrix4(T)]),
    "register_point_sets": lambda: (r.register_point_sets, [P, P]),
    "pivot_calibrate": lambda: (r.pivot_calibrate, [PIVOT]),
    "hand_eye_calibrate": lambda: (r.hand_eye_calibrate, [HAND_A, HAND_B]),
    "parse_pose_csv": lambda: (r.parse_pose_csv, [io.StringIO(POSE_TEXT)]),
    "parse_points_csv": lambda: (r.parse_points_csv, [io.StringIO(POINT_TEXT)]),
    "serialize_pose_csv": lambda: (r.serialize_pose_csv, [PIVOT]),
    "serialize_points_csv": lambda: (r.serialize_points_csv, [P]),
    "relative_motions": lambda: (r.relative_motions, [PIVOT]),
    "RigidRegistration.fit": lambda: (r.RigidRegistration().fit, [P, P]),
    "RigidRegistration.fit_transform": lambda: (r.RigidRegistration().fit_transform, [P, P]),
    "RigidRegistration.transform": lambda: (r.RigidRegistration().fit(P, P).transform, [P]),
    "RigidRegistration.predict": lambda: (r.RigidRegistration().fit(P, P).predict, [P]),
    "PivotCalibrator.fit": lambda: (r.PivotCalibrator().fit, [PIVOT]),
    "PivotCalibrator.predict": lambda: (r.PivotCalibrator().fit(PIVOT).predict, [PIVOT]),
    "HandEyeCalibrator.fit": lambda: (r.HandEyeCalibrator().fit, [HAND_A, HAND_B]),
    "HandEyeCalibrator.predict": lambda: (r.HandEyeCalibrator().fit(HAND_A, HAND_B).predict, [HAND_A]),
}

EXEMPT = {
    "RegistrationResult": "a result record: it stores its fields as the solver gives them",
    "PivotResult": "a result record: it stores its fields as the solver gives them",
    "HandEyeResult": "a result record: it stores its fields as the solver gives them",
    "EulerConvention": "an Enum: a lookup by an unknown value raises ValueError, as every Enum's does",
    **{
        name: "an exception class: it takes any message"
        for name, obj in vars(r).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    },
    **{
        f"{cls}.{method}": reason
        for cls in ("RigidRegistration", "PivotCalibrator", "HandEyeCalibrator")
        for method, reason in (
            ("set_params", "the sklearn protocol: an unknown parameter name raises ValueError"),
            ("get_params", "the sklearn protocol: deep is accepted and ignored, as no estimator nests another"),
        )
    },
}
EXEMPT_PARAMETERS = {("PivotCalibrator.fit", "y"): "the sklearn protocol: fit(X, y=None) accepts and ignores y"}


def walk() -> set:
    """Every public name of rigid3d, and Class.method for each public method of a class, that takes a parameter."""
    found = set()
    for name, obj in vars(r).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType) or name in EXEMPT:
            continue
        if parameters(obj):
            found.add(name)
        if isinstance(obj, type):
            for attr in dir(obj):
                method = getattr(obj, attr)
                qualified = f"{name}.{attr}"
                is_method = inspect.isfunction(method) or inspect.ismethod(method)
                if not attr.startswith("_") and is_method and qualified not in EXEMPT and parameters(method):
                    found.add(qualified)
    return found


def parameters(fn) -> list[str]:
    """fn's parameter names, self left out."""
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def test_every_public_name_is_probed_or_exempt():
    assert walk() == set(CALLS)


NO_RAW_FORM = (r.Transform, r.Wrench, r.EulerAngles)


def wrong_values(valid) -> list:
    """A library value of another type than valid, a string, bytes and None."""
    other = H if not isinstance(valid, r.Wrench) else XI
    return [other, "abc", b"abc", None]


def one_rule_message(valid, bad) -> str | None:
    """The rest of _as's message after the parameter's name, where the one rule names bad's type, else None.

    None leaves the message to a raw form's constructor, or to a parser.
    """
    if isinstance(valid, (list, io.StringIO)):  # a pose list or a stream: a str or bytes is neither
        return f"is of type {type(bad).__name__}, not Iterable"
    if isinstance(valid, (np.random.Generator, *NO_RAW_FORM)) or (isinstance(valid, _Value) and isinstance(bad, _Value)):
        return f"is of type {type(bad).__name__}, not {type(valid).__name__}"
    return None


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_wrong_type_string_or_none_raises_rigid3d_error(name):
    fn, args = CALLS[name]()
    fn(*args)  # the table's call is valid, so each error below is the substituted argument's
    probed = [p for p in parameters(fn) if (name, p) not in EXEMPT_PARAMETERS]
    assert len(probed) == len(args)
    for i, param in enumerate(probed):
        for bad in wrong_values(args[i]):
            fn, args = CALLS[name]()
            with pytest.raises(Exception) as exc:
                fn(*args[:i], bad, *args[i + 1 :])
            assert isinstance(exc.value, Rigid3dError), (param, bad, exc.value)
            message, said = one_rule_message(args[i], bad), str(exc.value)
            # an estimator's fit names the parameter of the solver that it hands X or y to
            solver_param = said.split(" ")[0] if name.endswith((".fit", ".fit_transform")) else param
            assert message is None or said == f"{solver_param} {message}", (param, bad)


def test_the_exempt_names_exist():
    for name in EXEMPT:
        cls, _, method = name.partition(".")
        assert hasattr(getattr(r, cls), method or "__init__"), name
    assert [p for (name, p) in EXEMPT_PARAMETERS if p not in parameters(CALLS[name]()[0])] == []
