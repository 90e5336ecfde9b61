"""rigid3d: NumPy-only SO(3)/SE(3) geometry and robotics calibration."""

__version__ = "0.1.0"

from .errors import (
    DegenerateGeometry,
    DegenerateMatrix,
    DegenerateMotion,
    InvalidHomogeneousRow,
    NonUnitQuaternion,
    NotARotation,
    NotSkewSymmetric,
    NotUnitQuaternion,
    ParseError,
    Rigid3dError,
    TooFewMotions,
    TooFewPoints,
    TooFewPoses,
    UnsupportedConvention,
)
from .so3 import (
    EulerAngles,
    EulerConvention,
    RotationMatrix,
    UnitQuaternion,
    euler_to_matrix,
    geodesic_distance,
    hat3,
    matrix_to_euler,
    matrix_to_quat,
    orthonormalize,
    quat_compose,
    quat_inverse,
    quat_to_matrix,
    random_rotation,
    rotate,
    so3_exp,
    so3_log,
    vee3,
)
from .se3 import (
    Transform,
    Twist,
    Wrench,
    adjoint,
    adjoint_apply_twist,
    compose,
    from_matrix4,
    inverse,
    se3_exp,
    se3_log,
    to_matrix4,
    transform_direction,
    transform_point,
    transform_wrench,
)
from .calibration import (
    HandEyeResult,
    PivotResult,
    RegistrationResult,
    hand_eye_calibrate,
    pivot_calibrate,
    register_point_sets,
)
from .estimators import HandEyeCalibrator, NotFittedError, PivotCalibrator, RigidRegistration
from .pose_io import (
    parse_points_csv,
    parse_pose_csv,
    relative_motions,
    serialize_points_csv,
    serialize_pose_csv,
)
