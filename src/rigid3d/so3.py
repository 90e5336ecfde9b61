"""SO(3): rotation representations, conversions, and the exp/log pair.

Conventions:
    * Quaternions are scalar-first (w, x, y, z), Hamilton product.
    * Rotation vectors are 3-vectors whose norm is the angle in radians,
      canonicalized to angle <= pi by the log map.
    * Euler angles support ZYX intrinsic (roll, pitch, yaw) and XYZ
      extrinsic (about fixed x, then y, then z); both expand to
      Rz * Ry * Rx.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMatrix,
    NotARotation,
    NotSkewSymmetric,
    NotUnitQuaternion,
    Rigid3dError,
    UnsupportedConvention,
)
from .validation import check_matrix, freeze

ORTHO_TOL = 1e-9
SMALL_ANGLE = 1e-8  # so3_log returns the antisymmetric part itself below this angle
SERIES_ANGLE = 1e-4  # exp, V and V^-1 take Taylor series below this angle, where their closed forms cancel
NEAR_PI = math.pi - 1e-2  # so3_log's mid-range formula loses eps/(pi - theta)^2; above this it reads the quaternion
NEAR_LOCK = math.pi / 2 - 1e-2  # asin loses eps/(pi/2 - |pitch|); matrix_to_euler takes pitch from atan2 above this
EXP_MAX_COMPONENT = 1e100  # exp rejects larger |w_i|: the norm, and theta**3 below, would overflow past ~1e102


@dataclass(frozen=True)
class RotationMatrix:
    """3x3 orthogonal matrix with det +1; validated eagerly."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        drift2, det = _defects(*m.ravel().tolist()) if m.shape == (3, 3) else (math.nan, math.nan)
        # A drift within ORTHO_TOL implies nine finite elements, so this test is also the finiteness test;
        # written so that a NaN drift or determinant (overflow) is rejected.
        if not math.sqrt(drift2) <= ORTHO_TOL:
            check_matrix(m, (3, 3), "rotation matrix")  # a wrong shape or a non-finite element is named first
            raise NotARotation("matrix is not orthogonal within 1e-9")
        if not abs(det - 1.0) <= ORTHO_TOL:
            raise NotARotation("matrix determinant is not +1 within 1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @staticmethod
    def identity() -> "RotationMatrix":
        return RotationMatrix(np.eye(3))


@dataclass(frozen=True)
class UnitQuaternion:
    """Scalar-first unit quaternion (w, x, y, z).

    The constructor rejects norms off by more than 1e-6 and renormalizes
    the rest, so stored components are unit to machine precision.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = _quat_norm(self.w, self.x, self.y, self.z)
        if not abs(n - 1.0) <= 1e-6:  # written so that a NaN norm is rejected
            raise NotUnitQuaternion(f"quaternion norm {n:.9g} deviates from 1 by more than 1e-6")
        object.__setattr__(self, "w", float(self.w) / n)
        object.__setattr__(self, "x", float(self.x) / n)
        object.__setattr__(self, "y", float(self.y) / n)
        object.__setattr__(self, "z", float(self.z) / n)

    @staticmethod
    def identity() -> "UnitQuaternion":
        return UnitQuaternion(1.0, 0.0, 0.0, 0.0)

    def canonical(self) -> "UnitQuaternion":
        """Flip sign so w >= 0; at w == 0 the first nonzero of (x, y, z) is positive."""
        q = (self.w, self.x, self.y, self.z)
        c = _canonical(q)
        return self if c is q else UnitQuaternion(*c)

    def components(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


class EulerConvention(enum.Enum):
    ZYX_INTRINSIC = "zyx_intrinsic"
    XYZ_EXTRINSIC = "xyz_extrinsic"


@dataclass(frozen=True)
class EulerAngles:
    """Three angles in radians plus a convention tag.

    ZYX_INTRINSIC stores (roll, pitch, yaw); XYZ_EXTRINSIC stores the
    fixed-axis angles (about x, about y, about z). Both map to the same
    matrix product Rz * Ry * Rx.
    """

    angles: np.ndarray
    convention: EulerConvention = EulerConvention.ZYX_INTRINSIC

    def __post_init__(self):
        if not isinstance(self.convention, EulerConvention):
            raise UnsupportedConvention(f"unknown Euler convention: {self.convention!r}")
        object.__setattr__(self, "angles", freeze(self.angles, (3,), "euler angles"))


def hat3(v) -> np.ndarray:
    """Cross-product matrix: hat3(v) @ u == cross(v, u)."""
    return np.array(_hat(check_matrix(v, (3,), "vector").tolist())).reshape(3, 3)


def vee3(s) -> np.ndarray:
    """Inverse of hat3; input must be skew-symmetric within 1e-9."""
    s = check_matrix(s, (3, 3), "skew matrix")
    with np.errstate(over="ignore"):  # an overflowing s + s^T gives inf, which is rejected
        r0, r1, r2 = (s + s.T).tolist()
    if math.sqrt(_sq(*r0) + _sq(*r1) + _sq(*r2)) >= 1e-9:
        raise NotSkewSymmetric("matrix is not skew-symmetric within 1e-9")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def so3_exp(r) -> RotationMatrix:
    """Rodrigues formula; Taylor coefficients below SERIES_ANGLE."""
    return _rodrigues(check_matrix(r, (3,), "rotation vector"))[0]


def so3_log(r_mat: RotationMatrix) -> np.ndarray:
    """Rotation vector with angle in [0, pi].

    Mid-range uses the antisymmetric-part formula. Near pi, where sin(theta)
    vanishes, angle and axis come from the canonical Shepperd quaternion
    (w, v) of matrix_to_quat as 2 atan2(|v|, w) v / |v|; at exactly pi its
    sign rule makes the first nonzero axis component positive.
    """
    return np.array(_log(_as_rotation(r_mat).tolist()))


def quat_to_matrix(q: UnitQuaternion) -> RotationMatrix:
    """Direction-cosine matrix of a Hamilton, scalar-first quaternion."""
    if not isinstance(q, UnitQuaternion):
        q = UnitQuaternion(*q)
    w, x, y, z = q.w, q.x, q.y, q.z
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return _repair(m)


def matrix_to_quat(r_mat: RotationMatrix) -> UnitQuaternion:
    """Shepperd's method: branch on the largest of trace and diagonal entries."""
    return _shepperd(_as_rotation(r_mat).tolist())


def quat_compose(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a * b, renormalized and canonicalized."""
    w = a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z
    x = a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y
    y = a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x
    z = a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w
    return UnitQuaternion(*_canonical((w, x, y, z)))


def quat_inverse(q: UnitQuaternion) -> UnitQuaternion:
    """Conjugate (== inverse for unit quaternions), canonicalized."""
    return UnitQuaternion(*_canonical((q.w, -q.x, -q.y, -q.z)))


def _rx(a: float) -> tuple:
    c, s = math.cos(a), math.sin(a)
    return (1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c)


def _ry(a: float) -> tuple:
    c, s = math.cos(a), math.sin(a)
    return (c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)


def _rz(a: float) -> tuple:
    c, s = math.cos(a), math.sin(a)
    return (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)


def euler_to_matrix(e: EulerAngles) -> RotationMatrix:
    """Rz Ry Rx: both conventions store the angles about x, y and z, in that order."""
    ax, ay, az = e.angles.tolist()
    return _repair(np.array(_mul(_mul(_rz(az), _ry(ay)), _rx(ax))).reshape(3, 3))


def matrix_to_euler(
    r_mat: RotationMatrix,
    convention: EulerConvention = EulerConvention.ZYX_INTRINSIC,
) -> tuple[EulerAngles, bool]:
    """Extract Euler angles; second return value flags gimbal lock.

    Within 1e-7 of |pitch| == pi/2 the roll is set to 0 and yaw absorbs
    the remaining degree of freedom. Above NEAR_LOCK the pitch comes from
    atan2(-m20, hypot(m00, m10)), which stays exact where asin loses
    digits.
    """
    m = _as_rotation(r_mat)
    sp = max(-1.0, min(1.0, -m[2, 0]))
    pitch = math.asin(sp)
    if abs(pitch) > NEAR_LOCK:
        pitch = math.atan2(-m[2, 0], math.hypot(m[0, 0], m[1, 0]))
    if (math.pi / 2.0) - abs(pitch) < 1e-7:
        roll = 0.0
        yaw = math.atan2(-m[0, 1], m[1, 1])
        locked = True
    else:
        roll = math.atan2(m[2, 1], m[2, 2])
        yaw = math.atan2(m[1, 0], m[0, 0])
        locked = False
    return EulerAngles([roll, pitch, yaw], convention), locked


def rotate(r_mat: RotationMatrix, v) -> np.ndarray:
    """Apply the rotation to a 3-vector; a result that overflows raises Rigid3dError."""
    m = _as_rotation(r_mat).ravel().tolist()
    return check_matrix(_apply(m, check_matrix(v, (3,), "vector").tolist()), (3,), "rotated vector")


def orthonormalize(m) -> RotationMatrix:
    """Nearest rotation in Frobenius norm, the polar factor of m; idempotent."""
    m = check_matrix(m, (3, 3), "matrix")
    r, sigma, _ = _nearest_rotation(m)
    if sigma[-1] < 1e-9:
        raise DegenerateMatrix("matrix is singular: smallest singular value below 1e-9")
    r0, r1, r2 = (m - r).tolist()  # an overflowing square gives inf, which is rejected
    if math.sqrt(_sq(*r0) + _sq(*r1) + _sq(*r2)) > 0.5:
        raise DegenerateMatrix("matrix is too far from SO(3) to repair")
    return _repair(r)


def geodesic_distance(a: RotationMatrix, b: RotationMatrix) -> float:
    """Angle of the relative rotation, in [0, pi]; symmetric.

    Computed as the norm of the log map, which stays accurate near zero
    where arccos of the trace loses half the available precision.
    """
    rel = _mul(_as_rotation(a).T.ravel().tolist(), _as_rotation(b).ravel().tolist())
    return math.sqrt(_sq(*so3_log(_repair(np.array(rel).reshape(3, 3))).tolist()))


def random_rotation(rng: np.random.Generator) -> RotationMatrix:
    """Uniform random rotation (QR of a Gaussian matrix with sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return _repair(q)


def _hat(v) -> tuple:
    """hat3 of an already validated 3-vector, as its nine elements in row-major order."""
    x, y, z = v
    return (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)


def _rodrigues(w: np.ndarray) -> tuple[RotationMatrix, list[float]]:
    """exp(hat(w)) = I + a K + b K^2 of a validated w, and the nine elements of V(w) = I + b K + c K^2.

    a, b, c = sin(t)/t, (1 - cos(t))/t^2, (t - sin(t))/t^3, from their Taylor series
    below SERIES_ANGLE, where 1 - cos(t) cancels and V v would lose eps/t.
    A component beyond EXP_MAX_COMPONENT raises Rigid3dError.
    """
    w = w.tolist()
    if max(map(abs, w)) > EXP_MAX_COMPONENT:
        raise Rigid3dError(f"rotation vector component beyond {EXP_MAX_COMPONENT:g} in magnitude")
    theta = math.sqrt(_sq(*w))
    k = _hat(w)
    if theta < SERIES_ANGLE:
        a, b, c = 1.0 - theta**2 / 6.0, 0.5 - theta**2 / 24.0, 1.0 / 6.0 - theta**2 / 120.0
    else:
        sin = math.sin(theta)
        a, b, c = sin / theta, (1.0 - math.cos(theta)) / theta**2, (theta - sin) / theta**3
    k2 = _mul(k, k)
    rot = _repair(np.array([e + a * x + b * x2 for e, x, x2 in zip(_EYE, k, k2)]).reshape(3, 3))
    return rot, [e + b * x + c * x2 for e, x, x2 in zip(_EYE, k, k2)]


def _log(rows) -> list[float]:
    """so3_log of a validated rotation as nested lists; the trace sums as np.trace does, (m00 + m11) + m22."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    theta = math.acos(max(-1.0, min(1.0, (m00 + m11 + m22 - 1.0) / 2.0)))
    if theta > NEAR_PI:
        q = _shepperd(rows)
        s = math.hypot(q.x, q.y, q.z)
        scale = 2.0 * math.atan2(s, q.w) / s
        return [scale * q.x, scale * q.y, scale * q.z]
    w = [(m21 - m12) / 2.0, (m02 - m20) / 2.0, (m10 - m01) / 2.0]
    if theta < SMALL_ANGLE:
        return w
    scale = theta / (2.0 * math.sin(theta))
    return [scale * (2.0 * c) for c in w]


def _shepperd(rows) -> UnitQuaternion:
    """matrix_to_quat of a validated rotation as nested lists; k is the first maximum, as np.argmax takes it."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    t = m00 + m11 + m22
    choices = [t, m00, m11, m22]
    k = choices.index(max(choices))
    if k == 0:
        s = math.sqrt(t + 1.0) * 2.0
        q = (s / 4.0, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
    elif k == 1:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = ((m21 - m12) / s, s / 4.0, (m01 + m10) / s, (m02 + m20) / s)
    elif k == 2:
        s = math.sqrt(1.0 - m00 + m11 - m22) * 2.0
        q = ((m02 - m20) / s, (m01 + m10) / s, s / 4.0, (m12 + m21) / s)
    else:
        s = math.sqrt(1.0 - m00 - m11 + m22) * 2.0
        q = ((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, s / 4.0)
    return UnitQuaternion(*_canonical(q))


def _as_rotation(r_mat) -> np.ndarray:
    """Accept a RotationMatrix or raw array; validate either way."""
    if isinstance(r_mat, RotationMatrix):
        return r_mat.m
    return RotationMatrix(r_mat).m


def _repair(m: np.ndarray) -> RotationMatrix:
    """RotationMatrix of a computed rotation, re-projected onto SO(3) only when RotationMatrix rejects its drift past ORTHO_TOL."""
    try:
        return RotationMatrix(m)
    except NotARotation:
        if not math.sqrt(_defects(*m.ravel().tolist())[0]) > ORTHO_TOL:
            raise  # the determinant failed, or the drift is NaN: rejected, not repaired
        return RotationMatrix(_nearest_rotation(m)[0])


def _defects(m00, m01, m02, m10, m11, m12, m20, m21, m22):
    """(||R^T R - I||^2, det R) of R's nine elements as floats or equal-length arrays; + and * only, so both round alike."""
    d00 = m00 * m00 + m10 * m10 + m20 * m20 - 1.0
    d11 = m01 * m01 + m11 * m11 + m21 * m21 - 1.0
    d22 = m02 * m02 + m12 * m12 + m22 * m22 - 1.0
    d01 = m00 * m01 + m10 * m11 + m20 * m21
    d02 = m00 * m02 + m10 * m12 + m20 * m22
    d12 = m01 * m02 + m11 * m12 + m21 * m22
    drift2 = d00 * d00 + d11 * d11 + d22 * d22 + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12)
    det = m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20) + m02 * (m10 * m21 - m11 * m20)
    return drift2, det


_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _apply(a, v) -> list:
    """a v, of a 3x3 matrix's nine row-major elements and a 3-vector's three.

    The elements are floats or equal-length arrays; + and * only, each sum
    taken left to right, so floats and arrays round alike on every CPU. A
    Python float overflows to inf or nan without a warning, which the
    value types' finiteness checks then reject.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    x, y, z = v
    return [a00 * x + a01 * y + a02 * z, a10 * x + a11 * y + a12 * z, a20 * x + a21 * y + a22 * z]


def _mul(a, b) -> list:
    """Nine row-major elements of a b, of two 3x3 matrices as _apply takes them: _apply on each column of b."""
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = _apply(a, b[0::3]), _apply(a, b[1::3]), _apply(a, b[2::3])
    return [x0, x1, x2, y0, y1, y2, z0, z1, z2]


def _sq(x, y, z):
    """Squared Euclidean norm of a 3-vector, its elements as _apply takes them."""
    return x * x + y * y + z * z


def _nearest_rotation(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(r, sigma, d) of the library's one SVD m = u diag(sigma) vt: r = u diag(1, 1, d) vt, the rotation nearest m.

    d = +1 or -1 exactly, the sign of det(u vt) (Arun, Huang & Blostein 1987; Umeyama's reflection fix, 1991).
    """
    u, sigma, vt = np.linalg.svd(m)
    d = 1.0 if _defects(*u.ravel().tolist())[1] * _defects(*vt.ravel().tolist())[1] > 0.0 else -1.0
    return (u * [1.0, 1.0, d]) @ vt, sigma, d


def _quat_norm(w, x, y, z) -> float:
    """Euclidean norm of a quaternion's components; inf where a square overflows."""
    try:
        return math.sqrt(w**2 + x**2 + y**2 + z**2)
    except OverflowError:
        return math.inf


def _canonical(q: tuple) -> tuple:
    """Quaternion sign rule: q negated when its first nonzero of (w, x, y, z) is negative, else q itself."""
    for c in q:
        if c != 0.0:
            return tuple(-e for e in q) if c < 0.0 else q
    return q


# Stacked kernels over (n, 3, 3) rotation and (n, 3) vector stacks. The
# solvers use them in place of per-sample loops over the scalar functions
# above; each gives, bit for bit, what that loop gives. _mul_stack,
# _apply_stack, _row_norms, _repair_stack and _log_stack evaluate _mul,
# _apply, _sq, _defects and _log on column views, as the scalar functions do
# on floats.


def _mul_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_mul over (n, 3, 3) stacks, either of which may be a single (3, 3), as an (n, 3, 3) stack."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to the caller's check
        return np.stack(_mul(a.reshape(-1, 9).T, b.reshape(-1, 9).T), axis=-1).reshape(-1, 3, 3)


def _apply_stack(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """_apply over an (n, 3, 3) and an (n, 3) stack, either of which may be a single element, as (n, 3)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to the caller's check
        return np.stack(_apply(a.reshape(-1, 9).T, v.reshape(-1, 3).T), axis=-1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array, _sq on its columns."""
    with np.errstate(over="ignore"):  # an overflowing row gives inf, left to the caller's finiteness check
        return np.sqrt(_sq(*x.T))


def _repair_stack(ms: np.ndarray) -> np.ndarray:
    """_repair of every element of an (n, 3, 3) stack, its checks measured once over the stack.

    The flagged elements go through _repair, the first bad one first. The
    caller's array is never written: with nothing flagged it is returned
    itself, else a copy.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing and non-finite elements are flagged below
        drift2, det = _defects(*ms.reshape(-1, 9).T)
        bad = np.flatnonzero(~((np.sqrt(drift2) <= ORTHO_TOL) & (np.abs(det - 1.0) <= ORTHO_TOL)))
    if len(bad):
        ms = ms.copy()
        for i in bad:
            ms[i] = _repair(ms[i]).m
    return ms


def _log_stack(ms: np.ndarray) -> np.ndarray:
    """so3_log of every element of a validated (n, 3, 3) stack, as (n, 3): _log's operations on column views.

    acos and sin are math's, element by element, as in _log: NumPy's SIMD
    versions may differ in the last bit between CPUs. The rows above
    NEAR_PI go through _log itself.
    """
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = ms.reshape(-1, 9).T
    theta = np.array(list(map(math.acos, np.clip((m00 + m11 + m22 - 1.0) / 2.0, -1.0, 1.0).tolist())))
    out = np.stack([(m21 - m12) / 2.0, (m02 - m20) / 2.0, (m10 - m01) / 2.0], axis=-1)
    mid = (theta >= SMALL_ANGLE) & (theta <= NEAR_PI)
    t = theta[mid]
    out[mid] = (t / (2.0 * np.array(list(map(math.sin, t.tolist())))))[:, None] * (2.0 * out[mid])
    for i in np.flatnonzero(theta > NEAR_PI):
        out[i] = _log(ms[i].tolist())
    return out
