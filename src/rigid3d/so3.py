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
import functools
import math
from collections.abc import Iterable

from . import _numpy as np
from .errors import (
    DegenerateMatrix,
    NotARotation,
    NotSkewSymmetric,
    NotUnitQuaternion,
    Rigid3dError,
    UnsupportedConvention,
)
from .validation import _array, check_matrix, floats

ORTHO_TOL = 1e-9  # a rotation's drift ||R^T R - I|| and |det R - 1|: a caller's beyond it is rejected, a computed one repaired
QUAT_TOL = 1e-6  # UnitQuaternion rejects a norm off 1 by more
SKEW_TOL = 1e-9  # vee3 rejects an asymmetry ||S + S^T|| beyond this
GIMBAL_TOL = 1e-7  # matrix_to_euler reports gimbal lock below this distance of |pitch| from pi/2
SINGULAR_TOL = 1e-9  # orthonormalize rejects a smallest singular value below this
REPAIR_DISTANCE = 0.5  # orthonormalize rejects a matrix farther than this from its polar factor
SERIES_ANGLE = 1e-4  # exp, V and V^-1 take their coefficients from one half-angle evaluation, Taylor series below this angle
EXP_MAX_COMPONENT = 1e100  # exp rejects larger |w_i|: the norm, and the cube of theta below, would overflow past ~1e102


class _Value:
    """The library's immutable record, equal to a record of its class with equal stored state.

    The value types store their elements as Python floats: the scalar
    functions read and write the floats. Each public array is built from
    them on first access and then kept (_Array), and pickling and equality
    leave it out. A value type's __init__ hands the arguments to
    __post_init__, the validating step (the name perfbench's tracer
    counts); the library makes values of floats it computed and checked
    through _new. The solver results store their fields as given.
    """

    _fields: tuple  # the public attributes, in constructor order, for repr

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded on this error path only

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        """The stored state sorted by name, lists as tuples: what equality and hashing compare."""
        return tuple(tuple(v) if isinstance(v, list) else v for _, v in sorted(self.__getstate__().items()))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if not isinstance(getattr(type(self), k, None), _Array)}


class _Array:
    """A value's public read-only float64 array of the given shape, built from its stored floats on first access, then kept."""

    def __init__(self, stored: str, shape: tuple):
        self.stored, self.shape = stored, shape

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        arr = np.array(obj.__dict__[self.stored])
        arr.setflags(write=False)
        arr = obj.__dict__[self.name] = arr.reshape(self.shape)
        return arr


def _overflow_ignored(fn):
    """fn under the library's one NumPy error state, which each public entry running array arithmetic on caller data wears."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return run


def _as(cls, x, name: str):
    """x as a cls, the public entries' one coercion rule: x if a cls, else cls._raw(x), which reads cls's one raw form.

    Where cls has no _raw (Transform, Wrench, EulerAngles, Iterable), or x is another library value, Rigid3dError names x's type.
    """
    if isinstance(x, cls) and (cls is not Iterable or not isinstance(x, (str, bytes))):  # no str or bytes as an Iterable
        return x
    raw = getattr(cls, "_raw", None)
    if raw is None or isinstance(x, _Value):
        raise Rigid3dError(f"{name} is of type {type(x).__name__}, not {cls.__name__}")
    return raw(x)


def _new(cls, **stored):
    """A value of cls holding the given floats (and rotation or convention), computed and checked by the library: no validation."""
    obj = object.__new__(cls)
    obj.__dict__.update(stored)
    return obj


class RotationMatrix(_Value):
    """3x3 orthogonal matrix with det +1; validated eagerly.

    Its nine elements are the row-major floats _e, and m is their read-only array.
    """

    _fields = ("m",)
    _raw = staticmethod(lambda m: RotationMatrix(m))
    m = _Array("_e", (3, 3))

    def __init__(self, m):
        self.__post_init__(m)

    def __post_init__(self, m):
        m = _array(m, "rotation matrix")
        e = m.ravel().tolist() if m.shape == (3, 3) else [math.nan] * 9  # a wrong shape is named below, not listed
        drift2, det = _defects(*e)
        # A drift within ORTHO_TOL implies nine finite elements, so this test is also the finiteness test;
        # written so that a NaN drift or determinant (overflow) is rejected.
        if not math.sqrt(drift2) <= ORTHO_TOL:
            check_matrix(m, (3, 3), "rotation matrix")  # a wrong shape or a non-finite element is named first
            raise NotARotation("matrix is not orthogonal within 1e-9")
        if not abs(det - 1.0) <= ORTHO_TOL:
            raise NotARotation("matrix determinant is not +1 within 1e-9")
        self.__dict__["_e"] = e

    @staticmethod
    def identity() -> "RotationMatrix":
        return _new(RotationMatrix, _e=[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])


class UnitQuaternion(_Value):
    """Scalar-first unit quaternion (w, x, y, z), its four components stored as floats.

    The constructor rejects norms off by more than 1e-6 and renormalizes
    the rest, so stored components are unit to machine precision.
    """

    _fields = ("w", "x", "y", "z")
    _raw = staticmethod(lambda q: UnitQuaternion(*floats(q, (4,), "quaternion")))

    def __init__(self, w, x, y, z):
        self.__post_init__(w, x, y, z)

    def __post_init__(self, w, x, y, z):
        if not type(w) is type(x) is type(y) is type(z) is float:  # four floats, as the library passes them, are read as is
            if any(isinstance(c, (str, bytes)) for c in (w, x, y, z)):
                raise Rigid3dError("quaternion must be numeric: it contains text")  # _array's message
            try:
                w, x, y, z = float(w), float(x), float(y), float(z)  # so an overflowing square is inf, with no warning
            except (TypeError, ValueError, OverflowError) as exc:
                raise Rigid3dError(f"quaternion must be numeric: {exc}") from None
        n = _quat_norm(w, x, y, z)
        if not abs(n - 1.0) <= QUAT_TOL:  # written so that a NaN norm is rejected
            raise NotUnitQuaternion(f"quaternion norm {n:.9g} deviates from 1 by more than 1e-6")
        self.__dict__.update(w=w / n, x=x / n, y=y / n, z=z / n)

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


class EulerAngles(_Value):
    """Three angles in radians plus a convention tag.

    ZYX_INTRINSIC stores (roll, pitch, yaw); XYZ_EXTRINSIC stores the
    fixed-axis angles (about x, about y, about z). Both map to the same
    matrix product Rz * Ry * Rx.
    """

    _fields = ("angles", "convention")
    angles = _Array("_a", (3,))

    def __init__(self, angles, convention: EulerConvention = EulerConvention.ZYX_INTRINSIC):
        self.__post_init__(angles, convention)

    def __post_init__(self, angles, convention):
        _check_convention(convention)
        self.__dict__.update(_a=floats(angles, (3,), "euler angles"), convention=convention)


def _check_convention(convention) -> None:
    if not isinstance(convention, EulerConvention):
        raise UnsupportedConvention(f"unknown Euler convention: {convention!r}")


def hat3(v) -> np.ndarray:
    """Cross-product matrix: hat3(v) @ u == cross(v, u)."""
    return np.array(_hat(floats(v, (3,), "vector"))).reshape(3, 3)


def vee3(s) -> np.ndarray:
    """Inverse of hat3; input must be skew-symmetric within 1e-9."""
    s = floats(s, (3, 3), "skew matrix")
    r0, r1, r2 = ([x + y for x, y in zip(row, col)] for row, col in zip(s, zip(*s)))  # s + s^T: an overflow is inf, rejected
    if math.sqrt(_sq(*r0) + _sq(*r1) + _sq(*r2)) > SKEW_TOL:
        raise NotSkewSymmetric("matrix is not skew-symmetric within 1e-9")
    return np.array([s[2][1], s[0][2], s[1][0]])


def so3_exp(r) -> RotationMatrix:
    """Rodrigues formula; its coefficients come from one half-angle evaluation, Taylor series below SERIES_ANGLE."""
    return _rodrigues(floats(r, (3,), "rotation vector"))[0]


def so3_log(r_mat: RotationMatrix) -> np.ndarray:
    """Rotation vector with angle in [0, pi].

    One formula at every angle, accurate to a few ulps: 2 atan2(|v|, w) v / |v| of the canonical Shepperd
    quaternion (w, v) of matrix_to_quat. At exactly pi its sign rule makes the first nonzero axis component
    positive; below about 1e-8 the result is the antisymmetric part (R - R^T)^vee / 2, bit for bit.
    """
    return np.array(_log(_as(RotationMatrix, r_mat, "r_mat")._e))


def quat_to_matrix(q: UnitQuaternion) -> RotationMatrix:
    """Direction-cosine matrix of a Hamilton, scalar-first quaternion."""
    q = _as(UnitQuaternion, q, "q")
    return _repair(_quat_elements(q.w, q.x, q.y, q.z))


def matrix_to_quat(r_mat: RotationMatrix) -> UnitQuaternion:
    """Shepperd's method: branch on the largest of trace and diagonal entries."""
    k, row = _shepperd(_as(RotationMatrix, r_mat, "r_mat")._e)
    s = math.sqrt(row[k]) * 2.0  # 4 |q_k|
    w, x, y, z = row
    q = [w / s, x / s, y / s, z / s]
    q[k] = s / 4.0
    return UnitQuaternion(*_canonical(q))


def quat_compose(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a * b, renormalized and canonicalized."""
    a, b = _as(UnitQuaternion, a, "a"), _as(UnitQuaternion, b, "b")
    w = a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z
    x = a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y
    y = a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x
    z = a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w
    return UnitQuaternion(*_canonical((w, x, y, z)))


def quat_inverse(q: UnitQuaternion) -> UnitQuaternion:
    """Conjugate (== inverse for unit quaternions), canonicalized."""
    q = _as(UnitQuaternion, q, "q")
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
    ax, ay, az = _as(EulerAngles, e, "e")._a
    return _repair(_mul(_mul(_rz(az), _ry(ay)), _rx(ax)))


def matrix_to_euler(
    r_mat: RotationMatrix,
    convention: EulerConvention = EulerConvention.ZYX_INTRINSIC,
) -> tuple[EulerAngles, bool]:
    """Extract Euler angles; second return value flags gimbal lock.

    The pitch is atan2(-m20, hypot(m00, m10)) at every angle, accurate to
    an ulp even near +-pi/2, where asin(-m20) would lose digits. Within
    1e-7 of |pitch| == pi/2 the roll is set to 0 and yaw absorbs the
    remaining degree of freedom.
    """
    m00, m01, _, m10, m11, _, m20, m21, m22 = _as(RotationMatrix, r_mat, "r_mat")._e
    pitch = math.atan2(-m20, math.hypot(m00, m10))
    if (math.pi / 2.0) - abs(pitch) < GIMBAL_TOL:
        roll = 0.0
        yaw = math.atan2(-m01, m11)
        locked = True
    else:
        roll = math.atan2(m21, m22)
        yaw = math.atan2(m10, m00)
        locked = False
    _check_convention(convention)
    return _new(EulerAngles, _a=[roll, pitch, yaw], convention=convention), locked  # atan2 is finite


def rotate(r_mat: RotationMatrix, v) -> np.ndarray:
    """Apply the rotation to a 3-vector; a result that overflows raises Rigid3dError."""
    m = _as(RotationMatrix, r_mat, "r_mat")._e
    return check_matrix(np.array(_apply(m, floats(v, (3,), "vector"))), (3,), "rotated vector")


def orthonormalize(m) -> RotationMatrix:
    """Nearest rotation in Frobenius norm, the polar factor of m; idempotent."""
    m = check_matrix(m, (3, 3), "matrix")
    r, sigma, _ = _nearest_rotation(m)
    if sigma[-1] < SINGULAR_TOL:
        raise DegenerateMatrix("matrix is singular: smallest singular value below 1e-9")
    r0, r1, r2 = (m - r).tolist()  # an overflowing square gives inf, which is rejected
    if math.sqrt(_sq(*r0) + _sq(*r1) + _sq(*r2)) > REPAIR_DISTANCE:
        raise DegenerateMatrix("matrix is too far from SO(3) to repair")
    return _repair(r)


def geodesic_distance(a: RotationMatrix, b: RotationMatrix) -> float:
    """Angle of the relative rotation, in [0, pi]; symmetric.

    Computed as the norm of the log map, which stays accurate near zero
    where arccos of the trace loses half the available precision.
    """
    rel = _mul(_transpose(_as(RotationMatrix, a, "a")._e), _as(RotationMatrix, b, "b")._e)
    return math.sqrt(_sq(*_log(_repair(rel)._e)))


def random_rotation(rng: np.random.Generator) -> RotationMatrix:
    """Uniform (Haar) random rotation: that of four normal draws over their norm, a point uniform on S^3 (Muller 1959; Shoemake 1992)."""
    w = x = y = z = 0.0
    while not (n := _quat_norm(w, x, y, z)):  # four exact zeros (about 2^-208) are drawn again
        w, x, y, z = _as(np.random.Generator, rng, "rng").standard_normal(4).tolist()
    return _repair(_quat_elements(w / n, x / n, y / n, z / n))


def _hat(v) -> tuple:
    """hat3 of an already validated 3-vector, as its nine elements in row-major order."""
    x, y, z = v
    return (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)


def _coefficients(theta: float) -> tuple[float, float, float, float]:
    """a, b, c, d of an angle t >= 0: exp(K) = I + a K + b K^2, V = I + b K + c K^2 and V^-1 = I - K/2 + d K^2, |K| = t.

    a, b, c, d = sin(t)/t, (1 - cos(t))/t^2, (t - sin(t))/t^3, (1 - (t/2) cot(t/2))/t^2, all from one pair
    s, h = sin(t/2), cos(t/2): sin(t) = 2 s h, and 1 - cos(t) = 2 s^2, which does not cancel. Below
    SERIES_ANGLE they are Taylor series, where c and d cancel and would lose eps/t^2.
    """
    t2 = theta * theta
    if theta < SERIES_ANGLE:
        return 1.0 - t2 / 6.0, 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    half = theta / 2.0
    s, h = math.sin(half), math.cos(half)  # s != 0: no double is a multiple of pi
    sin = 2.0 * s * h
    return sin / theta, 2.0 * s * s / t2, (theta - sin) / (t2 * theta), (1.0 - half * h / s) / t2


def _rodrigues(w: list[float], v: list[float] | None = None) -> tuple[RotationMatrix, list[float] | None]:
    """exp(hat(w)) = I + a K + b K^2 of a validated w's three floats and, given v, V(w) v with V(w) = I + b K + c K^2.

    a, b and c are _coefficients'. A component beyond EXP_MAX_COMPONENT raises Rigid3dError.
    """
    theta = math.sqrt(_sq(*w))
    # no component exceeds theta (sqrt(x * x) == |x| up to overflow), so only a theta past the bound needs the test
    if theta > EXP_MAX_COMPONENT and max(map(abs, w)) > EXP_MAX_COMPONENT:
        raise Rigid3dError(f"rotation vector component beyond {EXP_MAX_COMPONENT:g} in magnitude")
    a, b, c, _ = _coefficients(theta)
    k = _hat(w)
    k2 = _mul(k, k)
    return _repair(_series(a, b, k, k2)), None if v is None else _apply(_series(b, c, k, k2), v)


def _log(e) -> list[float]:
    """so3_log of a validated rotation's nine floats: 2 atan2(|v|, w) v / |v| of (w, v), _shepperd's 4 q_k q canonicalized.

    The formula does not depend on the quaternion's scale. Where |v| is 0 (v = 0, or |v|^2 underflows) it is 2 v / w.
    """
    w, x, y, z = _canonical(_shepperd(e)[1])
    n = math.sqrt(_sq(x, y, z))
    scale = 2.0 * math.atan2(n, w) / n if n else 2.0 / w
    return [scale * x, scale * y, scale * z]


def _shepperd(e) -> tuple[int, tuple]:
    """(k, 4 q_k q) of a validated rotation's nine floats; branch k is the first maximum key, as np.argmax takes it."""
    keys, qq = _shepperd_sums(*e)
    k = keys.index(max(keys))
    return k, qq[4 * k:4 * k + 4]


def _shepperd_sums(m00, m01, m02, m10, m11, m12, m20, m21, m22):
    """Shepperd's sums of R's nine elements as floats or equal-length arrays; + and - only, so both round alike.

    The branch keys (t, m00, m11, m22), the trace t summed as np.trace does, and the sixteen row-major
    elements of 4 q q^T for q = (w, x, y, z): 4 q_k^2 on the diagonal, 4 q_i q_j off it.
    """
    t = m00 + m11 + m22
    wx, wy, wz = m21 - m12, m02 - m20, m10 - m01
    xy, xz, yz = m01 + m10, m02 + m20, m12 + m21
    return (t, m00, m11, m22), (
        t + 1.0, wx, wy, wz,
        wx, 1.0 + m00 - m11 - m22, xy, xz,
        wy, xy, 1.0 - m00 + m11 - m22, yz,
        wz, xz, yz, 1.0 - m00 - m11 + m22,
    )


def _rows(e) -> tuple:
    """The three rows of nine row-major elements, as a (3, 3) block is assigned from them."""
    return e[0:3], e[3:6], e[6:9]


def _transpose(e) -> list:
    """The nine row-major elements of the transpose, of nine floats or a stack's nine rows."""
    e00, e01, e02, e10, e11, e12, e20, e21, e22 = e
    return [e00, e10, e20, e01, e11, e21, e02, e12, e22]


def _repair(m) -> RotationMatrix:
    """RotationMatrix of a computed rotation, given as a list of its nine row-major floats or as a (3, 3) array.

    The one drift measurement decides: a rotation within ORTHO_TOL keeps its
    floats, one past it is re-projected onto SO(3), and RotationMatrix then
    raises for a determinant off +1, a NaN drift or a non-finite element.
    """
    e = m if isinstance(m, list) else m.ravel().tolist()
    drift2, det = _defects(*e)
    if math.sqrt(drift2) <= ORTHO_TOL and abs(det - 1.0) <= ORTHO_TOL:
        return _new(RotationMatrix, _e=e)
    m = np.array(e).reshape(3, 3)
    if math.sqrt(drift2) > ORTHO_TOL:  # finite elements only: a non-finite one is named, not projected
        m = _nearest_rotation(check_matrix(m, (3, 3), "rotation matrix"))[0]
    return RotationMatrix(m)


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
    """Nine row-major elements of a b, of two 3x3 matrices as _apply takes them: _apply's sum on each column of b."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return [
        a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21, a00 * b02 + a01 * b12 + a02 * b22,
        a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21, a10 * b02 + a11 * b12 + a12 * b22,
        a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21, a20 * b02 + a21 * b12 + a22 * b22,
    ]


def _series(a: float, b: float, p, q) -> list:
    """Nine row-major elements of I + a P + b Q, each summed left to right as (I_ij + a p_ij) + b q_ij."""
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = p
    q00, q01, q02, q10, q11, q12, q20, q21, q22 = q
    return [
        1.0 + a * p00 + b * q00, 0.0 + a * p01 + b * q01, 0.0 + a * p02 + b * q02,
        0.0 + a * p10 + b * q10, 1.0 + a * p11 + b * q11, 0.0 + a * p12 + b * q12,
        0.0 + a * p20 + b * q20, 0.0 + a * p21 + b * q21, 1.0 + a * p22 + b * q22,
    ]


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
    """Euclidean norm of a quaternion's components, + and * only; inf where a square overflows."""
    return math.sqrt(_quat_sq(w, x, y, z))


def _quat_sq(w, x, y, z):
    """Squared norm of a quaternion, _quat_norm's sum, its components as _apply takes them."""
    return w * w + x * x + y * y + z * z


def _quat_elements(w, x, y, z) -> list:
    """Nine row-major elements of the rotation of a unit quaternion, its components as _apply takes them."""
    return [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]


def _canonical(q: tuple) -> tuple:
    """Quaternion sign rule: q negated when its first nonzero of (w, x, y, z) is negative, else q itself."""
    for c in q:
        if c != 0.0:
            return tuple(-e for e in q) if c < 0.0 else q
    return q


# Stacks. Inside the library a stack of n rotations is its nine rows, the
# row-major elements of each rotation as length-n arrays (a (9, n) array or
# a list of nine arrays), and a stack of n vectors is its three rows. _mul,
# _apply, _transpose, _sq, _quat_sq, _quat_elements, _defects and
# _shepperd_sums run on a stack's rows as they run on a value's floats, so
# each stacked result is, bit for bit, what a per-sample loop over the
# scalar functions gives. A single operand enters as its Python floats, so
# each product is a float times a row, in _apply's order. Public (n, 3)
# arrays are transposed at the solvers' edge, and the kernels run under the
# error state of the entry (_overflow_ignored).


def _repair_stack(ms):
    """_repair of every element of a rotation stack's nine rows, its checks measured once over the stack.

    The flagged elements go through _repair, the first bad one first. The
    caller's rows are never written: with nothing flagged they are returned
    themselves, else a (9, n) copy.
    """
    drift2, det = _defects(*ms)  # an overflowing or non-finite element has an inf or NaN drift, and is flagged
    bad = np.flatnonzero(~((np.sqrt(drift2) <= ORTHO_TOL) & (np.abs(det - 1.0) <= ORTHO_TOL)))
    if len(bad):
        ms = np.array(ms)
        for i in bad:
            ms[:, i] = _repair(ms[:, i])._e
    return ms


def _log_stack(ms) -> np.ndarray:
    """so3_log of every element of a validated rotation stack's nine rows, as a (3, n) array: _log's operations on rows.

    atan2 is math's, element by element, so each column is _log's bit for bit; math.atan2 itself can move a
    last bit between libm code paths (ROADMAP item 9).
    """
    keys, qq = _shepperd_sums(*ms)
    i = np.arange(len(ms[0]))
    q = np.reshape(qq, (4, 4, len(i)))[np.argmax(keys, axis=0), :, i].T  # (4, n): _shepperd's row of each element
    q = np.where(q[np.argmax(q != 0.0, axis=0), i] < 0.0, -q, q)  # _canonical's sign rule
    w, x, y, z = q
    n = np.sqrt(_sq(x, y, z))
    nz = n != 0.0  # where n is 0 the limit 2 / w is taken, as in _log (w != 0 there); each branch divides by 1 where not taken
    two_atan2 = 2.0 * np.array(list(map(math.atan2, n.tolist(), w.tolist())))
    return np.where(nz, two_atan2 / np.where(nz, n, 1.0), 2.0 / np.where(nz, 1.0, w)) * q[1:]
