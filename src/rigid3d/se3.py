"""SE(3): rigid transforms, exp/log, and adjoint twist/wrench maps.

Twists are stored linear-first, (v, w); wrenches are (f, tau). The
adjoint of T = (R, t) acting on that ordering is the 6x6 block matrix
[[R, hat(t) R], [0, R]].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidHomogeneousRow, NotARotation
from .so3 import (
    SERIES_ANGLE,
    RotationMatrix,
    _apply,
    _apply_stack,
    _defects,
    _finite,
    _forms,
    _hat,
    _log,
    _mul,
    _mul_stack,
    _new,
    _repair,
    _repair_stack,
    _rodrigues,
    _rows,
    _series,
    _sq,
    _transpose,
    _Value,
)
from .validation import check_matrix, freeze


class Transform(_Value):
    """SE(3) element stored as (rotation, translation)."""

    _fields = ("rotation", "translation")
    translation, _t = _forms("translation", "_t", (3,))

    def __init__(self, rotation, translation):
        self.__post_init__(rotation, translation)

    def __post_init__(self, rotation, translation):
        if not isinstance(rotation, RotationMatrix):
            rotation = RotationMatrix(rotation)
        self.__dict__.update(rotation=rotation, translation=freeze(translation, (3,), "translation"))

    def _key(self):
        return self.rotation._key(), tuple(self._t)

    @staticmethod
    def identity() -> "Transform":
        return Transform(RotationMatrix.identity(), np.zeros(3))


class Twist(_Value):
    """se(3) element: linear part v first, angular part w second."""

    _fields = ("v", "w")
    v, _v = _forms("v", "_v", (3,))
    w, _w = _forms("w", "_w", (3,))

    def __init__(self, v, w):
        self.__post_init__(v, w)

    def __post_init__(self, v, w):
        self.__dict__.update(v=freeze(v, (3,), "twist linear part"), w=freeze(w, (3,), "twist angular part"))

    def _key(self):
        return tuple(self._v), tuple(self._w)

    def as_array(self) -> np.ndarray:
        return np.array(self._v + self._w)

    @staticmethod
    def from_array(xi) -> "Twist":
        xi = check_matrix(xi, (6,), "twist").tolist()
        return _new(Twist, _v=xi[:3], _w=xi[3:])


class Wrench(_Value):
    """Force f first, moment tau second."""

    _fields = ("f", "tau")
    f, _f = _forms("f", "_f", (3,))
    tau, _tau = _forms("tau", "_tau", (3,))

    def __init__(self, f, tau):
        self.__post_init__(f, tau)

    def __post_init__(self, f, tau):
        self.__dict__.update(f=freeze(f, (3,), "force"), tau=freeze(tau, (3,), "torque"))

    def _key(self):
        return tuple(self._f), tuple(self._tau)


def _transform(rot: RotationMatrix, t: list) -> Transform:
    """Transform of a computed rotation and translation, the translation's finiteness checked on its floats."""
    return _new(Transform, rotation=rot, _t=_finite(t, "translation"))


def _twist(v: list, w: list) -> Twist:
    """Twist of computed parts, each part's finiteness checked on its floats."""
    return _new(Twist, _v=_finite(v, "twist linear part"), _w=_finite(w, "twist angular part"))


def compose(a: Transform, b: Transform) -> Transform:
    """Group product: rotation R_a R_b, translation R_a t_b + t_a."""
    ra = a.rotation._e
    t = [x + y for x, y in zip(_apply(ra, b._t), a._t)]
    return _transform(_repair(_mul(ra, b.rotation._e)), t)


def inverse(t: Transform) -> Transform:
    rot = _repair(_transpose(t.rotation._e))
    return _transform(rot, [-x for x in _apply(rot._e, t._t)])


def transform_point(t: Transform, p) -> np.ndarray:
    """R p + t; a result that overflows raises Rigid3dError."""
    rp = _apply(t.rotation._e, check_matrix(p, (3,), "point").tolist())
    return check_matrix([x + y for x, y in zip(rp, t._t)], (3,), "transformed point")


def transform_direction(t: Transform, v) -> np.ndarray:
    """R v; a result that overflows raises Rigid3dError."""
    rv = _apply(t.rotation._e, check_matrix(v, (3,), "direction").tolist())
    return check_matrix(rv, (3,), "transformed direction")


def _v_inverse(w: list[float]) -> list[float]:
    """The nine elements of V(w)^-1 = I - K/2 + c K^2."""
    theta = math.sqrt(_sq(*w))
    k = _hat(w)
    if theta < SERIES_ANGLE:
        c = 1.0 / 12.0 + theta**2 / 720.0 + theta**4 / 30240.0
    else:
        # 1/theta^2 - (1 + cos)/(2 theta sin), written via cot(theta/2)
        half = theta / 2.0
        c = (1.0 - half * math.cos(half) / math.sin(half)) / theta**2
    return _series(-0.5, c, k, _mul(k, k))  # e - x/2 is e + (-x/2) exactly


def se3_exp(xi: Twist) -> Transform:
    """Exponential map: exp(hat(w)) and V(w) v from the one Rodrigues evaluation so3_exp also uses (so3._rodrigues)."""
    if not isinstance(xi, Twist):
        xi = Twist.from_array(xi)
    return _transform(*_rodrigues(xi._w, xi._v))


def se3_log(t: Transform) -> Twist:
    """Logarithm map; inverse of se3_exp for rotation angle below pi."""
    w = _log(t.rotation._e)
    return _twist(_apply(_v_inverse(w), t._t), w)


def adjoint(t: Transform) -> np.ndarray:
    """6x6 adjoint [[R, hat(t) R], [0, R]] for (v, w)-ordered twists; a result that overflows raises Rigid3dError."""
    e = t.rotation._e
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = _rows(e)
    out[:3, 3:] = _rows(_mul(_hat(t._t), e))
    return check_matrix(out, (6, 6), "adjoint")


def adjoint_apply_twist(t: Transform, xi: Twist) -> Twist:
    """Change the frame of a twist: w' = R w, v' = R v + t x (R w)."""
    rw, rv = _act(t, xi._w, xi._v)
    return _twist(rv, rw)


def transform_wrench(t: Transform, h: Wrench) -> Wrench:
    """Dual (co-adjoint) map keeping the power pairing f.v + tau.w invariant."""
    rf, rtau = _act(t, h._f, h._tau)
    return _new(Wrench, _f=_finite(rf, "force"), _tau=_finite(rtau, "torque"))


def _act(t: Transform, a: list[float], b: list[float]) -> tuple[list[float], list[float]]:
    """(R a, R b + t x (R a)) of two stored 3-vectors: the rotated angular part or force, and the moved linear part or moment."""
    r = t.rotation._e
    ra = _apply(r, a)
    cross = _apply(_hat(t._t), ra)
    return ra, [x + y for x, y in zip(_apply(r, b), cross)]


def to_matrix4(t: Transform) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = _rows(t.rotation._e)
    out[:3, 3] = t._t
    return out


def from_matrix4(m) -> Transform:
    """Extract (R, t); a block with det > 0 and orthogonality drift < 1e-4 is repaired."""
    m = check_matrix(m, (4, 4), "homogeneous matrix")
    x, y, z, w = m[3].tolist()
    if math.sqrt(_sq(x, y, z) + (w - 1.0) * (w - 1.0)) > 1e-9:
        raise InvalidHomogeneousRow("last row must be (0, 0, 0, 1)")
    block = m[:3, :3]
    drift2, det = _defects(*block.ravel().tolist())
    if not (math.sqrt(drift2) < 1e-4 and det > 0.0):
        raise NotARotation("rotation block deviates from SO(3) beyond the 1e-4 repair threshold")
    return Transform(_repair(block), m[:3, 3])


def _stack_transforms(transforms) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (n, 3, 3) and translations (n, 3) of an iterable of Transforms."""
    transforms = list(transforms)
    rs = np.array([t.rotation.m for t in transforms]).reshape(-1, 3, 3)
    ts = np.array([t.translation for t in transforms]).reshape(-1, 3)
    return rs, ts


def _inverse_stack(rs, ts) -> tuple[np.ndarray, np.ndarray]:
    """inverse over stacks, its transposed rotations put through _repair_stack as one stack."""
    rt = _repair_stack(np.swapaxes(rs, 1, 2))
    return rt, -_apply_stack(rt, ts)


def _compose_stack(ra, ta, rb, tb) -> tuple[np.ndarray, np.ndarray]:
    """compose over stacks; either side may be a single element, its rotation's nine floats and its translation's three.

    The products go through _repair_stack, as compose puts each through
    _repair. An overflowing translation is left to the caller's finiteness check,
    as is the NaN of an infinite ta (from _inverse_stack) plus an opposite overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = _apply_stack(ra, tb) + ta
    return _repair_stack(_mul_stack(ra, rb)), t


def _build_transforms(rs: np.ndarray, ts: np.ndarray) -> list[Transform]:
    """Transforms over a rotation stack that has already been checked.

    Each stack gets the value types' shape and finiteness check once; the
    rotations' orthogonality is not measured again element by element.
    Each value keeps its rows of the frozen stacks as its arrays.
    """
    rs, ts = freeze(rs, (None, 3, 3), "rotation matrix"), freeze(ts, (None, 3), "translation")
    return [_new(Transform, rotation=_new(RotationMatrix, m=m), translation=t) for m, t in zip(rs, ts)]
