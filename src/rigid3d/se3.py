"""SE(3): rigid transforms, exp/log, and adjoint twist/wrench maps.

Twists are stored linear-first, (v, w); wrenches are (f, tau). The
adjoint of T = (R, t) acting on that ordering is the 6x6 block matrix
[[R, hat(t) R], [0, R]].
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import chain

from . import _numpy as np
from .errors import InvalidHomogeneousRow, NotARotation
from .so3 import (
    RotationMatrix,
    _apply,
    _as,
    _coefficients,
    _defects,
    _Array,
    _hat,
    _log,
    _mul,
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
from .validation import _finite, check_matrix, floats

HOMOGENEOUS_ROW_TOL = 1e-9  # from_matrix4 rejects a last row farther than this from (0, 0, 0, 1)
BLOCK_REPAIR_TOL = 1e-4  # from_matrix4 repairs a rotation block whose drift is within this, and rejects the rest


class Transform(_Value):
    """SE(3) element stored as (rotation, translation)."""

    _fields = ("rotation", "translation")
    translation = _Array("_t", (3,))

    def __init__(self, rotation, translation):
        self.__post_init__(rotation, translation)

    def __post_init__(self, rotation, translation):
        self.__dict__.update(rotation=_as(RotationMatrix, rotation, "rotation"), _t=floats(translation, (3,), "translation"))

    @staticmethod
    def identity() -> "Transform":
        return _new(Transform, rotation=RotationMatrix.identity(), _t=[0.0, 0.0, 0.0])


class Twist(_Value):
    """se(3) element: linear part v first, angular part w second."""

    _fields = ("v", "w")
    _raw = staticmethod(lambda xi: Twist.from_array(xi))
    v, w = _Array("_v", (3,)), _Array("_w", (3,))

    def __init__(self, v, w):
        self.__post_init__(v, w)

    def __post_init__(self, v, w):
        self.__dict__.update(_v=floats(v, (3,), "twist linear part"), _w=floats(w, (3,), "twist angular part"))

    def as_array(self) -> np.ndarray:
        return np.array(self._v + self._w)

    @staticmethod
    def from_array(xi) -> "Twist":
        xi = floats(xi, (6,), "twist")
        return _new(Twist, _v=xi[:3], _w=xi[3:])


class Wrench(_Value):
    """Force f first, moment tau second."""

    _fields = ("f", "tau")
    f, tau = _Array("_f", (3,)), _Array("_tau", (3,))

    def __init__(self, f, tau):
        self.__post_init__(f, tau)

    def __post_init__(self, f, tau):
        self.__dict__.update(_f=floats(f, (3,), "force"), _tau=floats(tau, (3,), "torque"))


def _transform(rot: RotationMatrix, t: list) -> Transform:
    """Transform of a computed rotation and translation, the translation's finiteness checked on its floats."""
    return _new(Transform, rotation=rot, _t=_finite(t, "translation"))


def _twist(v: list, w: list) -> Twist:
    """Twist of computed parts, each part's finiteness checked on its floats."""
    return _new(Twist, _v=_finite(v, "twist linear part"), _w=_finite(w, "twist angular part"))


def compose(a: Transform, b: Transform) -> Transform:
    """Group product: rotation R_a R_b, translation R_a t_b + t_a."""
    a, b = _as(Transform, a, "a"), _as(Transform, b, "b")
    ra = a.rotation._e
    t = [x + y for x, y in zip(_apply(ra, b._t), a._t)]
    return _transform(_repair(_mul(ra, b.rotation._e)), t)


def inverse(t: Transform) -> Transform:
    t = _as(Transform, t, "t")
    rot = _repair(_transpose(t.rotation._e))
    return _transform(rot, [-x for x in _apply(rot._e, t._t)])


def transform_point(t: Transform, p) -> np.ndarray:
    """R p + t; a result that overflows raises Rigid3dError."""
    t = _as(Transform, t, "t")
    rp = _apply(t.rotation._e, floats(p, (3,), "point"))
    return check_matrix(np.array([x + y for x, y in zip(rp, t._t)]), (3,), "transformed point")


def transform_direction(t: Transform, v) -> np.ndarray:
    """R v; a result that overflows raises Rigid3dError."""
    rv = _apply(_as(Transform, t, "t").rotation._e, floats(v, (3,), "direction"))
    return check_matrix(np.array(rv), (3,), "transformed direction")


def se3_exp(xi: Twist) -> Transform:
    """Exponential map: exp(hat(w)) and V(w) v from the one Rodrigues evaluation so3_exp also uses, of one half-angle pair."""
    xi = _as(Twist, xi, "xi")
    return _transform(*_rodrigues(xi._w, xi._v))


def se3_log(t: Transform) -> Twist:
    """Logarithm map; inverse of se3_exp for rotation angle below pi: V(w)^-1 t = (I - K/2 + d K^2) t, d from so3._coefficients."""
    t = _as(Transform, t, "t")
    w = _log(t.rotation._e)
    k = _hat(w)
    v_inv = _series(-0.5, _coefficients(math.sqrt(_sq(*w)))[3], k, _mul(k, k))  # e - x/2 is e + (-x/2) exactly
    return _twist(_apply(v_inv, t._t), w)


def adjoint(t: Transform) -> np.ndarray:
    """6x6 adjoint [[R, hat(t) R], [0, R]] for (v, w)-ordered twists; a result that overflows raises Rigid3dError."""
    t = _as(Transform, t, "t")
    e = t.rotation._e
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = _rows(e)
    out[:3, 3:] = _rows(_mul(_hat(t._t), e))
    return check_matrix(out, (6, 6), "adjoint")


def adjoint_apply_twist(t: Transform, xi: Twist) -> Twist:
    """Change the frame of a twist: w' = R w, v' = R v + t x (R w)."""
    xi = _as(Twist, xi, "xi")
    rw, rv = _act(_as(Transform, t, "t"), xi._w, xi._v)
    return _twist(rv, rw)


def transform_wrench(t: Transform, h: Wrench) -> Wrench:
    """Dual (co-adjoint) map keeping the power pairing f.v + tau.w invariant."""
    h = _as(Wrench, h, "h")
    rf, rtau = _act(_as(Transform, t, "t"), h._f, h._tau)
    return _new(Wrench, _f=_finite(rf, "force"), _tau=_finite(rtau, "torque"))


def _act(t: Transform, a: list[float], b: list[float]) -> tuple[list[float], list[float]]:
    """(R a, R b + t x (R a)) of two stored 3-vectors: the rotated angular part or force, and the moved linear part or moment."""
    r = t.rotation._e
    ra = _apply(r, a)
    cross = _apply(_hat(t._t), ra)
    return ra, [x + y for x, y in zip(_apply(r, b), cross)]


def to_matrix4(t: Transform) -> np.ndarray:
    return np.array(_matrix4(_as(Transform, t, "t")))


def _matrix4(t: Transform) -> list[list[float]]:
    """The four rows of the homogeneous matrix [[R, t], [0, 1]], as floats."""
    return [[*row, x] for row, x in zip(_rows(t.rotation._e), t._t)] + [[0.0, 0.0, 0.0, 1.0]]


def from_matrix4(m) -> Transform:
    """Extract (R, t); a block with det > 0 and orthogonality drift within BLOCK_REPAIR_TOL is repaired."""
    m = check_matrix(m, (4, 4), "homogeneous matrix")
    x, y, z, w = m[3].tolist()
    if math.sqrt(_sq(x, y, z) + (w - 1.0) * (w - 1.0)) > HOMOGENEOUS_ROW_TOL:
        raise InvalidHomogeneousRow("last row must be (0, 0, 0, 1)")
    block = m[:3, :3]
    drift2, det = _defects(*block.ravel().tolist())
    if not (math.sqrt(drift2) <= BLOCK_REPAIR_TOL and det > 0.0):
        raise NotARotation("rotation block deviates from SO(3) beyond the 1e-4 repair threshold")
    return _transform(_repair(block), m[:3, 3].tolist())


def _stack_transforms(transforms, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The rotation rows (9, n) and translation rows (3, n) of an iterable of Transforms, from their stored floats.

    Each is the transposed view of one (n, 9) or (n, 3) buffer. A non-iterable
    transforms, named name, or an element that is not a Transform, named by its index, raises _as's Rigid3dError.
    """
    transforms = list(_as(Iterable, transforms, name))
    try:
        rs = np.fromiter(chain.from_iterable([t.rotation._e for t in transforms]), float, 9 * len(transforms))
        ts = np.fromiter(chain.from_iterable([t._t for t in transforms]), float, 3 * len(transforms))
    except AttributeError:
        pass
    else:
        return rs.reshape(-1, 9).T, ts.reshape(-1, 3).T
    for i, t in enumerate(transforms):
        _as(Transform, t, f"item {i}")


def _inverse_stack(rs, ts) -> tuple:
    """inverse over stacks' rows, its transposed rotations put through _repair_stack as one stack."""
    rt = _repair_stack(_transpose(rs))
    return rt, [-x for x in _apply(rt, ts)]  # an overflow is left to the caller's finiteness check


def _compose_stack(ra, ta, rb, tb) -> tuple:
    """compose over stacks' rows; either side may be a single element, its rotation's nine floats and its translation's three.

    The products go through _repair_stack, as compose puts each through
    _repair. An overflowing translation is left to the caller's finiteness check,
    as is the NaN of an infinite ta (from _inverse_stack) plus an opposite overflow.
    """
    t = [x + y for x, y in zip(_apply(ra, tb), ta)]
    return _repair_stack(_mul(ra, rb)), t


def _build_transforms(rs, ts) -> list[Transform]:
    """Transforms over the rows of a rotation stack from _repair_stack and of a translation stack.

    _repair_stack passes only finite rotations within ORTHO_TOL, so only the
    translation stack gets the value types' finiteness check, once. Each
    value stores its column's floats.
    """
    es, ts = np.transpose(rs).tolist(), floats(np.transpose(ts), (None, 3), "translation")
    return [_new(Transform, rotation=_new(RotationMatrix, _e=e), _t=t) for e, t in zip(es, ts)]
