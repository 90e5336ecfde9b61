"""SE(3): rigid transforms, exp/log, and adjoint twist/wrench maps.

Twists are stored linear-first, (v, w); wrenches are (f, tau). The
adjoint of T = (R, t) acting on that ordering is the 6x6 block matrix
[[R, hat(t) R], [0, R]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHomogeneousRow, NotARotation
from .so3 import (
    _EYE,
    SERIES_ANGLE,
    RotationMatrix,
    _apply,
    _apply_stack,
    _defects,
    _hat,
    _mul,
    _mul_stack,
    _repair,
    _repair_stack,
    _rodrigues,
    _sq,
    so3_log,
)
from .validation import check_matrix, freeze


@dataclass(frozen=True)
class Transform:
    """SE(3) element stored as (rotation, translation)."""

    rotation: RotationMatrix
    translation: np.ndarray

    def __post_init__(self):
        if not isinstance(self.rotation, RotationMatrix):
            object.__setattr__(self, "rotation", RotationMatrix(self.rotation))
        object.__setattr__(self, "translation", freeze(self.translation, (3,), "translation"))

    @staticmethod
    def identity() -> "Transform":
        return Transform(RotationMatrix.identity(), np.zeros(3))


@dataclass(frozen=True)
class Twist:
    """se(3) element: linear part v first, angular part w second."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", freeze(self.v, (3,), "twist linear part"))
        object.__setattr__(self, "w", freeze(self.w, (3,), "twist angular part"))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.v, self.w])

    @staticmethod
    def from_array(xi) -> "Twist":
        xi = check_matrix(xi, (6,), "twist")
        return Twist(xi[:3], xi[3:])


@dataclass(frozen=True)
class Wrench:
    """Force f first, moment tau second."""

    f: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", freeze(self.f, (3,), "force"))
        object.__setattr__(self, "tau", freeze(self.tau, (3,), "torque"))


def compose(a: Transform, b: Transform) -> Transform:
    """Group product: rotation R_a R_b, translation R_a t_b + t_a."""
    ra = a.rotation.m.ravel().tolist()
    t = [x + y for x, y in zip(_apply(ra, b.translation.tolist()), a.translation.tolist())]
    return Transform(_repair(np.array(_mul(ra, b.rotation.m.ravel().tolist())).reshape(3, 3)), t)


def inverse(t: Transform) -> Transform:
    rot = _repair(t.rotation.m.T)
    return Transform(rot, [-x for x in _apply(rot.m.ravel().tolist(), t.translation.tolist())])


def transform_point(t: Transform, p) -> np.ndarray:
    """R p + t; a result that overflows raises Rigid3dError."""
    rp = _apply(t.rotation.m.ravel().tolist(), check_matrix(p, (3,), "point").tolist())
    return check_matrix([x + y for x, y in zip(rp, t.translation.tolist())], (3,), "transformed point")


def transform_direction(t: Transform, v) -> np.ndarray:
    """R v; a result that overflows raises Rigid3dError."""
    rv = _apply(t.rotation.m.ravel().tolist(), check_matrix(v, (3,), "direction").tolist())
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
    return [e - 0.5 * x + c * x2 for e, x, x2 in zip(_EYE, k, _mul(k, k))]


def se3_exp(xi: Twist) -> Transform:
    """Exponential map: exp(hat(w)) and V(w) v from the one Rodrigues evaluation so3_exp also uses (so3._rodrigues)."""
    if not isinstance(xi, Twist):
        xi = Twist.from_array(xi)
    rot, v = _rodrigues(xi.w)
    return Transform(rot, _apply(v, xi.v.tolist()))


def se3_log(t: Transform) -> Twist:
    """Logarithm map; inverse of se3_exp for rotation angle below pi."""
    w = so3_log(t.rotation)
    return Twist(_apply(_v_inverse(w.tolist()), t.translation.tolist()), w)


def adjoint(t: Transform) -> np.ndarray:
    """6x6 adjoint [[R, hat(t) R], [0, R]] for (v, w)-ordered twists; a result that overflows raises Rigid3dError."""
    r = t.rotation.m
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[:3, 3:] = np.array(_mul(_hat(t.translation.tolist()), r.ravel().tolist())).reshape(3, 3)
    out[3:, 3:] = r
    return check_matrix(out, (6, 6), "adjoint")


def adjoint_apply_twist(t: Transform, xi: Twist) -> Twist:
    """Change the frame of a twist: w' = R w, v' = R v + t x (R w)."""
    rw, rv = _act(t, xi.w, xi.v)
    return Twist(rv, rw)


def transform_wrench(t: Transform, h: Wrench) -> Wrench:
    """Dual (co-adjoint) map keeping the power pairing f.v + tau.w invariant."""
    rf, rtau = _act(t, h.f, h.tau)
    return Wrench(rf, rtau)


def _act(t: Transform, a: np.ndarray, b: np.ndarray) -> tuple[list[float], list[float]]:
    """(R a, R b + t x (R a)): the rotated angular part or force, and the moved linear part or moment."""
    r = t.rotation.m.ravel().tolist()
    ra = _apply(r, a.tolist())
    cross = _apply(_hat(t.translation.tolist()), ra)
    return ra, [x + y for x, y in zip(_apply(r, b.tolist()), cross)]


def to_matrix4(t: Transform) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = t.rotation.m
    out[:3, 3] = t.translation
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
    """compose over stacks; either side may be a single (3, 3), (3,) element.

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
    """
    rs, ts = freeze(rs, (None, 3, 3), "rotation matrix"), freeze(ts, (None, 3), "translation")
    out = []
    for m, t in zip(rs, ts):
        rot = object.__new__(RotationMatrix)
        object.__setattr__(rot, "m", m)
        tf = object.__new__(Transform)
        object.__setattr__(tf, "rotation", rot)
        object.__setattr__(tf, "translation", t)
        out.append(tf)
    return out
