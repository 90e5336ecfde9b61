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
    SERIES_ANGLE,
    RotationMatrix,
    _defects,
    _hat,
    _repair,
    _repair_stack,
    _rodrigues,
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
        object.__setattr__(self, "translation", freeze(check_matrix(self.translation, (3,), "translation")))

    @staticmethod
    def identity() -> "Transform":
        return Transform(RotationMatrix.identity(), np.zeros(3))


@dataclass(frozen=True)
class Twist:
    """se(3) element: linear part v first, angular part w second."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", freeze(check_matrix(self.v, (3,), "twist linear part")))
        object.__setattr__(self, "w", freeze(check_matrix(self.w, (3,), "twist angular part")))

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
        object.__setattr__(self, "f", freeze(check_matrix(self.f, (3,), "force")))
        object.__setattr__(self, "tau", freeze(check_matrix(self.tau, (3,), "torque")))


def compose(a: Transform, b: Transform) -> Transform:
    """Group product: rotation R_a R_b, translation R_a t_b + t_a."""
    with np.errstate(over="ignore"):  # an overflow is left to Transform's finiteness check
        t = a.rotation.m @ b.translation + a.translation
    return Transform(_repair(a.rotation.m @ b.rotation.m), t)


def inverse(t: Transform) -> Transform:
    rot = _repair(t.rotation.m.T)
    with np.errstate(over="ignore"):  # an overflow is left to Transform's finiteness check
        return Transform(rot, -(rot.m @ t.translation))


def transform_point(t: Transform, p) -> np.ndarray:
    """R p + t; a result that overflows raises Rigid3dError."""
    with np.errstate(over="ignore"):
        out = t.rotation.m @ check_matrix(p, (3,), "point") + t.translation
    return check_matrix(out, (3,), "transformed point")


def transform_direction(t: Transform, v) -> np.ndarray:
    """R v; a result that overflows raises Rigid3dError."""
    with np.errstate(over="ignore"):
        out = t.rotation.m @ check_matrix(v, (3,), "direction")
    return check_matrix(out, (3,), "transformed direction")


def _v_inverse(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    k = _hat(w)
    if theta < SERIES_ANGLE:
        c = 1.0 / 12.0 + theta**2 / 720.0 + theta**4 / 30240.0
    else:
        # 1/theta^2 - (1 + cos)/(2 theta sin), written via cot(theta/2)
        half = theta / 2.0
        c = (1.0 - half * math.cos(half) / math.sin(half)) / theta**2
    return np.eye(3) - 0.5 * k + c * (k @ k)


def se3_exp(xi: Twist) -> Transform:
    """Exponential map: exp(hat(w)) and V(w) v from the one Rodrigues evaluation so3_exp also uses (so3._rodrigues)."""
    if not isinstance(xi, Twist):
        xi = Twist.from_array(xi)
    rot, b, c, k, k2 = _rodrigues(xi.w)
    with np.errstate(over="ignore"):  # an overflow is left to Transform's finiteness check
        return Transform(rot, (np.eye(3) + b * k + c * k2) @ xi.v)


def se3_log(t: Transform) -> Twist:
    """Logarithm map; inverse of se3_exp for rotation angle below pi."""
    w = so3_log(t.rotation)
    with np.errstate(over="ignore"):  # an overflow is left to Twist's finiteness check
        return Twist(_v_inverse(w) @ t.translation, w)


def adjoint(t: Transform) -> np.ndarray:
    """6x6 adjoint [[R, hat(t) R], [0, R]] for (v, w)-ordered twists; a result that overflows raises Rigid3dError."""
    r = t.rotation.m
    out = np.zeros((6, 6))
    out[:3, :3] = r
    with np.errstate(over="ignore", invalid="ignore"):
        out[:3, 3:] = _hat(t.translation) @ r
    out[3:, 3:] = r
    return check_matrix(out, (6, 6), "adjoint")


def adjoint_apply_twist(t: Transform, xi: Twist) -> Twist:
    """Change the frame of a twist: w' = R w, v' = R v + t x (R w)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to Twist's finiteness check
        rw = t.rotation.m @ xi.w
        rv = t.rotation.m @ xi.v + _hat(t.translation) @ rw
    return Twist(rv, rw)


def transform_wrench(t: Transform, h: Wrench) -> Wrench:
    """Dual (co-adjoint) map keeping the power pairing f.v + tau.w invariant."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to Wrench's finiteness check
        rf = t.rotation.m @ h.f
        rtau = t.rotation.m @ h.tau + _hat(t.translation) @ rf
    return Wrench(rf, rtau)


def to_matrix4(t: Transform) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = t.rotation.m
    out[:3, 3] = t.translation
    return out


def from_matrix4(m) -> Transform:
    """Extract (R, t); a block with det > 0 and orthogonality drift < 1e-4 is repaired."""
    m = check_matrix(m, (4, 4), "homogeneous matrix")
    if np.linalg.norm(m[3] - np.array([0.0, 0.0, 0.0, 1.0])) > 1e-9:
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
    """inverse over stacks, its transposed rotations put through _repair_stack as one stack.

    The rotations are returned as transposed views, not copies: inverse()
    and compose() multiply with that layout, and BLAS may round a
    row-major copy differently (as it may where an element is re-projected).
    """
    rt = _repair_stack(np.swapaxes(rs, 1, 2))
    with np.errstate(over="ignore"):  # an overflow is left to the caller's finiteness check
        return rt, -(rt @ ts[..., None])[..., 0]


def _compose_stack(ra, ta, rb, tb) -> tuple[np.ndarray, np.ndarray]:
    """compose over stacks; either side may be a single (3, 3), (3,) element.

    The products go through _repair_stack, as compose puts each through
    _repair. An overflowing translation is left to the caller's finiteness check,
    as is the NaN of an infinite ta (from _inverse_stack) plus an opposite overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = (ra @ tb[..., None])[..., 0] + ta
    return _repair_stack(ra @ rb), t


def _build_transforms(rs: np.ndarray, ts: np.ndarray) -> list[Transform]:
    """Transforms over a rotation stack that has already been checked.

    The translations get Transform's finiteness check as one stack; the
    rotations are not checked again element by element.
    """
    rs, ts = freeze(rs), freeze(check_matrix(ts, (None, 3), "translation"))
    out = []
    for m, t in zip(rs, ts):
        rot = object.__new__(RotationMatrix)
        object.__setattr__(rot, "m", m)
        tf = object.__new__(Transform)
        object.__setattr__(tf, "rotation", rot)
        object.__setattr__(tf, "translation", t)
        out.append(tf)
    return out
