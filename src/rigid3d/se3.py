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
    RotationMatrix,
    _check_rotation_stack,
    _snap,
    _snap_stack,
    hat3,
    orthonormalize,
    so3_exp,
    so3_log,
)
from .validation import check_matrix, freeze

_V_SMALL = 1e-8
_VINV_SMALL = 1e-4  # closed form cancels catastrophically below this angle


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
    m = _snap(a.rotation.m @ b.rotation.m)
    t = a.rotation.m @ b.translation + a.translation
    return Transform(RotationMatrix(m), t)


def inverse(t: Transform) -> Transform:
    rt = t.rotation.m.T
    return Transform(RotationMatrix(rt), -(rt @ t.translation))


def transform_point(t: Transform, p) -> np.ndarray:
    return t.rotation.m @ check_matrix(p, (3,), "point") + t.translation


def transform_direction(t: Transform, v) -> np.ndarray:
    return t.rotation.m @ check_matrix(v, (3,), "direction")


def _v_matrix(w: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3): translation factor of the SE(3) exponential."""
    theta = np.linalg.norm(w)
    k = hat3(w)
    if theta < _V_SMALL:
        b = 0.5 - theta**2 / 24.0
        c = 1.0 / 6.0 - theta**2 / 120.0
    else:
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    return np.eye(3) + b * k + c * (k @ k)


def _v_inverse(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    k = hat3(w)
    if theta < _VINV_SMALL:
        c = 1.0 / 12.0 + theta**2 / 720.0 + theta**4 / 30240.0
    else:
        # 1/theta^2 - (1 + cos)/(2 theta sin), written via cot(theta/2)
        half = theta / 2.0
        c = (1.0 - half * math.cos(half) / math.sin(half)) / theta**2
    return np.eye(3) - 0.5 * k + c * (k @ k)


def se3_exp(xi: Twist) -> Transform:
    """Exponential map: rotation from Rodrigues, translation through V(w) v."""
    if not isinstance(xi, Twist):
        xi = Twist.from_array(xi)
    r = so3_exp(xi.w)
    return Transform(r, _v_matrix(np.asarray(xi.w)) @ xi.v)


def se3_log(t: Transform) -> Twist:
    """Logarithm map; inverse of se3_exp for rotation angle below pi."""
    w = so3_log(t.rotation)
    v = _v_inverse(w) @ t.translation
    return Twist(v, w)


def adjoint(t: Transform) -> np.ndarray:
    """6x6 adjoint [[R, hat(t) R], [0, R]] for (v, w)-ordered twists."""
    r = t.rotation.m
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[:3, 3:] = hat3(t.translation) @ r
    out[3:, 3:] = r
    return out


def adjoint_apply_twist(t: Transform, xi: Twist) -> Twist:
    """Change the frame of a twist: w' = R w, v' = R v + t x (R w)."""
    rw = t.rotation.m @ xi.w
    rv = t.rotation.m @ xi.v + np.cross(t.translation, rw)
    return Twist(rv, rw)


def transform_wrench(t: Transform, h: Wrench) -> Wrench:
    """Dual (co-adjoint) map keeping the power pairing f.v + tau.w invariant."""
    rf = t.rotation.m @ h.f
    rtau = t.rotation.m @ h.tau + np.cross(t.translation, rf)
    return Wrench(rf, rtau)


def to_matrix4(t: Transform) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = t.rotation.m
    out[:3, 3] = t.translation
    return out


def from_matrix4(m) -> Transform:
    """Extract (R, t); small orthogonality drift (< 1e-4) is repaired."""
    m = check_matrix(m, (4, 4), "homogeneous matrix")
    if np.linalg.norm(m[3] - np.array([0.0, 0.0, 0.0, 1.0])) > 1e-9:
        raise InvalidHomogeneousRow("last row must be (0, 0, 0, 1)")
    block = m[:3, :3]
    try:
        rot = RotationMatrix(block)
    except NotARotation:
        if not np.linalg.norm(block.T @ block - np.eye(3)) < 1e-4:
            raise NotARotation("rotation block deviates from SO(3) beyond the 1e-4 repair threshold") from None
        rot = orthonormalize(block)
    return Transform(rot, m[:3, 3])


def _stack_transforms(transforms) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (n, 3, 3) and translations (n, 3) of an iterable of Transforms."""
    transforms = list(transforms)
    rs = np.array([t.rotation.m for t in transforms]).reshape(-1, 3, 3)
    ts = np.array([t.translation for t in transforms]).reshape(-1, 3)
    return rs, ts


def _inverse_stack(rs, ts) -> tuple[np.ndarray, np.ndarray]:
    """inverse over stacks, its transposed rotations checked as one stack.

    The rotations are returned as transposed views, not copies: inverse()
    and compose() multiply with that layout, and BLAS may round a
    row-major copy differently.
    """
    rt = _check_rotation_stack(np.swapaxes(rs, 1, 2))
    return rt, -(rt @ ts[..., None])[..., 0]


def _compose_stack(ra, ta, rb, tb) -> tuple[np.ndarray, np.ndarray]:
    """compose over stacks; either side may be a single (3, 3), (3,) element.

    The products are checked as one stack, as compose checks each one.
    """
    r = _check_rotation_stack(_snap_stack(ra @ rb))
    return r, (ra @ tb[..., None])[..., 0] + ta


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
