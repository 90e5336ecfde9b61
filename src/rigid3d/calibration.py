"""Calibration solvers: point-set registration, pivot, and hand-eye AX=XB.

Each solver is a pure function returning a result record; sklearn-style
estimator wrappers live in :mod:`rigid3d.estimators`.
"""

from __future__ import annotations

import math

from . import _numpy as np
from .errors import (
    DegenerateGeometry,
    DegenerateMatrix,
    DegenerateMotion,
    Rigid3dError,
    TooFewMotions,
    TooFewPoints,
    TooFewPoses,
)
from .se3 import Transform, _stack_transforms, _transform
from .so3 import _apply, _log_stack, _mul, _nearest_rotation, _overflow_ignored, _repair, _repair_stack, _sq, _transpose, _Value
from .validation import check_matrix

SINGULAR_RATIO = 1e-9
MAX_CONDITION = 1e8
PARALLEL_AXIS_TOL = 1e-6
_COS_PARALLEL_AXIS_TOL = 0.9999999999995  # cos(PARALLEL_AXIS_TOL), correctly rounded: no libm call
MTM_RATIO = 1e-12
_BLOCK = 8192  # points per block of the point kernels: a row of a block is 64 KiB, so a block's rows stay in L2


class RegistrationResult(_Value):
    """register_point_sets' fit: the transform T, the RMS residual, and ||T p_i - q_i|| for each point pair."""

    _fields = ("transform", "rms_error", "per_point_residuals")

    def __init__(self, transform: Transform, rms_error: float, per_point_residuals: np.ndarray):
        self.__dict__.update(zip(self._fields, (transform, rms_error, per_point_residuals)))


class PivotResult(_Value):
    """pivot_calibrate's fit: tip_offset g (tool frame), pivot_point b (world frame), the RMS, ||R_i g + t_i - b|| per pose."""

    _fields = ("tip_offset", "pivot_point", "rms_error", "per_pose_residuals")

    def __init__(self, tip_offset: np.ndarray, pivot_point: np.ndarray, rms_error: float, per_pose_residuals: np.ndarray):
        self.__dict__.update(zip(self._fields, (tip_offset, pivot_point, rms_error, per_pose_residuals)))


class HandEyeResult(_Value):
    """hand_eye_calibrate's fit: X, the rotation (rad) and translation RMS, ||R_Ai t_X - t_X - (R_X t_Bi - t_Ai)|| per motion."""

    _fields = ("x", "rotation_rms", "translation_rms", "per_motion_translation_residuals")

    def __init__(self, x: Transform, rotation_rms: float, translation_rms: float, per_motion_translation_residuals: np.ndarray):
        self.__dict__.update(zip(self._fields, (x, rotation_rms, translation_rms, per_motion_translation_residuals)))


@_overflow_ignored  # an overflow is rejected: by the H check, _transform or _rms
def register_point_sets(p, q) -> RegistrationResult:
    """Least-squares rigid transform T minimizing sum ||T p_i - q_i||^2.

    SVD (Arun/Kabsch) method with the determinant correction, so the
    result is always a proper rotation. Correspondence is index-wise.
    """
    # read in C order, so that the sums and the BLAS product below, and thus the bits, do not follow the caller's layout
    p = np.ascontiguousarray(check_matrix(p, (None, 3), "source points"))
    q = np.ascontiguousarray(check_matrix(q, (None, 3), "target points"))
    n = p.shape[0]
    if n != q.shape[0]:
        raise TooFewPoints("point sets must have equal length")
    if n < 3:
        raise TooFewPoints("registration needs at least 3 point pairs")

    # p.mean(axis=0)'s bits, in one pass: each column summed in row order, then divided by n
    p_bar = np.einsum("ij->j", p) / n
    q_bar = np.einsum("ij->j", q) / n
    h = (p - p_bar).T @ (q - q_bar)
    if not np.all(np.isfinite(h)):  # rejected before the SVD sees it
        raise Rigid3dError("cross-covariance of the points overflows double precision")
    r, sigma, _ = _nearest_rotation(h)
    if sigma[1] < SINGULAR_RATIO * sigma[0]:  # sorted, so sigma[2] is below the ratio too
        raise DegenerateGeometry("points are collinear: rotation about the line is unconstrained")
    rot = _repair(r.T)  # for H = U S V^T this is Kabsch's V diag(1, 1, d) U^T
    e = rot._e
    t = (q_bar - _apply(e, p_bar.tolist())).tolist()
    transform = _transform(rot, t)
    residuals = np.empty(n)
    for b in _blocks(n):
        np.sqrt(_sq(*[x + y - z for x, y, z in zip(_apply(e, p[b].T), t, q[b].T)]), out=residuals[b])
    return RegistrationResult(transform, _rms(residuals), residuals)


def _blocks(n: int) -> list[slice]:
    """The slices of n points, _BLOCK at a time, that the point kernels run on in turn, so a block's rows stay in cache."""
    return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]


@_overflow_ignored  # an overflowing residual is rejected by _rms
def pivot_calibrate(samples) -> PivotResult:
    """Tool-tip and pivot point from poses rotating about a fixed point.

    Model: R_i g + t_i = b for every pose, solved as one stacked linear
    least-squares system in (g, b).
    """
    rs, ts = _stack_transforms(samples, "samples")
    n = rs.shape[1]
    if n < 3:
        raise TooFewPoses("pivot calibration needs at least 3 poses")

    a = np.zeros((n, 3, 6))
    a[:, :, :3] = rs.T.reshape(n, 3, 3)
    a[:, :, 3:] = -np.eye(3)
    a = a.reshape(3 * n, 6)
    rhs = -ts.T.reshape(3 * n)

    sol, _, _, sv = np.linalg.lstsq(a, rhs, rcond=None)
    # cond(A^T A) = (s_max / s_min)^2, compared without dividing so rank deficiency is rejected too
    if sv[0] * sv[0] > MAX_CONDITION * (sv[-1] * sv[-1]):
        raise DegenerateMotion("insufficient rotational diversity: tip and pivot are not separable")
    tip, pivot = sol[:3], sol[3:]
    errs = np.sqrt(_sq(*[x + y - z for x, y, z in zip(_apply(rs, tip.tolist()), ts, pivot.tolist())]))
    return PivotResult(tip, pivot, _rms(errs), errs)


@_overflow_ignored  # an overflow is rejected: by _transform or _rms
def hand_eye_calibrate(a_list, b_list) -> HandEyeResult:
    """Solve A_i X = X B_i for relative-motion pairs (A_i, B_i).

    Separable two-stage least squares: the rotation from the log-map
    correlation matrix M = sum beta_i alpha_i^T with R = (M^T M)^{-1/2} M^T,
    the polar factor u vt of the SVD M^T = u diag(s) vt, then the translation from
    the stacked linear system (R_Ai - I) t = R t_Bi - t_Ai.
    """
    ra, ta = _stack_transforms(a_list, "a_list")
    rb, tb = _stack_transforms(b_list, "b_list")
    n = ra.shape[1]
    if n != rb.shape[1]:
        raise TooFewMotions("motion lists must have equal length")
    if n < 3:  # M = sum beta_i alpha_i^T has rank <= n, and R needs rank 3
        raise TooFewMotions("hand-eye calibration needs at least 3 motion pairs")

    alphas = _log_stack(ra)
    betas = _log_stack(rb)
    _check_axis_diversity(alphas)

    # the (n, 3, 3) outer products in C order, summed along the motions in order, as a running sum would be
    m = np.multiply(betas.T[:, :, None], alphas.T[:, None, :], order="C").sum(axis=0)
    r, s, sign = _nearest_rotation(m.T)  # the eigenvalues of M^T M are s^2
    if s[2] * s[2] < MTM_RATIO * max(s[0] * s[0], 1.0):
        raise DegenerateMotion("rotation axes are not diverse enough to determine X")
    if sign < 0:  # r is then the nearest rotation to M^T, not its polar factor
        raise DegenerateMatrix("the polar factor of M is a reflection: no rotation X solves the motion pairs")
    rot_x = _repair(r)
    r_x = rot_x._e

    d = [x - y for x, y in zip(_apply(r_x, tb), ta)]
    a = (ra.T.reshape(n, 3, 3) - np.eye(3)).reshape(3 * n, 3)
    t_x, *_ = np.linalg.lstsq(a, np.stack(d, axis=-1).reshape(3 * n), rcond=None)

    # geodesic distance between A_i R_X and R_X B_i, each product a rotation as compose would give it
    left = _repair_stack(_mul(ra, r_x))
    right = _repair_stack(_mul(r_x, rb))
    rel = _repair_stack(_mul(_transpose(left), right))
    rot_errs = np.sqrt(_sq(*_log_stack(rel)))
    t = t_x.tolist()
    trans_errs = np.sqrt(_sq(*[x - y - z for x, y, z in zip(_apply(ra, t), t, d)]))
    return HandEyeResult(
        _transform(rot_x, t),
        _rms(rot_errs),
        _rms(trans_errs),
        trans_errs,
    )


def _rms(errs: np.ndarray) -> float:
    """Root mean square of residual norms; Rigid3dError where it overflows (silently, under _overflow_ignored)."""
    rms = math.sqrt(float(np.add.reduce(errs * errs)) / len(errs))  # np.mean's pairwise sum and division, without its wrapper
    if not math.isfinite(rms):
        raise Rigid3dError("residual RMS overflows double precision")
    return rms


def _check_axis_diversity(alphas) -> None:
    """Reject motion sets whose rotation axes all lie on one line; alphas are the rotation vectors' (3, n) rows."""
    norms = np.sqrt(_sq(*alphas))
    rotating = norms > 1e-12
    axes = alphas[:, rotating] / norms[rotating]
    if axes.shape[1] < 2:
        raise DegenerateMotion("need at least 2 motions with nonzero rotation")
    x, y, z = axes[:, 1:] * axes[:, :1]
    # an axis is off the first by more than PARALLEL_AXIS_TOL where |cos| <= cos(PARALLEL_AXIS_TOL); a tie was, by arccos
    if not np.any(np.abs(x + y + z) <= _COS_PARALLEL_AXIS_TOL):
        raise DegenerateMotion("all rotation axes are parallel: X is not unique")
