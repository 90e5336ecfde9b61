"""sklearn-style estimator wrappers around the calibration solvers.

These follow the scikit-learn protocol (``fit`` returns self, fitted
attributes end in an underscore, ``get_params``/``set_params`` for
pipeline composition) without depending on scikit-learn itself, to keep
the NumPy-only footprint.
"""

from __future__ import annotations

from . import _numpy as np
from .calibration import hand_eye_calibrate, pivot_calibrate, register_point_sets
from .errors import Rigid3dError
from .se3 import _build_transforms, _compose_stack, _stack_transforms, inverse
from .so3 import _apply, _overflow_ignored
from .validation import check_matrix


class NotFittedError(Rigid3dError):
    """Estimator used before calling fit."""


class BaseEstimator:
    """get_params/set_params compatible with sklearn conventions.

    The solvers' degeneracy thresholds are fixed constants in
    :mod:`rigid3d.calibration`, so no estimator has a parameter.
    """

    def get_params(self, deep=True):
        return {}

    def set_params(self, **params):
        for name in params:
            raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
        return self

    def __repr__(self):
        return f"{type(self).__name__}()"

    def _fitted(self, attr):
        if not hasattr(self, attr):
            raise NotFittedError(f"{type(self).__name__} is not fitted yet; call fit first")


class RigidRegistration(BaseEstimator):
    """Rigid point-set registration with index-wise correspondence.

    After ``fit(P, Q)``:
        transform_            fitted Transform mapping P onto Q
        rms_error_            RMS of per-point residuals
        per_point_residuals_  residual norm for each correspondence
    """

    def fit(self, X, y):
        result = register_point_sets(X, y)
        self.transform_ = result.transform
        self.rms_error_ = result.rms_error
        self.per_point_residuals_ = result.per_point_residuals
        return self

    @_overflow_ignored  # an overflow is rejected by the last check
    def transform(self, X):
        """Apply the fitted rigid transform to an (n, 3) point array; a result that overflows raises Rigid3dError."""
        self._fitted("transform_")
        pts = check_matrix(X, (None, 3), "points")
        out = np.stack(_apply(self.transform_.rotation._e, pts.T), axis=-1) + self.transform_.translation
        return check_matrix(out, (None, 3), "transformed points")

    def fit_transform(self, X, y):
        return self.fit(X, y).transform(X)

    def predict(self, X):
        return self.transform(X)


class PivotCalibrator(BaseEstimator):
    """Tool-tip offset and pivot point from poses pivoting about a fixed point.

    After ``fit(poses)``: ``tip_offset_``, ``pivot_point_``, ``rms_error_``.
    """

    def fit(self, X, y=None):
        result = pivot_calibrate(X)
        self.tip_offset_ = result.tip_offset
        self.pivot_point_ = result.pivot_point
        self.rms_error_ = result.rms_error
        return self

    @_overflow_ignored  # an overflow is rejected by the last check
    def predict(self, X):
        """World-frame tip position for each pose in X; a result that overflows raises Rigid3dError."""
        self._fitted("tip_offset_")
        rs, ts = _stack_transforms(X)
        out = np.stack(_apply(rs, self.tip_offset_.tolist()), axis=-1) + ts.T
        return check_matrix(out, (None, 3), "predicted tips")


class HandEyeCalibrator(BaseEstimator):
    """AX = XB solver over relative-motion pairs.

    After ``fit(A, B)``: ``transform_`` (the X), ``rotation_rms_`` (rad),
    ``translation_rms_``.
    """

    def fit(self, X, y):
        result = hand_eye_calibrate(X, y)
        self.transform_ = result.x
        self.rotation_rms_ = result.rotation_rms
        self.translation_rms_ = result.translation_rms
        return self

    @_overflow_ignored  # an overflow is rejected by _build_transforms' translation check
    def predict(self, X):
        """Map each motion A to the predicted motion B = X^-1 A X; a translation that overflows raises Rigid3dError."""
        self._fitted("transform_")
        x, x_inv = self.transform_, inverse(self.transform_)
        rs, ts = _stack_transforms(X)
        rs, ts = _compose_stack(x_inv.rotation._e, x_inv._t, rs, ts)
        return _build_transforms(*_compose_stack(rs, ts, x.rotation._e, x._t))
