"""sklearn-style estimator wrappers around the calibration solvers.

These follow the scikit-learn protocol (``fit`` returns self, fitted
attributes end in an underscore, ``get_params``/``set_params`` for
pipeline composition) without depending on scikit-learn itself, to keep
the NumPy-only footprint.
"""

from __future__ import annotations

import inspect

from .calibration import hand_eye_calibrate, pivot_calibrate, register_point_sets
from .errors import Rigid3dError
from .se3 import _build_transforms, _compose_stack, _stack_transforms, inverse
from .validation import check_matrix


class NotFittedError(Rigid3dError):
    """Estimator used before calling fit."""


class BaseEstimator:
    """Minimal get_params/set_params, compatible with sklearn conventions."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

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

    def __init__(self, singular_ratio=1e-9):
        self.singular_ratio = singular_ratio

    def fit(self, X, y):
        result = register_point_sets(X, y, singular_ratio=self.singular_ratio)
        self.transform_ = result.transform
        self.rms_error_ = result.rms_error
        self.per_point_residuals_ = result.per_point_residuals
        return self

    def transform(self, X):
        """Apply the fitted rigid transform to an (n, 3) point array."""
        self._fitted("transform_")
        pts = check_matrix(X, (None, 3), "points")
        return pts @ self.transform_.rotation.m.T + self.transform_.translation

    def fit_transform(self, X, y):
        return self.fit(X, y).transform(X)

    def predict(self, X):
        return self.transform(X)


class PivotCalibrator(BaseEstimator):
    """Tool-tip offset and pivot point from poses pivoting about a fixed point.

    After ``fit(poses)``: ``tip_offset_``, ``pivot_point_``, ``rms_error_``.
    """

    def __init__(self, max_condition=1e8):
        self.max_condition = max_condition

    def fit(self, X, y=None):
        result = pivot_calibrate(X, max_condition=self.max_condition)
        self.tip_offset_ = result.tip_offset
        self.pivot_point_ = result.pivot_point
        self.rms_error_ = result.rms_error
        return self

    def predict(self, X):
        """World-frame tip position for each pose in X."""
        self._fitted("tip_offset_")
        rs, ts = _stack_transforms(X)
        return rs @ self.tip_offset_ + ts


class HandEyeCalibrator(BaseEstimator):
    """AX = XB solver over relative-motion pairs.

    After ``fit(A, B)``: ``transform_`` (the X), ``rotation_rms_`` (rad),
    ``translation_rms_``.
    """

    def __init__(self, parallel_axis_tol=1e-6):
        self.parallel_axis_tol = parallel_axis_tol

    def fit(self, X, y):
        result = hand_eye_calibrate(X, y, parallel_axis_tol=self.parallel_axis_tol)
        self.transform_ = result.x
        self.rotation_rms_ = result.rotation_rms
        self.translation_rms_ = result.translation_rms
        return self

    def predict(self, X):
        """Map each motion A to the predicted motion B = X^-1 A X."""
        self._fitted("transform_")
        x, x_inv = self.transform_, inverse(self.transform_)
        rs, ts = _stack_transforms(X)
        rs, ts = _compose_stack(x_inv.rotation.m, x_inv.translation, rs, ts)
        return _build_transforms(*_compose_stack(rs, ts, x.rotation.m, x.translation))
