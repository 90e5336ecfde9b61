import numpy as np
import pytest

import rigid3d as r
from rigid3d.estimators import HandEyeCalibrator, NotFittedError, PivotCalibrator, RigidRegistration

from conftest import random_transform
from test_calibration import synthetic_handeye, synthetic_pivot


class TestRigidRegistration:
    def test_fit_and_transform(self, rng):
        p = rng.standard_normal((10, 3))
        t0 = random_transform(rng)
        q = p @ t0.rotation.m.T + t0.translation
        est = RigidRegistration().fit(p, q)
        assert est.rms_error_ < 1e-9
        np.testing.assert_allclose(est.transform(p), q, atol=1e-9)
        np.testing.assert_allclose(est.predict(p), q, atol=1e-9)

    def test_fit_transform(self, rng):
        p = rng.standard_normal((5, 3))
        out = RigidRegistration().fit_transform(p, p)
        np.testing.assert_allclose(out, p, atol=1e-12)

    def test_fit_returns_self(self, rng):
        p = rng.standard_normal((4, 3))
        est = RigidRegistration()
        assert est.fit(p, p) is est

    def test_not_fitted(self, rng):
        with pytest.raises(NotFittedError):
            RigidRegistration().transform(rng.standard_normal((3, 3)))


class TestPivotCalibrator:
    def test_fit(self, rng):
        tip, pivot, poses = synthetic_pivot(rng)
        est = PivotCalibrator().fit(poses)
        assert np.linalg.norm(est.tip_offset_ - tip) < 1e-9
        assert np.linalg.norm(est.pivot_point_ - pivot) < 1e-9

    def test_predict_tip_positions(self, rng):
        tip, pivot, poses = synthetic_pivot(rng, n=6)
        est = PivotCalibrator().fit(poses)
        tips = est.predict(poses)
        np.testing.assert_allclose(tips, np.tile(pivot, (6, 1)), atol=1e-9)


class TestHandEyeCalibrator:
    def test_fit(self, rng):
        x0, a_list, b_list = synthetic_handeye(rng)
        est = HandEyeCalibrator().fit(a_list, b_list)
        assert r.geodesic_distance(est.transform_.rotation, x0.rotation) < 1e-8
        assert est.rotation_rms_ < 1e-8

    def test_predict_recovers_b(self, rng):
        _, a_list, b_list = synthetic_handeye(rng, n=5)
        est = HandEyeCalibrator().fit(a_list, b_list)
        for pred, b in zip(est.predict(a_list), b_list):
            assert r.geodesic_distance(pred.rotation, b.rotation) < 1e-8
            assert np.linalg.norm(pred.translation - b.translation) < 1e-7


class TestParamsProtocol:
    @pytest.mark.parametrize("cls", [RigidRegistration, PivotCalibrator, HandEyeCalibrator])
    def test_get_set_roundtrip(self, cls):
        est = cls()
        params = est.get_params()
        assert est.set_params(**params) is est

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError):
            RigidRegistration().set_params(bogus=1)

    def test_repr(self):
        assert repr(PivotCalibrator()).startswith("PivotCalibrator(")

    @pytest.mark.parametrize("cls", [RigidRegistration, PivotCalibrator, HandEyeCalibrator])
    def test_thresholds_are_not_parameters(self, cls):
        assert cls().get_params() == {}
        assert repr(cls()) == f"{cls.__name__}()"
        with pytest.raises(ValueError, match="invalid parameter"):
            cls().set_params(max_condition=1e6)

    def test_sklearn_clone_compatible(self):
        # estimators must be reconstructable from their params alone
        for cls in (RigidRegistration, PivotCalibrator, HandEyeCalibrator):
            est = cls()
            clone = cls(**est.get_params())
            assert clone.get_params() == est.get_params()
