import numpy as np
import pytest

import rigid3d as r
from rigid3d.errors import Rigid3dError
from rigid3d.estimators import HandEyeCalibrator, NotFittedError, PivotCalibrator, RigidRegistration

from conftest import random_transform
from test_calibration import seeded_registration, synthetic_handeye, synthetic_pivot


class TestRigidRegistration:
    def test_fit_and_transform(self, rng):
        p = rng.standard_normal((10, 3))
        t0 = random_transform(rng)
        q = p @ t0.rotation.m.T + t0.translation
        est = RigidRegistration().fit(p, q)
        assert est.rms_error_ < 1e-9
        np.testing.assert_allclose(est.transform(p), q, atol=1e-9)
        np.testing.assert_allclose(est.predict(p), q, atol=1e-9)

    def test_transform_equals_transform_point_bitwise(self):
        for seed in range(200):
            p, q = seeded_registration(seed)
            est = RigidRegistration().fit(p, q)
            out = est.transform(p)
            for i, x in enumerate(p):
                assert np.array_equal(out[i], r.transform_point(est.transform_, x)), (seed, i)

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

    def test_transform_overflow_is_rejected(self):
        tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        est = RigidRegistration().fit(tet, tet @ r.so3_exp([0.3, -0.2, 0.5]).m.T + [1.0, 2.0, 3.0])
        with pytest.raises(Rigid3dError, match="^transformed points contains non-finite values$"):
            est.transform([[1.7e308] * 3])


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

    def test_predict_overflow_is_rejected(self, rng):
        # a fit this large fails its RMS check, so the offset is set by hand
        est = PivotCalibrator().fit(synthetic_pivot(rng)[2])
        est.tip_offset_ = np.full(3, 1e306)
        with pytest.raises(Rigid3dError, match="^predicted tips contains non-finite values$"):
            est.predict([r.Transform(r.so3_exp([0.1, 0.2, 0.3]), [1.797e308] * 3)])


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

    def test_predict_overflow_is_rejected(self, rng):
        # X^-1 A's translation overflows in the stacked compose; the warnings filter is "error"
        est = HandEyeCalibrator().fit(*synthetic_handeye(rng)[1:])
        with pytest.raises(Rigid3dError, match="^translation contains non-finite values$"):
            est.predict([r.Transform(r.so3_exp([0.1, 0.2, 0.3]), [1.797e308] * 3)])


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
