import numpy as np
import pytest

import rigid3d as r
from rigid3d.errors import Rigid3dError
from rigid3d.validation import check_matrix

PTS = np.zeros((4, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: r.so3_exp(np.zeros(4)), "rotation vector must have shape (3,), got (4,)"),
        (lambda: r.RotationMatrix(np.eye(4)), "rotation matrix must have shape (3, 3), got (4, 4)"),
        (lambda: r.register_point_sets(PTS[:, :2], PTS), "source points must have shape (n, 3), got (4, 2)"),
        (lambda: r.register_point_sets(PTS, np.zeros(3)), "target points must have shape (n, 3), got (3,)"),
        (lambda: r.Transform(np.eye(3), [0.0, np.nan, 0.0]), "translation contains non-finite values"),
    ],
)
def test_error_messages(call, message):
    with pytest.raises(Rigid3dError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [0, 1, 7])
def test_any_length_slot(n):
    assert check_matrix(np.zeros((n, 3)), (None, 3), "points").shape == (n, 3)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 3), (3, 4)])
def test_any_length_slot_keeps_rank_and_fixed_sizes(shape):
    with pytest.raises(Rigid3dError, match=r"must have shape \(n, 3\)"):
        check_matrix(np.zeros(shape), (None, 3), "points")
