"""Input validation helpers shared across modules."""

from __future__ import annotations

from . import _numpy as np
from .errors import Rigid3dError


def check_matrix(x, shape: tuple, name: str) -> np.ndarray:
    """Coerce to a finite float64 array of the given shape; None in shape matches any length."""
    return _checked(np.asarray(x, dtype=float), shape, name)


def floats(x, shape: tuple, name: str) -> list:
    """check_matrix's test of x, then its elements as Python floats, in lists nested as x's axes: what a value type stores."""
    return _checked(np.asarray(x, dtype=float), shape, name).tolist()


def _checked(arr: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    # the exact comparison first keeps the fixed-shape path as cheap as a plain shape test
    if arr.shape != shape and (arr.ndim != len(shape) or any(s not in (None, a) for s, a in zip(shape, arr.shape))):
        raise Rigid3dError(f"{name} must have shape {str(shape).replace('None', 'n')}, got {arr.shape}")
    # count_nonzero, not .all(): the same answer, without the Python-level wrapper that .all() goes through
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise Rigid3dError(f"{name} contains non-finite values")
    return arr
