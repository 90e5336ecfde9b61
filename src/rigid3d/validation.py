"""Input validation helpers shared across modules."""

from __future__ import annotations

import math

from . import _numpy as np
from .errors import Rigid3dError


def check_matrix(x, shape: tuple, name: str) -> np.ndarray:
    """Coerce to a finite float64 array of the given shape; None in shape matches any length."""
    return _checked(_array(x, name), shape, name)


def floats(x, shape: tuple, name: str) -> list:
    """check_matrix's test of x, then its elements as Python floats, in lists nested as x's axes: what a value type stores."""
    arr = _array(x, name)
    if len(shape) == 1 and arr.shape == shape:  # a vector of its fixed length: finiteness is tested on its floats
        return _finite(arr.tolist(), name)
    return _checked(arr, shape, name).tolist()


def _finite(v: list, name: str) -> list:
    """A vector's floats, v itself, or check_matrix's Rigid3dError where one is not finite: for caller and computed vectors."""
    for x in v:
        if not math.isfinite(x):
            raise Rigid3dError(f"{name} contains non-finite values")
    return v


def _array(x, name: str) -> np.ndarray:
    """x as a float64 array; Rigid3dError, naming x, where it is not numbers (text, even '1', a ragged list, 10**400)."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise Rigid3dError(f"{name} must be numeric: {exc}") from None
    if arr is not x and np.asarray(x).dtype.kind in "US":  # NumPy parses numeric text; a float64 array is returned as is
        raise Rigid3dError(f"{name} must be numeric: it contains text")
    return arr


def _checked(arr: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    # the exact comparison first keeps the fixed-shape path as cheap as a plain shape test
    if arr.shape != shape and (arr.ndim != len(shape) or any(s not in (None, a) for s, a in zip(shape, arr.shape))):
        raise Rigid3dError(f"{name} must have shape {str(shape).replace('None', 'n')}, got {arr.shape}")
    # count_nonzero, not .all(): the same answer, without the Python-level wrapper that .all() goes through
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise Rigid3dError(f"{name} contains non-finite values")
    return arr
