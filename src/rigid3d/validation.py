"""Input validation helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .errors import Rigid3dError


def check_matrix(x, shape: tuple, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 array of the given shape; None in shape matches any length."""
    arr = np.asarray(x, dtype=float)
    # the exact comparison first keeps the fixed-shape path as cheap as a plain shape test
    if arr.shape != shape and (arr.ndim != len(shape) or any(s not in (None, a) for s, a in zip(shape, arr.shape))):
        raise Rigid3dError(f"{name} must have shape {str(shape).replace('None', 'n')}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise Rigid3dError(f"{name} contains non-finite values")
    return arr


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return a read-only copy, so value types stay immutable."""
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out
