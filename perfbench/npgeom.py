"""Plain-NumPy SO(3)/SE(3) used to generate inputs and as the oracle.

Nothing here imports rigid3d, so the benchmark's inputs and expected
answers are the same on every commit of the library. Quaternions are
scalar-first (w, x, y, z); twists are linear-first (v, w).
"""

from __future__ import annotations

import math

import numpy as np


def hat(w) -> np.ndarray:
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rodrigues(w) -> np.ndarray:
    """Rotation matrix of a rotation vector."""
    w = np.asarray(w, dtype=float)
    theta = math.sqrt(float(w @ w))
    k = hat(w)
    if theta < 1e-6:
        a, b = 1.0 - theta**2 / 6.0, 0.5 - theta**2 / 24.0
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta**2
    return np.eye(3) + a * k + b * (k @ k)


def left_jacobian(w) -> np.ndarray:
    """V(w): the translation factor of the SE(3) exponential."""
    w = np.asarray(w, dtype=float)
    theta = math.sqrt(float(w @ w))
    k = hat(w)
    if theta < 1e-4:
        b, c = 0.5 - theta**2 / 24.0, 1.0 / 6.0 - theta**2 / 120.0
    else:
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    return np.eye(3) + b * k + c * (k @ k)


def quat_from_rotvec(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    theta = math.sqrt(float(w @ w))
    if theta == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[math.cos(theta / 2.0)], math.sin(theta / 2.0) * w / theta])


def rotvec_from_quat(q) -> np.ndarray:
    """Rotation vector with angle in [0, pi] of a (not necessarily unit) quaternion."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    s = float(np.linalg.norm(q[1:]))
    if s == 0.0:
        return np.zeros(3)
    return 2.0 * math.atan2(s, q[0]) * q[1:] / s


def quat_to_rot(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def euler_zyx_to_rot(roll, pitch, yaw) -> np.ndarray:
    cr, sr, cp, sp, cy, sy = (math.cos(roll), math.sin(roll), math.cos(pitch),
                              math.sin(pitch), math.cos(yaw), math.sin(yaw))
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def rot_angle(a, b) -> float:
    """Angle of a^T b, accurate near 0 and near pi."""
    rel = np.asarray(a).T @ np.asarray(b)
    s = np.linalg.norm([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]]) / 2.0
    return math.atan2(s, (np.trace(rel) - 1.0) / 2.0)


def rot_angles(a, b) -> np.ndarray:
    """rot_angle over stacks of rotations shaped (n, 3, 3)."""
    rel = np.einsum("nji,njk->nik", a, b)
    anti = np.stack([rel[:, 2, 1] - rel[:, 1, 2], rel[:, 0, 2] - rel[:, 2, 0], rel[:, 1, 0] - rel[:, 0, 1]], axis=1)
    return np.arctan2(np.linalg.norm(anti, axis=1) / 2.0, (np.trace(rel, axis1=1, axis2=2) - 1.0) / 2.0)


def matrix4(r, t) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = r
    out[:3, 3] = t
    return out


def inv4(m) -> np.ndarray:
    r = m[:3, :3].T
    return matrix4(r, -(r @ m[:3, 3]))


def se3_exp(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return matrix4(rodrigues(xi[3:]), left_jacobian(xi[3:]) @ xi[:3])


def se3_log_from(w, t) -> np.ndarray:
    """Twist of the pose whose rotation vector is w and translation t."""
    return np.concatenate([np.linalg.solve(left_jacobian(w), t), w])


def random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotvecs(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Rotation vectors with random axes and angles uniform in [lo, hi)."""
    return random_unit_vectors(rng, n) * rng.uniform(lo, hi, (n, 1))


def write_csv(path, header: str, rows) -> None:
    """Write rows of floats with 17 significant digits, one row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def rot_to_quat(m) -> np.ndarray:
    """Unit quaternion with w >= 0, from the largest of the four squared components."""
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    k = int(np.argmax([t, m[0, 0], m[1, 1], m[2, 2]]))
    if k == 0:
        q = [1.0 + t, m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]
    elif k == 1:
        q = [m[2, 1] - m[1, 2], 1.0 + 2.0 * m[0, 0] - t, m[0, 1] + m[1, 0], m[0, 2] + m[2, 0]]
    elif k == 2:
        q = [m[0, 2] - m[2, 0], m[0, 1] + m[1, 0], 1.0 + 2.0 * m[1, 1] - t, m[1, 2] + m[2, 1]]
    else:
        q = [m[1, 0] - m[0, 1], m[0, 2] + m[2, 0], m[1, 2] + m[2, 1], 1.0 + 2.0 * m[2, 2] - t]
    q = np.array(q) / np.linalg.norm(q)
    return q if q[0] >= 0.0 else -q
