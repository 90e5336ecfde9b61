"""Seeded calibration scenes with their ground truth, made with plain NumPy.

calib_solve passes these arrays to the estimators; cli_files writes them to
CSV files. Every scene carries small seeded noise, except in the exactly
degenerate sub-problems, where noise would make the input well-posed again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import npgeom as g

NOISE_ROT = 1e-4  # rad, on every camera-stream and tracked-tool rotation
NOISE_T = 1e-4  # m, on camera-stream and tracked-tool translations
NOISE_PT = 1e-3  # m, on registration target points

# Estimates must land within these of the generating truth. They are
# multiples of the noise level: far above the estimation error of a correct
# solver at the benchmark's sizes, far below the error of a wrong one.
TOL_ROT = 10 * NOISE_ROT
TOL_T = 10 * NOISE_T


def reg_tol(n: int) -> float:
    """Registration averages n noisy points, so its error shrinks as 1/sqrt(n)."""
    return 100 * NOISE_PT / math.sqrt(n)


@dataclass
class HandEyeScene:
    a_r: np.ndarray  # (m+1, 3, 3) absolute robot poses
    a_t: np.ndarray
    b_r: np.ndarray  # (m+1, 3, 3) absolute camera poses, noisy
    b_t: np.ndarray
    x_r: np.ndarray  # the true X
    x_t: np.ndarray
    b_rel_r: np.ndarray  # (m, 3, 3) noise-free relative motions X^-1 A_i X
    b_rel_t: np.ndarray

    def check_x(self, x_r, x_t) -> str | None:
        if g.rot_angle(x_r, self.x_r) > TOL_ROT:
            return "X rotation off"
        if np.linalg.norm(np.asarray(x_t) - self.x_t) > TOL_T:
            return "X translation off"
        return None


@dataclass
class PivotScene:
    r: np.ndarray  # (n, 3, 3) tracked tool poses
    t: np.ndarray
    tip: np.ndarray  # tool frame
    pivot: np.ndarray  # world frame

    def check(self, tip, pivot) -> str | None:
        if np.linalg.norm(np.asarray(tip) - self.tip) > TOL_T:
            return "tip offset off"
        if np.linalg.norm(np.asarray(pivot) - self.pivot) > TOL_T:
            return "pivot point off"
        return None


@dataclass
class PointScene:
    p: np.ndarray  # (n, 3) source
    q: np.ndarray  # (n, 3) target
    r: np.ndarray  # true rotation and translation mapping p onto q
    t: np.ndarray

    def check(self, r, t) -> str | None:
        tol = reg_tol(len(self.p))
        if g.rot_angle(r, self.r) > tol or np.linalg.norm(np.asarray(t) - self.t) > tol:
            return "transform off"
        return None


def _noise_rot(rng, n):
    return np.array([g.rodrigues(w) for w in rng.normal(0.0, NOISE_ROT, (n, 3))])


def hand_eye(rng, motions: int, single_axis: bool = False) -> HandEyeScene:
    """Robot stream A as a random walk, camera stream B_i = X^-1 A_i X plus noise."""
    m = motions
    x_r = g.rodrigues(g.random_rotvecs(rng, 1, 0.3, 2.5)[0])
    x_t = rng.uniform(-0.2, 0.2, 3)
    if single_axis:
        axis = g.random_unit_vectors(rng, 1)[0]
        steps = axis * rng.uniform(0.2, 1.2, (m, 1)) * rng.choice([-1.0, 1.0], (m, 1))
    else:
        steps = g.random_rotvecs(rng, m, 0.2, 1.2)
    a_r = np.empty((m + 1, 3, 3))
    a_t = np.empty((m + 1, 3))
    a_r[0], a_t[0] = np.eye(3), rng.uniform(-1.0, 1.0, 3)
    for i in range(m):
        a_r[i + 1] = a_r[i] @ g.rodrigues(steps[i])
        a_t[i + 1] = a_t[i] + a_r[i] @ rng.normal(0.0, 0.1, 3)
    # With B_i = X^-1 A_i X, consecutive motions satisfy A X = X B.
    b_r = np.einsum("ij,njk,kl->nil", x_r.T, a_r, x_r)
    b_t = np.einsum("ij,njk,k->ni", x_r.T, a_r, x_t) + (a_t - x_t) @ x_r
    b_rel_r = np.einsum("nji,njk->nik", b_r[:-1], b_r[1:])
    b_rel_t = np.einsum("nji,nj->ni", b_r[:-1], b_t[1:] - b_t[:-1])
    b_r = np.einsum("nij,njk->nik", b_r, _noise_rot(rng, m + 1))
    b_t = b_t + rng.normal(0.0, NOISE_T, b_t.shape)
    return HandEyeScene(a_r, a_t, b_r, b_t, x_r, x_t, b_rel_r, b_rel_t)


def pivot(rng, poses: int, pure_translation: bool = False) -> PivotScene:
    """A tool tilting up to 0.7 rad about a fixed pivot point."""
    tip = rng.uniform(-0.05, 0.05, 3) + np.array([0.0, 0.0, 0.15])
    point = rng.uniform(-0.5, 0.5, 3)
    base = g.rodrigues(g.random_rotvecs(rng, 1, 0.0, 3.0)[0])
    if pure_translation:
        r = np.tile(base, (poses, 1, 1))
        t = point - base @ tip + rng.normal(0.0, 0.05, (poses, 3))
    else:
        tilt = np.array([g.rodrigues(w) for w in g.random_rotvecs(rng, poses, 0.1, 0.7)])
        r = np.einsum("ij,njk,nkl->nil", base, tilt, _noise_rot(rng, poses))
        t = point - np.einsum("nij,j->ni", r, tip) + rng.normal(0.0, NOISE_T, (poses, 3))
    return PivotScene(r, t, tip, point)


def points(rng, n: int, kind: str | None = None) -> PointScene:
    """Index-paired point sets; kind is None, "collinear" or "coincident"."""
    rot = g.rodrigues(g.random_rotvecs(rng, 1, 0.3, 3.0)[0])
    t = rng.uniform(-1.0, 1.0, 3)
    if kind == "collinear":
        d = g.random_unit_vectors(rng, 1)[0]
        p = rng.uniform(-0.5, 0.5, 3) + rng.uniform(-0.5, 0.5, (n, 1)) * d
    elif kind == "coincident":
        # On a 1/1024 m grid the mean of the points is exact, so the centred
        # points and every singular value of their correlation are exactly 0.
        p = np.tile(np.round(rng.uniform(-0.5, 0.5, 3) * 1024.0) / 1024.0, (n, 1))
    else:
        p = rng.uniform(-0.5, 0.5, (n, 3))
    q = p @ rot.T + t
    if kind is None:
        q = q + rng.normal(0.0, NOISE_PT, q.shape)
    return PointScene(p, q, rot, t)
