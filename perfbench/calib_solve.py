"""calib_solve: in-process calibration jobs through the estimator API.

One op is one simulated rig: hand-eye (relative motions formed from two
absolute pose streams, then fit and predict), pivot (fit and predict) and
point-set registration (fit and transform). Inputs are plain arrays; the
op builds the library's value types from them, as a caller holding
recorded data would. One job in ten has one degenerate sub-problem,
cycling through the three classes of DEGENERATE. The known defect of
KNOWN_DEFECTS is probed once per run, outside the timed pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import npgeom as g
import rigid3d as r
import scenes
from scenes import TOL_ROT, TOL_T, reg_tol

# Degenerate class -> (the sub-problem it breaks, the error class it must raise).
DEGENERATE = {
    "single_axis": ("hand_eye", "DegenerateMotion"),
    "pure_translation_pivot": ("pivot", "DegenerateMotion"),
    "collinear_points": ("register", "DegenerateGeometry"),
}
# register_point_sets returns a rotation for coincident points instead of
# raising DegenerateGeometry. The timed pool holds only ops that must pass,
# so this job is run once per run by known_defects() and reported there.
KNOWN_DEFECTS = {"coincident_points": ("register", "DegenerateGeometry")}
EXPECTED = {**DEGENERATE, **KNOWN_DEFECTS}


@dataclass(frozen=True)
class Sizes:
    motions: int = 500
    pivot_poses: int = 1000
    points: int = 100_000
    point_sets: int = 8  # distinct non-degenerate registration sets, shared by the jobs


FULL = Sizes()
TINY = Sizes(motions=8, pivot_poses=12, points=50, point_sets=2)


@dataclass
class Job:
    degenerate: str | None
    hand_eye: scenes.HandEyeScene
    pivot: scenes.PivotScene
    points: scenes.PointScene


class CalibSolve:
    pool_len = 30  # one degenerate job in ten, three degenerate classes
    round_len = 10

    def __init__(self, seed: int, sizes: Sizes = FULL):
        rng = np.random.default_rng([seed, 1])
        shared = [scenes.points(rng, sizes.points) for _ in range(sizes.point_sets)]
        special = {
            "collinear_points": scenes.points(rng, sizes.points, "collinear"),
            "coincident_points": scenes.points(rng, sizes.points, "coincident"),
        }

        def job(degenerate, points):
            return Job(
                degenerate,
                scenes.hand_eye(rng, sizes.motions, single_axis=degenerate == "single_axis"),
                scenes.pivot(rng, sizes.pivot_poses, pure_translation=degenerate == "pure_translation_pivot"),
                special.get(degenerate, points),
            )

        degenerate = [list(DEGENERATE)[(j // 10) % 3] if j % 10 == 9 else None for j in range(self.pool_len)]
        self.jobs = [job(d, shared[j % sizes.point_sets]) for j, d in enumerate(degenerate)]
        self.defect_jobs = [job(d, None) for d in KNOWN_DEFECTS]

    def known_defects(self) -> dict[str, str | None]:
        """Each known defect's job, run once: the oracle's reason, None once fixed."""
        return {job.degenerate: _check(job, _run(job)) for job in self.defect_jobs}

    def run_op(self, k: int):
        return _run(self.jobs[k])

    def check(self, k: int, out) -> str | None:
        """None when every sub-result matches the oracle, else the reason."""
        return _check(self.jobs[k], out)


def _run(job: Job):
    return _attempt(_hand_eye, job.hand_eye), _attempt(_pivot, job.pivot), _attempt(_register, job.points)


def _check(job: Job, out) -> str | None:
    broken, expected = EXPECTED.get(job.degenerate, (None, None))
    parts = zip(
        ("hand_eye", "pivot", "register"),
        out,
        (_check_hand_eye, _check_pivot, _check_register),
        (job.hand_eye, job.pivot, job.points),
    )
    for name, res, chk, scene in parts:
        if name == broken:
            if not isinstance(res, Exception):
                return f"{name}: returned a result, expected {expected}"
            if expected not in [c.__name__ for c in type(res).__mro__]:
                return f"{name}: raised {type(res).__name__}, expected {expected}"
            continue
        if isinstance(res, Exception):
            return f"{name}: raised {type(res).__name__}: {res}"
        reason = chk(scene, res)
        if reason:
            return f"{name}: {reason}"
    return None


def _attempt(fn, scene):
    try:
        return fn(scene)
    except Exception as exc:  # an op outcome, judged by check()
        return exc


def _poses(rots, trans):
    return [r.Transform(r.RotationMatrix(m), t) for m, t in zip(rots, trans)]


def _hand_eye(s):
    a = r.relative_motions(_poses(s.a_r, s.a_t))
    b = r.relative_motions(_poses(s.b_r, s.b_t))
    est = r.HandEyeCalibrator().fit(a, b)
    return est.transform_, est.predict(a)


def _pivot(s):
    poses = _poses(s.r, s.t)
    est = r.PivotCalibrator().fit(poses)
    return est.tip_offset_, est.pivot_point_, est.predict(poses)


def _register(s):
    est = r.RigidRegistration().fit(s.p, s.q)
    return est.transform_, est.transform(s.p)


def _check_hand_eye(s, res):
    x, pred = res
    reason = s.check_x(x.rotation.m, x.translation)
    if reason:
        return reason
    if len(pred) != len(s.b_rel_r):
        return "wrong number of predicted motions"
    pred_r = np.array([p.rotation.m for p in pred])
    pred_t = np.array([p.translation for p in pred])
    if np.max(g.rot_angles(pred_r, s.b_rel_r)) > 2 * TOL_ROT:
        return "predicted motion rotation off"
    # An error (dR, dt) in X moves a predicted translation by at most about
    # 2 (|dt| + |dR| (|t_B| + 1)) for the unit-scale scenes generated here.
    t_tol = 2 * TOL_T + 2 * TOL_ROT * (np.max(np.linalg.norm(s.b_rel_t, axis=1)) + 1.0)
    if np.max(np.linalg.norm(pred_t - s.b_rel_t, axis=1)) > t_tol:
        return "predicted motion translation off"
    return None


def _check_pivot(s, res):
    tip, pivot, world_tips = res
    reason = s.check(tip, pivot)
    if reason:
        return reason
    world_tips = np.asarray(world_tips)
    if world_tips.shape != s.t.shape or np.max(np.linalg.norm(world_tips - s.pivot, axis=1)) > 2 * TOL_T:
        return "predicted tips off"
    return None


def _check_register(s, res):
    x, moved = res
    reason = s.check(x.rotation.m, x.translation)
    if reason:
        return reason
    moved = np.asarray(moved)
    if moved.shape != s.p.shape or np.max(np.abs(moved - (s.p @ s.r.T + s.t))) > 2 * reg_tol(len(s.p)):
        return "transformed points off"
    return None
