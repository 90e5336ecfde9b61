"""pose_stream: an odometry-style loop of scalar pose steps.

One op is one step: quaternion -> Transform, compose into an accumulator
(reset at the start of every segment), inverse, se3_log / se3_exp,
matrix_to_quat, matrix_to_euler, adjoint_apply_twist and transform_point,
all on batch shape (). Fixed shares of the step angles are below 1e-8 rad
or within 1e-4 of pi, so every branch of so3_log runs.
"""

from __future__ import annotations

import math

import numpy as np

import npgeom as g
import rigid3d as r

TOL = 1e-9  # relative to the magnitude of the compared values


class PoseStream:
    pool_len = 2048
    round_len = 64  # one segment: the accumulator restarts at its first step

    def __init__(self, seed: int, pool_len: int | None = None):
        if pool_len is not None:
            self.pool_len = pool_len
        rng = np.random.default_rng([seed, 2])
        n = self.pool_len
        kind = np.arange(n) % 10
        angles = np.where(
            kind == 3,
            rng.uniform(1e-10, 9e-9, n),
            np.where(kind == 7, math.pi - rng.uniform(1e-7, 9e-5, n), rng.uniform(0.05, 3.0, n)),
        )
        rotvecs = g.random_unit_vectors(rng, n) * angles[:, None]
        trans = rng.uniform(-1.0, 1.0, (n, 3))
        twists = rng.normal(0.0, 1.0, (n, 6))
        points = rng.uniform(-1.0, 1.0, (n, 3))
        quats = np.array([g.quat_from_rotvec(w) for w in rotvecs])
        # Inputs as a caller would hold them: plain floats and arrays.
        self.inputs = [
            (tuple(float(c) for c in q), t, xi[:3], xi[3:], p)
            for q, t, xi, p in zip(quats, trans, twists, points)
        ]
        self.expected = []
        acc = None
        for i in range(n):
            rot = g.quat_to_rot(quats[i])
            pose = g.matrix4(rot, trans[i])
            acc = pose if i % self.round_len == 0 else acc @ pose
            rv, rw = rot @ twists[i, :3], rot @ twists[i, 3:]
            self.expected.append(
                {
                    "rot": rot,
                    "acc": acc,
                    "inv": g.inv4(pose),
                    "log": g.se3_log_from(rotvecs[i], trans[i]),
                    "exp": pose,
                    "quat": quats[i],
                    "adjoint": np.concatenate([rv + np.cross(trans[i], rw), rw]),
                    "point": acc[:3, :3] @ points[i] + acc[:3, 3],
                }
            )
        self._acc = None

    def known_defects(self) -> dict[str, str | None]:
        return {}

    def run_op(self, k: int):
        q, t, xi_v, xi_w, p = self.inputs[k]
        try:
            pose = r.Transform(r.quat_to_matrix(r.UnitQuaternion(*q)), t)
            acc = pose if k % self.round_len == 0 else r.compose(self._acc, pose)
            self._acc = acc
            inv = r.inverse(pose)
            log = r.se3_log(pose)
            back = r.se3_exp(log)
            quat = r.matrix_to_quat(pose.rotation)
            euler, _ = r.matrix_to_euler(pose.rotation)
            moved = r.adjoint_apply_twist(pose, r.Twist(xi_v, xi_w))
            point = r.transform_point(acc, p)
        except Exception as exc:  # an op outcome, judged by check()
            self._acc = None
            return exc
        return acc, inv, log, back, quat, euler, moved, point

    def check(self, k: int, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        acc, inv, log, back, quat, euler, moved, point = out
        e = self.expected[k]
        got = {
            "acc": g.matrix4(acc.rotation.m, acc.translation),
            "inv": g.matrix4(inv.rotation.m, inv.translation),
            "log": np.concatenate([log.v, log.w]),
            "exp": g.matrix4(back.rotation.m, back.translation),
            "quat": np.array([quat.w, quat.x, quat.y, quat.z]),
            "adjoint": np.concatenate([moved.v, moved.w]),
            "point": np.asarray(point),
        }
        for name, value in got.items():
            want = e[name]
            if value.shape != want.shape or np.max(np.abs(value - want)) > TOL * (1.0 + np.max(np.abs(want))):
                return f"{name} off"
        roll, pitch, yaw = euler.angles
        if np.max(np.abs(g.euler_zyx_to_rot(roll, pitch, yaw) - e["rot"])) > TOL:
            return "euler angles off"
        return None
