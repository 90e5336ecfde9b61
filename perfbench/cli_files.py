"""cli_files: ``python -m rigid3d.cli`` child processes on generated files.

Ops go round-robin over KINDS, one child at a time: the three solvers on
CSV files, the inline conversions with quaternions typed to 4 decimals as
users paste them, and rejects that must exit 3 or 2. Every child pays
interpreter start, import, CSV parsing, to_transform and report_json.
The two known defects of the CLI are probed once per run, outside the
timed pool: see known_defects().
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import npgeom as g
import scenes
import tracing

LAUNCHER = Path(__file__).with_name("cli_launcher.py")
KINDS = (
    "handeye", "pivot", "register", "convert", "exp", "log", "compose",
    "reject_pivot", "reject_collinear", "reject_malformed",
)
CONVERT_TO = ("matrix4", "quat", "euler-zyx", "rotvec")
TOL = 1e-9  # inline results are closed-form and O(1) in size
POSE_HEADER = "tx,ty,tz,qw,qx,qy,qz"


@dataclass(frozen=True)
class Sizes:
    motions: int = 500
    pivot_poses: int = 1000
    points: int = 20_000
    reject: int = 1000  # poses or points in each reject input
    file_sets: int = 2  # distinct solver inputs; rounds cycle through them
    inline_sets: int = 4  # distinct inline inputs; one per CONVERT_TO target


FULL = Sizes()
TINY = Sizes(motions=8, pivot_poses=12, points=50, reject=20, file_sets=1)


@dataclass
class Case:
    argv: list
    exit: int  # the documented exit code
    check: Callable[[dict], str | None] | None  # oracle for the JSON report


def _pose_rows(rots, trans):
    return [[*t, *g.rot_to_quat(m)] for m, t in zip(rots, trans)]


def _typed(values, fmt: str = ".4f") -> str:
    return ",".join(f"{v:{fmt}}" for v in values)


def _doc_pose(pose: dict):
    q = np.array([pose["qw"], pose["qx"], pose["qy"], pose["qz"]])
    return g.quat_to_rot(q), np.array([pose["tx"], pose["ty"], pose["tz"]]), q


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= TOL


def _solver_check(scene_check, count: int, key: str):
    def check(doc):
        res = doc["result"]
        if key == "pose":
            r, t, _ = _doc_pose(res["pose"])
            reason = scene_check(r, t)
        else:
            reason = scene_check(res["tip_offset"], res["pivot_point"])
        if reason is None and doc["residuals"]["count"] != count:
            return "wrong residual count"
        return reason

    return check


def _pose_check(r_want, t_want):
    def check(doc):
        r, t, q = _doc_pose(doc["result"]["pose"])
        if q[0] < 0.0 or not (_close(r, r_want) and _close(t, t_want)):
            return "pose off"
        return None

    return check


def _convert_check(to: str, r_want, t_want, q_want):
    def check(doc):
        res = doc["result"]
        if to == "matrix4":
            ok = _close(res["matrix4"], g.matrix4(r_want, t_want))
        elif to == "quat":
            p = res["pose"]
            ok = _close([p["qw"], p["qx"], p["qy"], p["qz"]], q_want) and _close([p["tx"], p["ty"], p["tz"]], t_want)
        elif to == "euler-zyx":
            e = res["euler_zyx"]
            ok = _close(g.euler_zyx_to_rot(e["roll"], e["pitch"], e["yaw"]), r_want) and _close(res["translation"], t_want)
        else:
            ok = _close(res["rotvec"], g.rotvec_from_quat(q_want)) and _close(res["translation"], t_want)
        return None if ok else f"{to} off"

    return check


class CliFiles:
    round_len = len(KINDS)

    def __init__(self, seed: int, workdir: Path, env: dict, sizes: Sizes = FULL):
        self.env = env
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None  # set while tracing
        self.child_spans: list[tracing.Spans] = []
        self.import_ms: list[float] = []
        self._first_stdout: dict[int, bytes] = {}
        rng = np.random.default_rng([seed, 3])
        files = [self._solver_cases(rng, fs, sizes) for fs in range(sizes.file_sets)]
        rejects = self._reject_cases(rng, sizes)
        self.cases = []
        for s in range(sizes.inline_sets):
            self.cases += files[s % sizes.file_sets] + self._inline_cases(rng, CONVERT_TO[s % len(CONVERT_TO)]) + rejects
        self.pool_len = len(self.cases)
        self.defect_cases = self._defect_cases(rng, sizes)

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _solver_cases(self, rng, fs, sizes):
        he = scenes.hand_eye(rng, sizes.motions)
        pv = scenes.pivot(rng, sizes.pivot_poses)
        pts = scenes.points(rng, sizes.points)
        a, b, piv, src, dst = (self._path(f"{n}_{fs}.csv") for n in ("handeye_a", "handeye_b", "pivot", "source", "target"))
        g.write_csv(a, POSE_HEADER, _pose_rows(he.a_r, he.a_t))
        g.write_csv(b, POSE_HEADER, _pose_rows(he.b_r, he.b_t))
        g.write_csv(piv, POSE_HEADER, _pose_rows(pv.r, pv.t))
        g.write_csv(src, "x,y,z", pts.p)
        g.write_csv(dst, "x,y,z", pts.q)
        return [
            Case(["handeye", a, b], 0, _solver_check(he.check_x, sizes.motions, "pose")),
            Case(["pivot", piv], 0, _solver_check(pv.check, sizes.pivot_poses, "tip")),
            Case(["register", src, dst], 0, _solver_check(pts.check, sizes.points, "pose")),
        ]

    def _inline_cases(self, rng, to):
        typed_pose = _typed_poser(rng)
        text, r, t, q, _ = typed_pose()
        convert = Case(["convert", f"--pose={text}", "--to", to], 0, _convert_check(to, r, t, q))

        xi = np.concatenate([rng.uniform(-1.0, 1.0, 3), g.random_rotvecs(rng, 1, 0.1, 2.8)[0]])
        text_xi = _typed(xi)
        xi = np.array([float(v) for v in text_xi.split(",")])
        m = g.se3_exp(xi)
        exp = Case(["exp", f"--twist={text_xi}"], 0, _pose_check(m[:3, :3], m[:3, 3]))

        text, r, t, q, _ = typed_pose()
        want = g.se3_log_from(g.rotvec_from_quat(q), t)
        log = Case(["log", f"--pose={text}"], 0, lambda doc, want=want: None if _close(doc["result"]["twist"], want) else "twist off")

        # Poses printed at full precision, as the other commands print them;
        # the 4-decimal chain is a known defect, probed in _defect_cases.
        compose = _compose_case([typed_pose(".17g") for _ in range(3)])
        return [convert, exp, log, compose]

    def _reject_cases(self, rng, sizes):
        n = sizes.reject
        pv = scenes.pivot(rng, n, pure_translation=True)
        line = scenes.points(rng, n, "collinear")
        good = scenes.pivot(rng, n)
        rows = _pose_rows(good.r, good.t)
        rows[n // 2] = rows[n // 2][:6]  # one line with a missing field
        paths = [self._path(f"{name}.csv") for name in ("pivot_pure_translation", "line_src", "line_dst", "pivot_malformed")]
        g.write_csv(paths[0], POSE_HEADER, _pose_rows(pv.r, pv.t))
        g.write_csv(paths[1], "x,y,z", line.p)
        g.write_csv(paths[2], "x,y,z", line.q)
        g.write_csv(paths[3], POSE_HEADER, rows)
        return [
            Case(["pivot", paths[0]], 3, None),
            Case(["register", paths[1], paths[2]], 3, None),
            Case(["pivot", paths[3]], 2, None),
        ]

    def _defect_cases(self, rng, sizes) -> dict[str, Case]:
        """Inputs on which the CLI is known to fail; the timed pool holds none."""
        dot = scenes.points(rng, sizes.reject, "coincident")
        src, dst = self._path("dot_src.csv"), self._path("dot_dst.csv")
        g.write_csv(src, "x,y,z", dot.p)
        g.write_csv(dst, "x,y,z", dot.q)
        # Inline compose applies the strict 1e-6 quaternion check, where every
        # other entry point renormalizes drift up to 1e-3.
        typed_pose = _typed_poser(rng)
        chain = [typed_pose() for _ in range(3)]
        while not any(1e-6 < d <= 1e-3 for *_, d in chain):
            chain = [typed_pose() for _ in range(3)]
        return {
            # register_point_sets returns a rotation for coincident points.
            "cli_coincident_points": Case(["register", src, dst], 3, None),
            "cli_compose_4_decimals": _compose_case(chain),
        }

    def known_defects(self) -> dict[str, str | None]:
        """Each known defect's input, run once: the oracle's reason, None once fixed."""
        return {name: _check(case, self._run(case.argv)) for name, case in self.defect_cases.items()}

    def run_op(self, k: int):
        return self._run(self.cases[k].argv)

    def _run(self, argv: list):
        spans_path = self.workdir / "spans.npz"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "rigid3d.cli", *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(spans_path), *argv]
            spans_path.unlink(missing_ok=True)
        # No timeout: with one, subprocess polls for the exit with sleeps of up to 50 ms.
        proc = subprocess.run(cmd, capture_output=True, env=self.env)
        if self.tracer is not None and spans_path.exists():
            spans, extra = tracing.Spans.load(spans_path)
            spans.op[:] = self.tracer.op
            self.child_spans.append(spans)
            self.import_ms.append(float(extra["import_ns"]) / 1e6)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, k: int, out) -> str | None:
        case = self.cases[k]
        if out[0] == case.exit == 0 and out[1] != self._first_stdout.setdefault(k, out[1]):
            return "stdout differs from the first run on the same input"
        return _check(case, out)

    def layer_extras(self) -> dict[str, float]:
        """Per-op CLI stage times from the traced children."""
        stages = np.array([tracing.cli_stages(s) for s in self.child_spans]) if self.child_spans else np.zeros((1, 3))
        return {
            "cli.import_ms": float(np.median(self.import_ms)) if self.import_ms else 0.0,
            "cli.parse_ms": float(stages[:, 0].mean()),
            "cli.solve_ms": float(stages[:, 1].mean()),
            "cli.serialize_ms": float(stages[:, 2].mean()),
        }


def _typed_poser(rng):
    """A pose generator: its text as typed, rotation, translation, unit quaternion, norm drift."""

    def typed_pose(fmt: str = ".4f"):
        t = rng.uniform(-1.0, 1.0, 3)
        q = g.quat_from_rotvec(g.random_rotvecs(rng, 1, 0.1, 2.8)[0])
        text = _typed([*t, *q], fmt)
        vals = np.array([float(v) for v in text.split(",")])
        qn = vals[3:] / np.linalg.norm(vals[3:])
        return text, g.quat_to_rot(qn), vals[:3], qn, abs(np.linalg.norm(vals[3:]) - 1.0)

    return typed_pose


def _compose_case(chain) -> Case:
    prod = np.eye(4)
    for _, r, t, _, _ in chain:
        prod = prod @ g.matrix4(r, t)
    return Case(["compose", "--", *(c[0] for c in chain)], 0, _pose_check(prod[:3, :3], prod[:3, 3]))


def _check(case: Case, out) -> str | None:
    code, stdout, stderr = out
    if code != case.exit:
        return f"exit {code}, expected {case.exit}: {stderr.decode(errors='replace').strip()[:200]}"
    if case.exit != 0:
        return "output on a failure path" if stdout else None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return case.check(doc)
