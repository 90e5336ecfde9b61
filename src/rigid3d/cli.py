"""Batch CLI: conversions, exp/log, and the three calibration solvers.

JSON reports go to stdout, human-readable summaries and errors to
stderr. Exit codes: 0 ok, 1 usage error, 2 parse/data error,
3 degenerate geometry.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import __version__
from . import _numpy as np
from .calibration import hand_eye_calibrate, pivot_calibrate, register_point_sets
from .errors import (
    DegenerateGeometry,
    DegenerateMatrix,
    DegenerateMotion,
    NonUnitQuaternion,
    ParseError,
    Rigid3dError,
)
from .pose_io import _pose_fields, _pose_from_fields, _pose_lines, parse_points_csv, parse_pose_csv, relative_motions, report_json
from .se3 import Transform, _matrix4, _transform, _twist, compose, se3_exp, se3_log
from .so3 import EulerConvention, UnitQuaternion, _log, matrix_to_euler, quat_to_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-" then a digit or "." starts a value such as -1,2,3,1,0,0,0: no rigid3d option starts that way
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _pose_source(p: _Parser) -> _Parser:
    p.add_argument("--pose", help="inline pose tx,ty,tz,qw,qx,qy,qz")
    p.add_argument("--input", help="pose CSV file (first pose is used)")
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="rigid3d", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _pose_source(sub.add_parser("convert", help="print one pose in another representation"))
    p.add_argument("--to", required=True, choices=["matrix4", "quat", "euler-zyx", "rotvec"])
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("compose", help="chain poses from flags and/or files")
    p.add_argument("inputs", nargs="+", help="inline pose tuples or pose CSV files, composed left to right")
    p.set_defaults(run=_cmd_compose)

    p = sub.add_parser("exp", help="exponential map of a twist")
    p.add_argument("--twist", required=True, help="v1,v2,v3,w1,w2,w3")
    p.set_defaults(run=_cmd_exp)

    p = _pose_source(sub.add_parser("log", help="logarithm map of a pose"))
    p.set_defaults(run=_cmd_log)

    p = sub.add_parser("register", help="rigid point-set registration (index-paired CSVs)")
    p.add_argument("source", help="source point CSV")
    p.add_argument("target", help="target point CSV")
    p.set_defaults(run=_cmd_register)

    p = sub.add_parser("pivot", help="pivot calibration from a pose CSV")
    p.add_argument("poses", help="pose CSV")
    p.set_defaults(run=_cmd_pivot)

    p = sub.add_parser("handeye", help="hand-eye AX=XB from two absolute pose streams")
    p.add_argument("stream_a", help="pose CSV for frame A")
    p.add_argument("stream_b", help="pose CSV for frame B")
    p.set_defaults(run=_cmd_handeye)
    return parser


def _inline_floats(text: str, count: int, what: str):
    fields = text.split(",")
    if len(fields) != count:
        raise UsageError(f"{what} needs {count} comma-separated numbers, got {len(fields)}")
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{what} contains non-finite values")
    return values


def _read(path: str, parse):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(0, f"cannot read {path}: not UTF-8 text") from None


def _load_poses(path: str, parse=parse_pose_csv) -> list[Transform]:
    """The poses of a file: read whole for the solvers, or line by line with no NumPy (parse=_pose_lines)."""
    return _read(path, parse)


def _load_points(path: str) -> np.ndarray:
    return _read(path, parse_points_csv)


def _single_pose(args) -> Transform:
    if (args.pose is None) == (args.input is None):
        raise UsageError("give exactly one of --pose or --input")
    if args.pose is not None:
        vals = _inline_floats(args.pose, 7, "--pose")
        try:
            return _pose_from_fields(vals)
        except NonUnitQuaternion:
            raise UsageError("--pose quaternion is not unit norm") from None
    poses = _load_poses(args.input, _pose_lines)
    if not poses:
        raise ParseError(0, f"{args.input} contains no poses")
    return poses[0]


def _residuals(rms: float, errs: np.ndarray) -> dict:
    return {"rms": rms, "max": float(errs.max()), "count": int(errs.size)}


def _cmd_convert(args):
    t = _single_pose(args)
    if args.to == "matrix4":
        result = {"matrix4": _matrix4(t)}
    elif args.to == "quat":
        result = {"pose": _pose_fields(t)}
    elif args.to == "euler-zyx":
        euler, locked = matrix_to_euler(t.rotation, EulerConvention.ZYX_INTRINSIC)
        roll, pitch, yaw = euler._a
        result = {"euler_zyx": {"roll": roll, "pitch": pitch, "yaw": yaw}, "gimbal_lock": locked, "translation": t._t}
    else:
        result = {"rotvec": _log(t.rotation._e), "translation": t._t}
    return result, None, f"converted pose to {args.to}"


def _cmd_compose(args):
    acc = None
    for item in args.inputs:
        if "," in item and not os.path.exists(item):
            # straight to UnitQuaternion: its value gate QUAT_TOL, not the pose files' repair gate (ROADMAP item 2)
            vals = _inline_floats(item, 7, "inline pose")
            poses = [_transform(quat_to_matrix(UnitQuaternion(*vals[3:])), vals[:3])]
        else:
            poses = _load_poses(item, _pose_lines)
            if not poses:
                raise ParseError(0, f"{item} contains no poses")
        for pose in poses:
            acc = pose if acc is None else compose(acc, pose)
    return {"pose": _pose_fields(acc)}, None, f"composed {len(args.inputs)} input(s)"


def _cmd_exp(args):
    vals = _inline_floats(args.twist, 6, "--twist")
    t = se3_exp(_twist(vals[:3], vals[3:]))
    return {"pose": _pose_fields(t)}, None, "exponential map applied"


def _cmd_log(args):
    t = _single_pose(args)
    xi = se3_log(t)
    return {"twist": xi._v + xi._w}, None, "logarithm map applied"


def _cmd_register(args):
    p = _load_points(args.source)
    q = _load_points(args.target)
    res = register_point_sets(p, q)
    return (
        {"pose": _pose_fields(res.transform)},
        _residuals(res.rms_error, res.per_point_residuals),
        f"registered {p.shape[0]} point pairs, rms {res.rms_error:.6g}",
    )


def _cmd_pivot(args):
    poses = _load_poses(args.poses)
    res = pivot_calibrate(poses)
    result = {"tip_offset": res.tip_offset.tolist(), "pivot_point": res.pivot_point.tolist()}
    return (
        result,
        _residuals(res.rms_error, res.per_pose_residuals),
        f"pivot calibration over {len(poses)} poses, rms {res.rms_error:.6g}",
    )


def _cmd_handeye(args):
    a_motions = relative_motions(_load_poses(args.stream_a))
    b_motions = relative_motions(_load_poses(args.stream_b))
    res = hand_eye_calibrate(a_motions, b_motions)
    result = {"pose": _pose_fields(res.x), "rotation_rms_rad": res.rotation_rms}
    return (
        result,
        _residuals(res.translation_rms, res.per_motion_translation_residuals),
        f"hand-eye over {len(a_motions)} motions, rot rms {res.rotation_rms:.6g} rad",
    )


def run_cli(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        result, residuals, summary = args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return EXIT_USAGE
    except (DegenerateGeometry, DegenerateMotion, DegenerateMatrix) as exc:
        print(f"degenerate geometry: {exc}", file=stderr)
        return EXIT_DEGENERATE
    except Rigid3dError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_DATA
    stdout.write(report_json(__version__, args.subcommand, result, residuals))
    print(summary, file=stderr)
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
