"""The pose and point text formats, read and written; relative motions and reports.

Pose files: ``tx,ty,tz,qw,qx,qy,qz`` (scalar-first quaternion), one pose
per line, '#' comments, optional exact header line. A quaternion whose
norm is off 1 by more than QUAT_REJECT_TOL is rejected, smaller drift is
renormalized. Point files carry ``x,y,z`` with the same comment/header
rules. parse_pose_csv gives a list of Transforms and parse_points_csv an
(n, 3) array; the serializers take the same types back. This module also
reads the CLI's ``--pose`` text, so both entry points share one gate.
"""

from __future__ import annotations

import json
import math

from . import _numpy as np
from .errors import NonUnitQuaternion, ParseError, TooFewPoses
from .se3 import Transform, _build_transforms, _compose_stack, _inverse_stack, _stack_transforms, _transform
from .so3 import UnitQuaternion, _quat_norm, matrix_to_quat, quat_to_matrix
from .validation import check_matrix

POSE_HEADER = "tx,ty,tz,qw,qx,qy,qz"
POINT_HEADER = "x,y,z"
QUAT_REJECT_TOL = 1e-3


def _data_lines(stream, header: str):
    """Yield (line_number, stripped_text) skipping comments, blanks, header."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.replace(" ", "") == header:
            continue
        yield lineno, line


def _parse_floats(lineno: int, line: str, count: int):
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != count:
        raise ParseError(lineno, f"expected {count} fields, got {len(fields)}")
    values = []
    for f in fields:
        try:
            x = float(f)
        except ValueError:
            raise ParseError(lineno, f"non-numeric token {f!r}") from None
        if not math.isfinite(x):
            raise ParseError(lineno, f"non-finite value {f!r}")
        values.append(x)
    return values


def _pose_from_fields(values, lineno: int = 0) -> Transform:
    """Transform of the seven pose fields, given as floats, with the quaternion renormalized.

    A norm off 1 by more than QUAT_REJECT_TOL raises NonUnitQuaternion at lineno.
    """
    tx, ty, tz, qw, qx, qy, qz = values
    norm = _quat_norm(qw, qx, qy, qz)
    if abs(norm - 1.0) > QUAT_REJECT_TOL:
        raise NonUnitQuaternion(lineno, norm)
    return _transform(quat_to_matrix(UnitQuaternion(qw / norm, qx / norm, qy / norm, qz / norm)), [tx, ty, tz])


def _pose_fields(t: Transform) -> dict:
    """The seven pose fields of a Transform, keyed and ordered as POSE_HEADER."""
    q = matrix_to_quat(t.rotation)
    tx, ty, tz = t._t
    return dict(zip(POSE_HEADER.split(","), (tx, ty, tz, q.w, q.x, q.y, q.z)))


def parse_pose_csv(stream) -> list[Transform]:
    """Parse poses; quaternions are renormalized, gross errors rejected."""
    lines = _data_lines(stream, POSE_HEADER)
    return [_pose_from_fields(_parse_floats(lineno, line, 7), lineno) for lineno, line in lines]


def parse_points_csv(stream) -> np.ndarray:
    """Parse points into an (n, 3) array; an empty file gives shape (0, 3)."""
    rows = [_parse_floats(lineno, line, 3) for lineno, line in _data_lines(stream, POINT_HEADER)]
    return np.array(rows, dtype=float).reshape(-1, 3)


def serialize_pose_csv(poses) -> str:
    return _csv(POSE_HEADER, (_pose_fields(t).values() for t in poses))


def serialize_points_csv(points) -> str:
    return _csv(POINT_HEADER, check_matrix(points, (None, 3), "points"))


def _csv(header: str, rows) -> str:
    """Header plus one line per row, at 17 significant digits: lossless for IEEE doubles, deterministic."""
    return "\n".join([header, *(",".join(format(float(v), ".17g") for v in row) for row in rows)]) + "\n"


def relative_motions(poses) -> list[Transform]:
    """Consecutive relative motions T_i^-1 T_{i+1} of an absolute pose stream."""
    poses = list(poses)
    if len(poses) < 2:
        raise TooFewPoses("need at least 2 poses to form relative motions")
    rs, ts = _stack_transforms(poses)
    inv_r, inv_t = _inverse_stack(rs[:-1], ts[:-1])
    return _build_transforms(*_compose_stack(inv_r, inv_t, rs[1:], ts[1:]))


def report_json(tool_version: str, command: str, result: dict, residuals: dict | None) -> str:
    """Deterministic report document: fixed field order, lossless floats.

    json.dumps writes each float as its repr, the shortest text that reads
    back to the same double, so no rounding step is needed.
    """
    doc = {"tool_version": tool_version, "command": command, "result": result, "residuals": residuals}
    return json.dumps(doc, indent=2) + "\n"
