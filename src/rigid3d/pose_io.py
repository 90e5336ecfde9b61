"""CSV parsing/serialization for pose and point datasets, plus reports.

Pose files: ``tx,ty,tz,qw,qx,qy,qz`` (scalar-first quaternion), one pose
per line, '#' comments, optional exact header line. Point files carry
``x,y,z`` with the same comment/header rules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import NonUnitQuaternion, ParseError, TooFewPoses
from .se3 import Transform, _build_transforms, _compose_stack, _inverse_stack, _stack_transforms
from .so3 import UnitQuaternion, matrix_to_quat, quat_to_matrix

POSE_HEADER = "tx,ty,tz,qw,qx,qy,qz"
POINT_HEADER = "x,y,z"
QUAT_REJECT_TOL = 1e-3


@dataclass(frozen=True)
class PoseRecord:
    tx: float
    ty: float
    tz: float
    qw: float
    qx: float
    qy: float
    qz: float

    def to_transform(self) -> Transform:
        q = UnitQuaternion(self.qw, self.qx, self.qy, self.qz)
        return Transform(quat_to_matrix(q), (self.tx, self.ty, self.tz))

    @staticmethod
    def from_transform(t: Transform) -> "PoseRecord":
        q = matrix_to_quat(t.rotation)
        tx, ty, tz = t.translation
        return PoseRecord(tx, ty, tz, q.w, q.x, q.y, q.z)


@dataclass(frozen=True)
class PointRecord:
    x: float
    y: float
    z: float


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


def parse_pose_csv(stream) -> list[PoseRecord]:
    """Parse poses; quaternions are renormalized, gross errors rejected."""
    records = []
    for lineno, line in _data_lines(stream, POSE_HEADER):
        tx, ty, tz, qw, qx, qy, qz = _parse_floats(lineno, line, 7)
        norm = math.sqrt(qw**2 + qx**2 + qy**2 + qz**2)
        if abs(norm - 1.0) > QUAT_REJECT_TOL:
            raise NonUnitQuaternion(lineno, norm)
        records.append(PoseRecord(tx, ty, tz, qw / norm, qx / norm, qy / norm, qz / norm))
    return records


def parse_points_csv(stream) -> list[PointRecord]:
    records = []
    for lineno, line in _data_lines(stream, POINT_HEADER):
        x, y, z = _parse_floats(lineno, line, 3)
        records.append(PointRecord(x, y, z))
    return records


def serialize_pose_csv(records) -> str:
    lines = [POSE_HEADER]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (r.tx, r.ty, r.tz, r.qw, r.qx, r.qy, r.qz)))
    return "\n".join(lines) + "\n"


def serialize_points_csv(records) -> str:
    lines = [POINT_HEADER]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (r.x, r.y, r.z)))
    return "\n".join(lines) + "\n"


def relative_motions(poses) -> list[Transform]:
    """Consecutive relative motions T_i^-1 T_{i+1} of an absolute pose stream."""
    poses = list(poses)
    if len(poses) < 2:
        raise TooFewPoses("need at least 2 poses to form relative motions")
    rs, ts = _stack_transforms(poses)
    inv_r, inv_t = _inverse_stack(rs[:-1], ts[:-1])
    return _build_transforms(*_compose_stack(inv_r, inv_t, rs[1:], ts[1:]))


def _fmt(x: float) -> str:
    """17 significant digits: lossless for IEEE doubles, deterministic."""
    return format(float(x), ".17g")


def _round17(obj):
    """Round-trip floats through 17-significant-digit text before dumping."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round17(v) for v in obj]
    return obj


def report_json(tool_version: str, command: str, result: dict, residuals: dict | None) -> str:
    """Deterministic report document: fixed field order, lossless floats."""
    doc = {
        "tool_version": tool_version,
        "command": command,
        "result": _round17(result),
        "residuals": _round17(residuals) if residuals is not None else None,
    }
    return json.dumps(doc, indent=2) + "\n"
