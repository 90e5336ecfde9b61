"""The pose and point text formats, read and written; relative motions and reports.

Pose files: ``tx,ty,tz,qw,qx,qy,qz`` (scalar-first quaternion), one pose
per line, '#' comments, optional exact header line. A quaternion whose
norm is off 1 by more than QUAT_REJECT_TOL is rejected, smaller drift is
renormalized. Point files carry ``x,y,z`` with the same comment/header
rules. parse_pose_csv gives a list of Transforms and parse_points_csv an
(n, 3) array; the serializers take the same types back. This module also
reads the CLI's ``--pose`` text, so both entry points share one gate.

Both parsers read a seekable stream whole where they can (_whole) and
otherwise line by line, with the same values and errors: the whole read
hands every text it refuses to the per-line path.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Iterable

from . import _numpy as np
from .errors import NonUnitQuaternion, ParseError, TooFewPoses
from .se3 import Transform, _build_transforms, _compose_stack, _inverse_stack, _stack_transforms, _transform
from .so3 import (
    UnitQuaternion,
    _as,
    _overflow_ignored,
    _quat_elements,
    _quat_norm,
    _quat_sq,
    _repair_stack,
    matrix_to_quat,
    quat_to_matrix,
)
from .validation import check_matrix

POSE_HEADER = "tx,ty,tz,qw,qx,qy,qz"
POINT_HEADER = "x,y,z"
QUAT_REJECT_TOL = 1e-3
_NUMERIC = b"0123456789eE+-."  # the characters of a field that the whole read takes


def _data_lines(stream, header: str):
    """Yield (line_number, stripped_text) skipping comments, blanks, header; _as names a non-iterable stream or non-str line."""
    for lineno, raw in enumerate(_as(Iterable, stream, "stream"), start=1):
        line = _as(str, raw, f"line {lineno}").strip()
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
    poses = _whole(stream, POSE_HEADER, 7, _poses)
    return _pose_lines(stream) if poses is None else poses


def _pose_lines(stream) -> list[Transform]:
    """parse_pose_csv line by line, with no NumPy: the CLI's single-pose and compose reads, and every pose error."""
    lines = _data_lines(stream, POSE_HEADER)
    return [_pose_from_fields(_parse_floats(lineno, line, 7), lineno) for lineno, line in lines]


def parse_points_csv(stream) -> np.ndarray:
    """Parse points into an (n, 3) array; an empty file gives shape (0, 3)."""
    points = _whole(stream, POINT_HEADER, 3, lambda rows: rows)
    if points is None:
        rows = [_parse_floats(lineno, line, 3) for lineno, line in _data_lines(stream, POINT_HEADER)]
        points = np.array(rows, dtype=float).reshape(-1, 3)
    return points


def _whole(stream, header: str, count: int, convert):
    """convert of the rows of a seekable stream read whole (_rows), or None with the stream back at its start.

    convert refuses rows by returning None too, and an undecodable text is
    refused: read line by line, an error before the bad bytes comes first.
    """
    try:
        start = stream.tell() if stream.seekable() else None
    except (AttributeError, OSError):  # an iterable of lines, or a file part-read with next()
        start = None
    if start is None:
        return None
    try:
        rows = _rows(stream.read(), header, count)
    except UnicodeDecodeError:
        rows = None
    found = None if rows is None else convert(rows)
    if found is None:
        stream.seek(start)
    return found


def _rows(text: str, header: str, count: int):
    """The data rows of a pose or point text as an (n, count) float64 array; None where the per-line path must read it.

    NumPy loads only for a text that passes a pure-Python scan: the exact
    header or none, then n >= 1 lines of count fields of _NUMERIC
    characters. np.loadtxt then reads each field as float() does; a field
    it rejects or a non-finite value gives None.
    """
    if not (isinstance(text, str) and text.isascii()):  # a binary stream gets the per-line path's Rigid3dError
        return None
    data = text.encode("ascii")
    skip = data.startswith(f"{header}\n".encode())
    # what is left of each line without its numeric characters; the header holds none, so it is left whole
    skeleton = data.translate(None, _NUMERIC)[len(header) + 1 if skip else 0 :]
    if not skeleton.endswith(b"\n"):
        skeleton += b"\n"
    if skeleton != (b"," * (count - 1) + b"\n") * skeleton.count(b"\n"):  # an empty body is b"\n" here, and refused
        return None
    try:
        rows = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, skiprows=int(skip), ndmin=2, encoding="ascii")
    except ValueError:
        return None
    return rows if np.count_nonzero(np.isfinite(rows)) == rows.size else None


@_overflow_ignored  # a norm that overflows is inf: that row goes to the per-line path, which names it
def _poses(rows) -> list[Transform] | None:
    """_pose_from_fields of each (n, 7) pose row, on the rows; None where a norm is off 1 beyond QUAT_REJECT_TOL.

    Both normalizations, _pose_from_fields' and UnitQuaternion's, and
    quat_to_matrix's elements run in their order on the columns, so each
    Transform is the per-line one bit for bit. UnitQuaternion's QUAT_TOL gate
    cannot fail: the first norm is within QUAT_REJECT_TOL of 1.
    """
    q = rows.T[3:]
    norm = np.sqrt(_quat_sq(*q))
    if not np.all(np.abs(norm - 1.0) <= QUAT_REJECT_TOL):  # tested before dividing: a norm may be 0
        return None
    q = [c / norm for c in q]
    unit = np.sqrt(_quat_sq(*q))
    return _build_transforms(_repair_stack(_quat_elements(*(c / unit for c in q))), rows.T[:3])


def serialize_pose_csv(poses) -> str:
    items = enumerate(_as(Iterable, poses, "poses"))
    return _csv(POSE_HEADER, (_pose_fields(_as(Transform, t, f"item {i}")).values() for i, t in items))


def serialize_points_csv(points) -> str:
    return _csv(POINT_HEADER, check_matrix(points, (None, 3), "points"))


def _csv(header: str, rows) -> str:
    """Header plus one line per row, at 17 significant digits: lossless for IEEE doubles, deterministic."""
    return "\n".join([header, *(",".join(format(float(v), ".17g") for v in row) for row in rows)]) + "\n"


@_overflow_ignored  # an overflow is rejected by _build_transforms' translation check
def relative_motions(poses) -> list[Transform]:
    """Consecutive relative motions T_i^-1 T_{i+1} of an absolute pose stream; an overflow raises Rigid3dError."""
    rs, ts = _stack_transforms(poses, "poses")
    if rs.shape[1] < 2:
        raise TooFewPoses("need at least 2 poses to form relative motions")
    inv_r, inv_t = _inverse_stack(rs[:, :-1], ts[:, :-1])
    return _build_transforms(*_compose_stack(inv_r, inv_t, rs[:, 1:], ts[:, 1:]))


def report_json(tool_version: str, command: str, result: dict, residuals: dict | None) -> str:
    """Deterministic report document: fixed field order, lossless floats.

    json.dumps writes each float as its repr, the shortest text that reads
    back to the same double, so no rounding step is needed.
    """
    doc = {"tool_version": tool_version, "command": command, "result": result, "residuals": residuals}
    return json.dumps(doc, indent=2) + "\n"
