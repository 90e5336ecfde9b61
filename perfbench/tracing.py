"""Spans around calls into rigid3d, recorded from outside the library.

A Tracer replaces each traced function with a wrapper in every rigid3d
module that holds it: the defining module and each module that imported
the name (cli imports parse_pose_csv, calibration imports so3_log, and so
on). Methods are wrapped on their class. Each span records its name,
start, end, parent span and op id; spans stay in memory and are written
out when the run ends. Names missing from the library are skipped, so the
tracer works on any commit that keeps the public API.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (module, function) -> span name. Span names are "<layer>.<what>". The list
# holds the public functions the three workloads reach.
FUNCTIONS = {
    ("rigid3d.validation", "check_vector"): "validation.check",
    ("rigid3d.validation", "check_matrix"): "validation.check",
    ("rigid3d.validation", "check_points"): "validation.check",
    ("rigid3d.validation", "freeze"): "validation.freeze",
    **{("rigid3d.so3", f): f"so3.{f}" for f in (
        "so3_exp", "so3_log", "matrix_to_quat", "quat_to_matrix", "matrix_to_euler",
        "orthonormalize", "geodesic_distance", "hat3")},
    **{("rigid3d.se3", f): f"se3.{f}" for f in (
        "compose", "inverse", "se3_exp", "se3_log", "adjoint_apply_twist", "transform_point", "to_matrix4")},
    **{("rigid3d.calibration", f): f"calibration.{f}" for f in (
        "register_point_sets", "pivot_calibrate", "hand_eye_calibrate")},
    ("rigid3d.pose_io", "parse_pose_csv"): "pose_io.parse",
    ("rigid3d.pose_io", "parse_points_csv"): "pose_io.parse",
    ("rigid3d.pose_io", "relative_motions"): "pose_io.relative_motions",
    ("rigid3d.pose_io", "report_json"): "pose_io.report_json",
    ("rigid3d.cli", "run_cli"): "cli.run",
    # The CLI's own input helpers: their time belongs to the parse stage.
    ("rigid3d.cli", "_load_poses"): "cli.load",
    ("rigid3d.cli", "_load_points"): "cli.load",
    ("rigid3d.cli", "_single_pose"): "cli.load",
    ("rigid3d.cli", "_inline_floats"): "cli.load",
}

# (module, class, method) -> span name. __post_init__ is the validating constructor.
METHODS = {
    ("rigid3d.so3", "RotationMatrix", "__post_init__"): "validation.rotation_ctor",
    ("rigid3d.so3", "UnitQuaternion", "__post_init__"): "validation.quat_ctor",
    ("rigid3d.so3", "EulerAngles", "__post_init__"): "validation.euler_ctor",
    ("rigid3d.se3", "Transform", "__post_init__"): "validation.transform_ctor",
    ("rigid3d.se3", "Twist", "__post_init__"): "validation.twist_ctor",
    ("rigid3d.estimators", "RigidRegistration", "fit"): "estimators.fit",
    ("rigid3d.estimators", "RigidRegistration", "transform"): "estimators.predict",
    ("rigid3d.estimators", "RigidRegistration", "predict"): "estimators.predict",
    ("rigid3d.estimators", "PivotCalibrator", "fit"): "estimators.fit",
    ("rigid3d.estimators", "PivotCalibrator", "predict"): "estimators.predict",
    ("rigid3d.estimators", "HandEyeCalibrator", "fit"): "estimators.fit",
    ("rigid3d.estimators", "HandEyeCalibrator", "predict"): "estimators.predict",
    ("rigid3d.pose_io", "PoseRecord", "to_transform"): "pose_io.to_transform",
    ("rigid3d.pose_io", "PoseRecord", "from_transform"): "pose_io.from_transform",
}

LAYERS = ("validation", "so3", "se3", "calibration", "estimators", "pose_io")
CALLS = (
    "validation.rotation_ctor", "validation.quat_ctor", "validation.transform_ctor", "validation.check",
    "so3.so3_log", "so3.so3_exp", "so3.matrix_to_quat", "so3.orthonormalize", "so3.geodesic_distance",
    "se3.compose", "se3.inverse", "se3.se3_log",
)
SELF_MS = (
    "calibration.hand_eye_calibrate", "calibration.pivot_calibrate", "calibration.register_point_sets",
    "estimators.predict",
)
INCLUSIVE_MS = {
    "pose_io.parse_ms": "pose_io.parse",
    "pose_io.to_transform_ms": "pose_io.to_transform",
    "pose_io.relative_motions_ms": "pose_io.relative_motions",
    "pose_io.report_json_ms": "pose_io.report_json",
}
CLI_INPUT = ("cli.load", "pose_io.parse", "pose_io.to_transform")


@dataclass
class Spans:
    names: list  # span name by id
    name: np.ndarray  # per span: name id
    start: np.ndarray  # ns
    end: np.ndarray
    parent: np.ndarray  # index of the parent span, -1 at the top
    op: np.ndarray

    def save(self, path, **extra) -> None:
        np.savez(path, names=np.array(self.names), name=self.name, start=self.start, end=self.end,
                 parent=self.parent, op=self.op, **extra)

    @staticmethod
    def load(path):
        with np.load(path) as f:
            spans = Spans(list(f["names"]), f["name"], f["start"], f["end"], f["parent"], f["op"])
            extra = {k: f[k] for k in f.files if k not in ("names", "name", "start", "end", "parent", "op")}
        return spans, extra

    @staticmethod
    def concat(parts: list["Spans"]) -> "Spans":
        names = sorted({n for p in parts for n in p.names})
        index = {n: i for i, n in enumerate(names)}
        cols = {c: [] for c in ("name", "start", "end", "parent", "op")}
        offset = 0
        for p in parts:
            cols["name"].append(np.array([index[n] for n in p.names], dtype=np.int32)[p.name])
            cols["start"].append(p.start)
            cols["end"].append(p.end)
            cols["parent"].append(np.where(p.parent >= 0, p.parent + offset, -1))
            cols["op"].append(p.op)
            offset += len(p.name)
        dtypes = {"name": np.int32, "start": np.int64, "end": np.int64, "parent": np.int32, "op": np.int32}
        return Spans(names, **{c: np.concatenate(v).astype(dtypes[c]) if v else np.zeros(0, dtypes[c])
                               for c, v in cols.items()})


class Tracer:
    """Records spans while installed; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.op = -1
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name, self._parent, self._op = array("i"), array("i"), array("i")
        self._start, self._end = array("q"), array("q")
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, span):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self._names):
            self._names.append(span)
        name, parent, op, start, end, stack = self._name, self._parent, self._op, self._start, self._end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import rigid3d  # noqa: F401  (loads every submodule the specs name)
        import rigid3d.cli  # noqa: F401

        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "rigid3d" or n.startswith("rigid3d."))]
        for (mod_name, attr), span in FUNCTIONS.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for (mod_name, cls_name, meth), span in METHODS.items():
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, span))
            else:
                wrapped = self._wrap(raw, span)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    def __len__(self) -> int:
        return len(self._name)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> Spans:
        return Spans(
            list(self._names),
            np.frombuffer(self._name, dtype=np.int32).copy(),
            np.frombuffer(self._start, dtype=np.int64).copy(),
            np.frombuffer(self._end, dtype=np.int64).copy(),
            np.frombuffer(self._parent, dtype=np.int32).copy(),
            np.frombuffer(self._op, dtype=np.int32).copy(),
        )


def self_times(s: Spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (ns)."""
    dur = (s.end - s.start).astype(np.float64)
    has_parent = s.parent >= 0
    child = np.bincount(s.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def layer_metrics(s: Spans, n_ops: int, op_wall_ns: float) -> dict[str, float]:
    """Per-op counts and times of each layer, and each layer's share of op wall time."""
    n_names = len(s.names)
    ids = {n: i for i, n in enumerate(s.names)}
    counts = np.bincount(s.name, minlength=n_names)
    self_ns = np.bincount(s.name, weights=self_times(s), minlength=n_names)
    incl_ns = np.bincount(s.name, weights=(s.end - s.start).astype(np.float64), minlength=n_names)

    def by(arr, span):
        return float(arr[ids[span]]) if span in ids else 0.0

    out = {}
    for span in CALLS:
        out[f"{span}.calls"] = by(counts, span) / n_ops
    for layer in LAYERS:
        layer_ns = sum(by(self_ns, n) for n in s.names if n.startswith(layer + "."))
        out[f"{layer}.self_ms"] = layer_ns / n_ops / 1e6
        out[f"{layer}.share"] = layer_ns / op_wall_ns if op_wall_ns else 0.0
    for span in SELF_MS:
        out[f"{span}.self_ms"] = by(self_ns, span) / n_ops / 1e6
    for metric, span in INCLUSIVE_MS.items():
        out[metric] = by(incl_ns, span) / n_ops / 1e6
    return out


def cli_stages(s: Spans) -> tuple[float, float, float]:
    """(parse, solve, serialize) ms of one CLI run, from its spans.

    parse: run start to the first span, plus every input span (cli.load,
    pose_io.parse, pose_io.to_transform) not nested in another one.
    serialize: report_json start to run end. solve: the rest of the run.
    """
    names = np.array(s.names)[s.name]
    runs = np.flatnonzero(names == "cli.run")
    if not len(runs):
        return 0.0, 0.0, 0.0
    run = runs[0]
    t0, t1 = s.start[run], s.end[run]
    is_input = np.isin(names, CLI_INPUT)
    under_input = np.zeros(len(names), dtype=bool)
    anc = s.parent.copy()
    while (live := anc >= 0).any():  # climb one level of ancestors per pass
        under_input[live] |= is_input[anc[live]]
        anc[live] = s.parent[anc[live]]
    top = is_input & ~under_input
    children = s.parent == run
    parse = (s.end - s.start)[top].sum() + ((s.start[children].min() if children.any() else t1) - t0)
    reports = np.flatnonzero(names == "pose_io.report_json")
    serialize = t1 - s.start[reports[0]] if len(reports) else 0
    solve = (t1 - t0) - parse - serialize
    return parse / 1e6, solve / 1e6, serialize / 1e6
