"""One gate table: every tolerance of rigid3d, the entry points that read it, and probes on both sides of it.

GATES has a row for each gate constant. A row gives the gate's kind:

- value: the caller claims the input is a rotation, a unit quaternion, a skew matrix, a homogeneous row or a
  rotation vector the exp map takes, and an input beyond the gate is rejected;
- repair: the caller asks the library to repair measured data (pose files, --pose, from_matrix4's block,
  orthonormalize), and an input beyond the gate cannot be repaired;
- branch: a map switches numerical branches at the constant;
- solver: a calibration solver rejects degenerate input at the constant;

the entry points that read it, and a probe: the input whose gated quantity is a given number. Each entry point
gets the probe at (1 - 1e-3) and at (1 + 1e-3) times the constant, and each outcome is the one the row names for
that side. The rotation and quaternion value gates take their entry points from test_coercion.CALLS, so a new
public entry is probed without being added here. The CLI's file entries are each run on a plain file, which the
solver commands read whole, and on the same file after a comment line, which sends every command to the per-line
read. The tests after the probes pin the structure: no tolerance literal in a comparison in src/, every constant
that a comparison reads is a row, and every message and README bullet that quotes a tolerance quotes its
constant's value.
"""

import ast
import importlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

import rigid3d as r
from rigid3d import calibration, pose_io, se3, so3
from rigid3d.cli import _COMMANDS, UsageError, run_cli
from rigid3d.errors import (
    DegenerateGeometry,
    DegenerateMatrix,
    DegenerateMotion,
    InvalidHomogeneousRow,
    NonUnitQuaternion,
    NotARotation,
    NotSkewSymmetric,
    NotUnitQuaternion,
    Rigid3dError,
)

from conftest import FIXTURES
from test_coercion import CALLS, Q, R, T, parameters

SRC = pathlib.Path(r.__file__).parent
README = SRC.parents[1] / "README.md"
MODULES = {"so3": so3, "se3": se3, "calibration": calibration, "pose_io": pose_io}
KINDS = ("value", "repair", "branch", "solver")
lit = re.escape


class Refused(Exception):
    """The whole read's refusal: it hands the text to the per-line read, which names the fault."""


class CliExit(Exception):
    """A nonzero exit of run_cli, as "exit <code>: <stderr>"."""


class File(str):
    """The text of a file that cli() writes and passes by its path."""


class Entry(NamedTuple):
    label: str
    run: Callable  # the probe -> a branch's name, or anything for an accepted input; an exception rejects it
    cli: bool = False  # the CLI words a rejection as its exit code and stderr
    says: tuple | None = None  # (error class, message pattern) where the entry words the row's rejection its own way


class Gate(NamedTuple):
    constant: str  # module.NAME
    kind: str
    quantity: str  # what the probe's number measures
    probe: Callable  # a quantity -> the input that the entries take
    entries: tuple
    below: object  # the outcome at (1 - 1e-3) x the constant: None (accepted), a branch's name, or (class, pattern)
    above: object  # the outcome at (1 + 1e-3) x the constant
    messages: tuple = ()  # the source texts of the rejection messages that quote the constant
    compared_as: tuple = ()  # the constants that the comparisons read in its place


def cli(*args) -> dict:
    """run_cli's JSON report for args, each File written out and passed by its path; CliExit where it exits nonzero."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for i, arg in enumerate(args):
            if isinstance(arg, File):
                path = os.path.join(tmp, f"{i}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(arg)
                arg = path
            argv.append(arg)
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(argv, stdout=out, stderr=err)
    if code:
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


READS = {"plain file": "", "file with a comment": "# read line by line\n"}


def files(text: str) -> dict:
    """The two forms of a file's text, by READS' names: the plain text, and the text after a comment line."""
    return {read: File(prefix + text) for read, prefix in READS.items()}


def outcome(entry: Entry, probe) -> str:
    try:
        got = entry.run(probe)
    except (Rigid3dError, Refused, CliExit) as exc:
        return f"{type(exc).__name__}: {exc}"
    return got if isinstance(got, str) else "ok"


def expected(entry: Entry, want) -> str:
    """The pattern of the outcome want at entry: "ok" for None, a branch's name, or its error as the entry words it."""
    if want is None:
        return "ok"
    if isinstance(want, str):
        return lit(want)
    cls, message = entry.says or want
    if not entry.cli:
        return f"{cls.__name__}: {message}"
    if cls is UsageError:
        return f"CliExit: exit 1: usage error: {message}"
    if issubclass(cls, (DegenerateGeometry, DegenerateMotion, DegenerateMatrix)):
        return f"CliExit: exit 3: degenerate geometry: {message}"
    return f"CliExit: exit 2: error: {message}"


def value_entries(cls, constructor: Entry) -> tuple:
    """The constructor's entry, and one for each parameter of a CALLS entry whose valid argument is a cls, given the probe."""
    entries = [constructor]
    for name in sorted(CALLS):
        fn, args = CALLS[name]()
        for i, (param, arg) in enumerate(zip(parameters(fn), args)):
            if isinstance(arg, cls):
                entries.append(Entry(f"{name}({param})", lambda raw, name=name, i=i: substituted(name, i, raw)))
    return tuple(entries)


def substituted(name: str, i: int, raw):
    fn, args = CALLS[name]()
    return fn(*args[:i], raw, *args[i + 1 :])


def inline(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def off_unit(text: str, factor: float) -> str:
    """A pose text with the quaternion of its last line normalized, then scaled by factor: its norm is off 1 by factor - 1."""
    *head, last = text.splitlines()
    fields = last.split(",")
    q = [float(c) for c in fields[3:]]
    n = math.sqrt(sum(c * c for c in q))
    return "\n".join([*head, ",".join(fields[:3] + [repr(c / n * factor) for c in q])]) + "\n"


def whole_read(text: str) -> list:
    """parse_pose_csv's whole read alone: its poses, or Refused where it hands the text to the per-line read."""
    poses = pose_io._whole(io.StringIO(text), pose_io.POSE_HEADER, 7, pose_io._poses)
    if poses is None:
        raise Refused("the whole read hands the text to the per-line read")
    return poses


def coefficients_branch(fn, make=lambda x: x) -> Callable:
    """fn's run on make(probe), giving the branch so3._coefficients took: its closed form calls math.sin, its series not."""

    def run(probe):
        arg = make(probe)  # before the spy, which counts every call of math.sin
        with mock.patch.object(so3.math, "sin", side_effect=math.sin) as sin:
            fn(arg)
        return "closed form" if sin.called else "Taylor series"

    return run


def stretched(x: float, m) -> np.ndarray:
    """diag(sqrt(1 + x), 1, 1) m: for a rotation m its drift ||M^T M - I|| is x, and its determinant sqrt(1 + x)."""
    return np.diag([math.sqrt(1.0 + x), 1.0, 1.0]) @ m


def with_block(block=None, last_row=None) -> np.ndarray:
    m = r.to_matrix4(T).copy()
    if block is not None:
        m[:3, :3] = block
    if last_row is not None:
        m[3] = last_row
    return m


def motions(*rotvecs) -> list:
    """Hand-eye motions with the given rotation vectors, each with its own translation; X = I, so B_i = A_i."""
    return [r.Transform(r.so3_exp(w), [1.0 + i, -2.0, 0.5 * i]) for i, w in enumerate(rotvecs)]


def stream_text(moves: list) -> str:
    """The pose file of the absolute poses I, A_1, A_1 A_2, ... whose consecutive relative motions are moves."""
    poses = [r.Transform.identity()]
    for a in moves:
        poses.append(r.compose(poses[-1], a))
    return r.serialize_pose_csv(poses)


def handeye_entries() -> tuple:
    cli_entries = tuple(
        Entry(f"rigid3d handeye A B ({read})", lambda m, read=read: cli("handeye", *[files(stream_text(m))[read]] * 2), cli=True)
        for read in READS
    )
    return (
        Entry("hand_eye_calibrate", lambda m: r.hand_eye_calibrate(m, m)),
        Entry("HandEyeCalibrator.fit", lambda m: r.HandEyeCalibrator().fit(m, m)),
        *cli_entries,
    )


TIP, PIVOT_POINT = np.array([0.5, -1.0, 20.0]), np.array([10.0, 20.0, -30.0])


def pivot_poses(cond2: float) -> list:
    """Poses about one tip whose pivot system A has (s_max / s_min)^2 = cond2: turns of e about +-x and +-y, e bisected."""

    def poses(e):
        rots = [r.RotationMatrix.identity()] + [r.so3_exp(e * np.array(u)) for u in np.vstack([np.eye(3)[:2], -np.eye(3)[:2]])]
        return [r.Transform(rot, PIVOT_POINT - rot.m @ TIP) for rot in rots]

    def quantity(e):
        a = np.vstack([np.hstack([t.rotation.m, -np.eye(3)]) for t in poses(e)])
        sv = np.linalg.lstsq(a, np.zeros(len(a)), rcond=None)[3]  # pivot_calibrate's singular values
        return (sv[0] / sv[-1]) ** 2

    lo, hi = 1e-8, 1.0  # the condition falls as the turns grow
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if quantity(mid) > cond2 else (lo, mid)
    return poses(hi)


def gimbal_rotation(x: float) -> r.RotationMatrix:
    return r.euler_to_matrix(r.EulerAngles([0.0, math.pi / 2.0 - x, 0.3]))


def gimbal_lock(locked: bool) -> str:
    return "gimbal lock" if locked else "no gimbal lock"


def cli_gimbal_lock(*args) -> str:
    return gimbal_lock(cli("convert", *args, "--to", "euler-zyx")["result"]["gimbal_lock"])


def pose_text(rot: r.RotationMatrix) -> str:
    return r.serialize_pose_csv([r.Transform(rot, [0.0, 0.0, 0.0])])


def turn_pose(x: float) -> str:
    """The pose line of a turn by x about the x axis, as the CLI reads it."""
    return inline([1.0, 2.0, 3.0, math.cos(x / 2.0), math.sin(x / 2.0), 0.0, 0.0])


PIVOT_TEXT = (FIXTURES / "poses_pivot.csv").read_text()
HANDEYE_A, HANDEYE_B = ((FIXTURES / f"poses_handeye_{s}.csv").read_text() for s in "ab")
SINGLE_TEXT = (FIXTURES / "pose_single.csv").read_text()
QUAT_NORM_6 = r"quaternion norm [0-9.]+ deviates from 1 by more than 1e-6"
QUAT_NORM_3 = r"line \d+: quaternion norm [0-9.]+ deviates from 1 by more than 1e-3"
AXES_NOT_DIVERSE = (DegenerateMotion, lit("rotation axes are not diverse enough to determine X"))


def pose_file_entries() -> tuple:
    """The CLI's pose-file entries, each on both forms of its file, with the off-unit quaternion on its last line."""
    commands = {  # label -> (the file's text, the arguments around the file)
        "rigid3d convert --input FILE": (SINGLE_TEXT, lambda f: ("convert", "--input", f, "--to", "quat")),
        "rigid3d log --input FILE": (SINGLE_TEXT, lambda f: ("log", "--input", f)),
        "rigid3d compose FILE FILE": (SINGLE_TEXT, lambda f: ("compose", f, File(SINGLE_TEXT))),
        "rigid3d pivot FILE": (PIVOT_TEXT, lambda f: ("pivot", f)),
    }
    entries = []
    for label, (text, argv) in commands.items():
        for read in READS:
            run = lambda factor, text=text, argv=argv, read=read: cli(*argv(files(off_unit(text, factor))[read]))
            entries.append(Entry(f"{label} ({read})", run, cli=True))
    for side in "ab":
        for read in READS:
            run = lambda factor, side=side, read=read: cli(
                "handeye",
                *[files(off_unit(t, factor) if s == side else t)[read] for s, t in zip("ab", (HANDEYE_A, HANDEYE_B))],
            )
            entries.append(Entry(f"rigid3d handeye A B, off unit in {side.upper()} ({read})", run, cli=True))
    return tuple(entries)


def register_entries() -> tuple:
    cli_entries = tuple(
        Entry(
            f"rigid3d register SOURCE TARGET ({read})",
            lambda pq, read=read: cli("register", *[files(r.serialize_points_csv(x))[read] for x in pq]),
            cli=True,
        )
        for read in READS
    )
    return (
        Entry("register_point_sets", lambda pq: r.register_point_sets(*pq)),
        Entry("RigidRegistration.fit", lambda pq: r.RigidRegistration().fit(*pq)),
        *cli_entries,
    )


def pivot_entries() -> tuple:
    cli_entries = tuple(
        Entry(f"rigid3d pivot FILE ({read})", lambda p, read=read: cli("pivot", files(r.serialize_pose_csv(p))[read]), cli=True)
        for read in READS
    )
    return (
        Entry("pivot_calibrate", r.pivot_calibrate),
        Entry("PivotCalibrator.fit", lambda p: r.PivotCalibrator().fit(p)),
        *cli_entries,
    )


def flat_points(x: float):
    """Source and target points, equal, whose cross-covariance has sigma_1 / sigma_0 = x: diag(2, 2 a^2, 0), a^2 = x."""
    a = math.sqrt(x)
    p = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, a, 0.0], [0.0, -a, 0.0]])
    return p, p.copy()


GATES = [
    # value gates: the caller claims the input is what the parameter names
    Gate(
        "so3.ORTHO_TOL", "value", "a caller's matrix's drift ||M^T M - I||",
        lambda x: stretched(x, R.m),
        value_entries(r.RotationMatrix, Entry("RotationMatrix(m)", r.RotationMatrix)),
        None, (NotARotation, lit("matrix is not orthogonal within 1e-9")),
        messages=("matrix is not orthogonal within 1e-9", "matrix determinant is not +1 within 1e-9"),
    ),
    Gate(
        "so3.QUAT_TOL", "value", "a caller's quaternion's |norm - 1|",
        lambda x: [c * (1.0 + x) for c in (Q.w, Q.x, Q.y, Q.z)],
        value_entries(r.UnitQuaternion, Entry("UnitQuaternion(w, x, y, z)", lambda q: r.UnitQuaternion(*q)))
        # the one value gate on an entry of the repair kind: inline compose poses skip the pose gate (ROADMAP item 2)
        + (
            Entry(
                "rigid3d compose FILE INLINE",
                lambda q: cli("compose", File(SINGLE_TEXT), inline([*T.translation, *q])),
                cli=True,
            ),
        ),
        None, (NotUnitQuaternion, QUAT_NORM_6),
        messages=(" deviates from 1 by more than 1e-6",),
    ),
    Gate(
        "so3.SKEW_TOL", "value", "the asymmetry ||S + S^T||",
        lambda x: r.hat3([0.3, -0.2, 0.1]) + np.diag([x / 2.0, 0.0, 0.0]),
        (Entry("vee3(s)", r.vee3),),
        None, (NotSkewSymmetric, lit("matrix is not skew-symmetric within 1e-9")),
        messages=("matrix is not skew-symmetric within 1e-9",),
    ),
    Gate(
        "se3.HOMOGENEOUS_ROW_TOL", "value", "the distance of the last row from (0, 0, 0, 1)",
        lambda x: with_block(last_row=[x, 0.0, 0.0, 1.0]),
        (Entry("from_matrix4(m)", r.from_matrix4),),
        None, (InvalidHomogeneousRow, lit("last row must be (0, 0, 0, 1)")),
    ),
    Gate(
        "so3.EXP_MAX_COMPONENT", "value", "the largest |w_i| of a rotation vector",
        lambda x: [x, 0.0, 0.0],
        (
            Entry("so3_exp(r)", r.so3_exp),
            Entry("se3_exp(xi)", lambda w: r.se3_exp([0.0, 0.0, 0.0, *w])),
            Entry("rigid3d exp --twist", lambda w: cli("exp", "--twist", inline([0.0, 0.0, 0.0, *w])), cli=True),
        ),
        None, (Rigid3dError, lit("rotation vector component beyond 1e+100 in magnitude")),
    ),
    # repair gates: the caller asks the library to fix measured data
    Gate(
        "pose_io.QUAT_REJECT_TOL", "repair", "a pose's quaternion's |norm - 1|",
        lambda x: 1.0 + x,
        (
            Entry("parse_pose_csv, whole read", lambda f: whole_read(off_unit(PIVOT_TEXT, f)), says=(Refused, ".*")),
            Entry("parse_pose_csv, per-line read", lambda f: r.parse_pose_csv(off_unit(PIVOT_TEXT, f).splitlines(True))),
            *(
                Entry(
                    f"rigid3d {command} --pose",
                    lambda f, argv=argv: cli(*argv, "--pose", off_unit(SINGLE_TEXT, f).splitlines()[1]),
                    cli=True,
                    says=(UsageError, lit("--pose quaternion is not unit norm")),
                )
                for command, argv in (("convert", ("convert", "--to", "quat")), ("log", ("log",)))
            ),
            *pose_file_entries(),
        ),
        None, (NonUnitQuaternion, QUAT_NORM_3),
        messages=(" deviates from 1 by more than 1e-3",),
    ),
    Gate(
        "se3.BLOCK_REPAIR_TOL", "repair", "the rotation block's drift ||B^T B - I||",
        lambda x: with_block(block=stretched(x, R.m)),
        (Entry("from_matrix4(m)", r.from_matrix4),),
        None, (NotARotation, lit("rotation block deviates from SO(3) beyond the 1e-4 repair threshold")),
        messages=("rotation block deviates from SO(3) beyond the 1e-4 repair threshold",),
    ),
    Gate(
        "so3.SINGULAR_TOL", "repair", "the smallest singular value",
        lambda x: R.m @ np.diag([1.0, 1.0, x]),
        (Entry("orthonormalize(m)", r.orthonormalize),),
        # past the gate, the next one names the matrix: it is about 1 from its polar factor
        (DegenerateMatrix, lit("matrix is singular: smallest singular value below 1e-9")),
        (DegenerateMatrix, lit("matrix is too far from SO(3) to repair")),
        messages=("matrix is singular: smallest singular value below 1e-9",),
    ),
    Gate(
        "so3.REPAIR_DISTANCE", "repair", "the distance ||M - polar(M)|| from the polar factor",
        lambda x: np.diag([1.0 + x, 1.0, 1.0]) @ R.m,  # = R (R^T D R), R^T D R symmetric positive: the polar factor is R
        (Entry("orthonormalize(m)", r.orthonormalize),),
        None, (DegenerateMatrix, lit("matrix is too far from SO(3) to repair")),
    ),
    # branches
    Gate(
        "so3.GIMBAL_TOL", "branch", "pi/2 - |pitch|",
        gimbal_rotation,
        (
            Entry("matrix_to_euler(r_mat)", lambda rot: gimbal_lock(r.matrix_to_euler(rot)[1])),
            Entry(
                "rigid3d convert --pose --to euler-zyx",
                lambda rot: cli_gimbal_lock("--pose", pose_text(rot).splitlines()[1]),
                cli=True,
            ),
            *(
                Entry(
                    f"rigid3d convert --input FILE --to euler-zyx ({read})",
                    lambda rot, read=read: cli_gimbal_lock("--input", files(pose_text(rot))[read]),
                    cli=True,
                )
                for read in READS
            ),
        ),
        "gimbal lock", "no gimbal lock",
    ),
    Gate(
        "so3.SERIES_ANGLE", "branch", "the rotation angle",
        lambda x: x,
        (
            Entry("so3_exp(r)", coefficients_branch(r.so3_exp, lambda x: [x, 0.0, 0.0])),
            Entry("se3_exp(xi)", coefficients_branch(r.se3_exp, lambda x: [1.0, 2.0, 3.0, x, 0.0, 0.0])),
            Entry("se3_log(t)", coefficients_branch(r.se3_log, lambda x: r.Transform(r.so3_exp([x, 0.0, 0.0]), [1.0, 2.0, 3.0]))),
            Entry(
                "rigid3d exp --twist",
                coefficients_branch(lambda xi: cli("exp", "--twist", xi), lambda x: inline([1, 2, 3, x, 0, 0])),
                cli=True,
            ),
            Entry("rigid3d log --pose", coefficients_branch(lambda pose: cli("log", "--pose", pose), turn_pose), cli=True),
        ),
        "Taylor series", "closed form",
    ),
    # solvers
    Gate(
        "calibration.SINGULAR_RATIO", "solver", "sigma_1 / sigma_0 of registration's cross-covariance",
        flat_points,
        register_entries(),
        (DegenerateGeometry, lit("points are collinear: rotation about the line is unconstrained")), None,
    ),
    Gate(
        "calibration.MAX_CONDITION", "solver", "(s_max / s_min)^2 of the pivot system",
        pivot_poses,
        pivot_entries(),
        None, (DegenerateMotion, lit("insufficient rotational diversity: tip and pivot are not separable")),
    ),
    Gate(
        "calibration.PARALLEL_AXIS_TOL", "solver", "the largest angle between a motion's rotation axis and the first's",
        lambda x: motions([0.0, 0.0, 1.0], [math.sin(x), 0.0, math.cos(x)], [0.0, 0.0, 0.5]),
        handeye_entries(),
        # past the gate the axes span a plane only, which MTM_RATIO rejects
        (DegenerateMotion, lit("all rotation axes are parallel: X is not unique")), AXES_NOT_DIVERSE,
        compared_as=("_COS_PARALLEL_AXIS_TOL",),
    ),
    Gate(
        "calibration.MTM_RATIO", "solver", "s_2^2 / max(s_0^2, 1) of hand-eye's M",
        lambda x: motions([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, x**0.25]),  # M = diag(1, 1, x^(1/2))
        handeye_entries(),
        AXES_NOT_DIVERSE, None,
    ),
    Gate(
        "calibration.ROTATING_ANGLE", "solver", "a hand-eye motion's rotation angle",
        lambda x: motions([0.0, 0.0, x], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        handeye_entries(),
        # counted as rotating, the motion's axis is off the other's, and the two span a plane only
        (DegenerateMotion, lit("need at least 2 motions with nonzero rotation")), AXES_NOT_DIVERSE,
    ),
]

# The probes whose quantity is exactly the constant: at equality every input gate passes.
AT_EQUALITY = ("so3.SKEW_TOL", "se3.HOMOGENEOUS_ROW_TOL", "so3.EXP_MAX_COMPONENT")


def value(gate: Gate) -> float:
    module, name = gate.constant.split(".")
    return getattr(MODULES[module], name)


PROBES = [(gate, entry) for gate in GATES for entry in gate.entries]


@pytest.mark.parametrize("gate, entry", PROBES, ids=[f"{g.constant}: {e.label}" for g, e in PROBES])
def test_probes_on_both_sides_of_the_gate_get_the_outcomes_the_table_names(gate, entry):
    for factor, want in ((1.0 - 1e-3, gate.below), (1.0 + 1e-3, gate.above)):
        got = outcome(entry, gate.probe(factor * value(gate)))
        assert re.fullmatch(expected(entry, want), got), (factor, got)


@pytest.mark.parametrize("constant", AT_EQUALITY)
def test_a_quantity_equal_to_the_tolerance_passes(constant):
    gate = next(g for g in GATES if g.constant == constant)
    for entry in gate.entries:
        assert outcome(entry, gate.probe(value(gate))) == "ok", entry.label


def test_the_table_has_one_row_per_constant_and_a_kind_for_each():
    assert len({g.constant for g in GATES}) == len(GATES)
    assert [g.constant for g in GATES if g.kind not in KINDS] == []
    assert all(g.entries for g in GATES)


def test_every_pose_reading_command_is_an_entry_of_the_pose_gate():
    pose_gate = next(g for g in GATES if g.constant == "pose_io.QUAT_REJECT_TOL")
    commands = {e.label.split()[1] for e in pose_gate.entries if e.cli}
    assert commands == set(_COMMANDS) - {"exp", "register"}  # exp reads a twist, register reads points


def sources() -> dict:
    """The syntax tree of each module of src/rigid3d, by module."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        name = "rigid3d" if path.stem == "__init__" else f"rigid3d.{path.stem}"
        found[importlib.import_module(name)] = ast.parse(path.read_text(encoding="utf-8"))
    return found


def comparisons():
    for module, tree in sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                yield module, node


def test_no_tolerance_literal_in_a_comparison():
    literals = [
        (module.__name__, sub.lineno, sub.value)
        for module, node in comparisons()
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float) and sub.value not in (0.0, 1.0, 2.0)
    ]
    assert literals == []


def test_every_constant_a_comparison_reads_is_a_row():
    read = {
        sub.id
        for module, node in comparisons()
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id.lstrip("_").isupper() and isinstance(getattr(module, sub.id, None), (int, float))
    }
    rows = {name for g in GATES for name in g.compared_as or (g.constant.split(".")[1],)}
    assert read == rows


FLOAT_TOKEN = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:e[-+]?\d+)?(?![\w.])")


def quoted_tolerances(text: str) -> list[str]:
    """The numbers in text written with a point or an exponent: 1e-9 and 0.5, not the 1 of "(0, 0, 0, 1)"."""
    return [t for t in FLOAT_TOKEN.findall(text) if "." in t or "e" in t]


def test_every_message_that_quotes_a_tolerance_quotes_its_constant():
    strings = set()
    for tree in sources().values():
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node, clean=False) is not None
        }
        strings |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
        }
    assert {s for s in strings if quoted_tolerances(s)} == {m for g in GATES for m in g.messages}
    for gate in GATES:
        for message in gate.messages:
            assert [float(t) for t in quoted_tolerances(message)] == [value(gate)], (gate.constant, message)


def test_readme_quotes_each_constant_with_its_value():
    text = README.read_text(encoding="utf-8")
    for gate in GATES:
        name = gate.constant.split(".")[1]
        quoted = re.findall(rf"(\S+)\s+\(`(?:\w+\.)?{name}`\)", text)
        assert quoted, f"README quotes no value of {name} as '<value> (`{name}`)'"
        assert [float(q) for q in quoted] == [value(gate)] * len(quoted), name

