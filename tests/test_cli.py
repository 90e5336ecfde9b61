import contextlib
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from rigid3d.cli import run_cli

from conftest import FIXTURES, GOLDEN


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


SINGLE_POSE_FILE = str(FIXTURES / "pose_single.csv")
SINGLE_POSE = (FIXTURES / "pose_single.csv").read_text().splitlines()[1]  # the same pose, as inline text


GOLDEN_CASES = {
    "convert_matrix4": ["convert", "--input", str(FIXTURES / "pose_single.csv"), "--to", "matrix4"],
    "convert_quat": ["convert", "--input", str(FIXTURES / "pose_single.csv"), "--to", "quat"],
    "convert_euler": ["convert", "--input", str(FIXTURES / "pose_single.csv"), "--to", "euler-zyx"],
    "convert_rotvec": ["convert", "--input", str(FIXTURES / "pose_single.csv"), "--to", "rotvec"],
    "compose": ["compose", str(FIXTURES / "pose_single.csv"), str(FIXTURES / "pose_single.csv")],
    "exp": ["exp", "--twist", "1,2,3,0.1,-0.2,0.3"],
    "log": ["log", "--input", str(FIXTURES / "pose_single.csv")],
    "register": ["register", str(FIXTURES / "points_square.csv"), str(FIXTURES / "points_target.csv")],
    "pivot": ["pivot", str(FIXTURES / "poses_pivot.csv")],
    "handeye": [
        "handeye",
        str(FIXTURES / "poses_handeye_a.csv"),
        str(FIXTURES / "poses_handeye_b.csv"),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name):
    code, out, _ = run(GOLDEN_CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help differently on other Pythons; the pins are 3.11's")
@pytest.mark.parametrize("name", ["rigid3d", "convert", "compose", "exp", "log", "register", "pivot", "handeye"])
def test_help_text(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    with pytest.raises(SystemExit) as stop:
        run_cli(["--help"] if name == "rigid3d" else [name, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / "help" / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", ["exp", "log"])
def test_module_entry_point(name):
    # the process path: python -m rigid3d.cli runs main(), which exits with run_cli's code
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rigid3d.cli", *GOLDEN_CASES[name]], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_runtime_imports_only_numpy():
    # NumPy is the one runtime dependency: scipy and the other test-only packages never load.
    # The difference from the modules loaded at start leaves out what site preloads.
    code = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from rigid3d.cli import run_cli\n"
        f"for argv in {[GOLDEN_CASES['handeye'], GOLDEN_CASES['register']]!r}:\n"
        "    assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0\n"
        "print(sorted({name.partition('.')[0] for name in set(sys.modules) - before} - sys.stdlib_module_names))\n"
    )
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['numpy', 'rigid3d']\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_byte_identical_on_rerun(name):
    _, first, _ = run(GOLDEN_CASES[name])
    _, second, _ = run(GOLDEN_CASES[name])
    assert first == second


def test_report_schema():
    code, out, _ = run(GOLDEN_CASES["register"])
    doc = json.loads(out)
    assert list(doc) == ["tool_version", "command", "result", "residuals"]
    assert doc["command"] == "register"
    assert set(doc["residuals"]) == {"rms", "max", "count"}
    assert doc["residuals"]["count"] == 4


def test_exp_zero_twist_is_identity():
    code, out, _ = run(["exp", "--twist", "0,0,0,0,0,0"])
    assert code == 0
    pose = json.loads(out)["result"]["pose"]
    assert pose == {"tx": 0.0, "ty": 0.0, "tz": 0.0, "qw": 1.0, "qx": 0.0, "qy": 0.0, "qz": 0.0}


def test_register_same_file_identity():
    path = str(FIXTURES / "points_square.csv")
    code, out, _ = run(["register", path, path])
    assert code == 0
    doc = json.loads(out)
    assert doc["residuals"]["rms"] < 1e-12
    assert abs(doc["result"]["pose"]["qw"] - 1.0) < 1e-12


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        code, out, err = run(["frobnicate"])
        assert code == 1
        assert out == ""
        assert err

    def test_missing_flag_is_usage(self):
        code, out, _ = run(["exp"])
        assert code == 1
        assert out == ""

    def test_bad_twist_is_usage(self):
        code, out, _ = run(["exp", "--twist", "1,2,3"])
        assert code == 1
        assert out == ""

    def test_parse_error_is_data(self):
        code, out, err = run(["pivot", str(FIXTURES / "bad_fieldcount.csv")])
        assert code == 2
        assert out == ""
        assert "line" in err

    def test_nan_point_is_data(self):
        path = str(FIXTURES / "bad_nan.csv")
        code, out, _ = run(["register", path, path])
        assert code == 2
        assert out == ""

    def test_bad_quaternion_is_data(self):
        code, out, err = run(["pivot", str(FIXTURES / "bad_quat.csv")])
        assert code == 2
        assert out == ""

    def test_missing_file_is_data(self):
        code, out, _ = run(["pivot", "/nonexistent/poses.csv"])
        assert code == 2
        assert out == ""

    def test_degenerate_pivot_is_3(self):
        code, out, err = run(["pivot", str(FIXTURES / "poses_pivot_degenerate.csv")])
        assert code == 3
        assert out == ""
        assert "degenerate" in err.lower()

    def test_collinear_register_is_3(self):
        path = str(FIXTURES / "points_collinear.csv")
        code, out, err = run(["register", path, path])
        assert code == 3
        assert out == ""
        assert "degenerate" in err.lower()

    @pytest.mark.parametrize("sources", [[], ["--pose", SINGLE_POSE, "--input", SINGLE_POSE_FILE]])
    def test_not_exactly_one_pose_source_is_usage(self, sources):
        code, out, err = run(["log", *sources])
        assert code == 1
        assert out == ""
        assert "exactly one of --pose or --input" in err

    def test_two_motions_handeye_is_data(self, tmp_path):
        # 3 poses per stream give 2 motion pairs, one fewer than hand-eye needs
        streams = []
        for name in ("poses_handeye_a.csv", "poses_handeye_b.csv"):
            path = tmp_path / name
            path.write_text("".join((FIXTURES / name).read_text().splitlines(keepends=True)[:4]))
            streams.append(str(path))
        code, out, err = run(["handeye", *streams])
        assert code == 2
        assert out == ""
        assert "at least 3 motion pairs" in err


POSE_HEADER_ONLY = "tx,ty,tz,qw,qx,qy,qz\n"
# translations of order 1e200: the solvers succeed, but their residuals' squares overflow
HUGE_TRANSLATION_POSES = (
    "1e200,2e200,-1e200,1,0,0,0\n-2e200,1e200,1e200,0.6,0.8,0,0\n1e200,-1e200,2e200,0.6,0,0.8,0\n"
    "2e200,1e200,-2e200,0.6,0,0,0.8\n-1e200,-2e200,1e200,0,1,0,0\n1e200,1e200,1e200,0,0,1,0\n"
)

# argv, the text (or bytes) of the file that {path} names (None: no file), exit code, the one stderr line
INPUT_ERRORS = {
    "pose_field_count": (["pivot", "{path}"], "0,0,0,1,0,0\n", 2, "error: line 1: expected 7 fields, got 6"),
    "pose_non_numeric": (
        ["pivot", "{path}"], "0,0,0,1,0,0,0\n0,0,abc,1,0,0,0\n", 2, "error: line 2: non-numeric token 'abc'"
    ),
    "pose_quat_norm_2": (
        ["pivot", "{path}"], "0,0,0,2,0,0,0\n", 2,
        "error: line 1: quaternion norm 2 deviates from 1 by more than 1e-3",
    ),
    "point_nan": (["register", "{path}", "{path}"], "1,2,nan\n", 2, "error: line 1: non-finite value 'nan'"),
    "pose_inf": (["pivot", "{path}"], "0,0,inf,1,0,0,0\n", 2, "error: line 1: non-finite value 'inf'"),
    "header_only_log": (["log", "--input", "{path}"], POSE_HEADER_ONLY, 2, "error: line 0: {path} contains no poses"),
    "header_only_compose": (["compose", "{path}"], POSE_HEADER_ONLY, 2, "error: line 0: {path} contains no poses"),
    "header_only_pivot": (
        ["pivot", "{path}"], POSE_HEADER_ONLY, 2, "error: pivot calibration needs at least 3 poses"
    ),
    "header_only_handeye": (
        ["handeye", "{path}", "{path}"], POSE_HEADER_ONLY, 2, "error: need at least 2 poses to form relative motions"
    ),
    "missing_file": (
        ["pivot", "{path}"], None, 2, "error: line 0: cannot read {path}: No such file or directory"
    ),
    "pose_flag_quat_norm_2": (
        ["log", "--pose", "0,0,0,2,0,0,0"], None, 1, "usage error: --pose quaternion is not unit norm"
    ),
    "pose_flag_field_count": (
        ["log", "--pose", "0,0,0,1,0,0"], None, 1, "usage error: --pose needs 7 comma-separated numbers, got 6"
    ),
    "pose_flag_non_numeric": (
        ["log", "--pose", "0,0,0,1,0,0,x"], None, 1,
        "usage error: bad --pose: could not convert string to float: 'x'",
    ),
    "compose_translation_overflow": (
        ["compose", "{path}", "{path}"], "1e308,1e308,1e308,1,0,0,0\n", 2, "error: translation contains non-finite values"
    ),
    "handeye_translation_overflow": (
        ["handeye", "{path}", "{path}"], "1e308,1e308,1e308,1,0,0,0\n-1e308,-1e308,-1e308,1,0,0,0\n" * 2, 2,
        "error: translation contains non-finite values",
    ),
    # the first pose's rotated translation overflows, in the inverse that relative motions take
    "handeye_inverse_overflow": (
        ["handeye", "{path}", "{path}"],
        "1.7e308,1.7e308,1.7e308,0.8,0.2,0.4,0.4\n0,0,0,1,0,0,0\n0,0,0,0,1,0,0\n0,0,0,0,0,1,0\n",
        2,
        "error: translation contains non-finite values",
    ),
    # T_0^-1 overflows to inf, and T_0^-1 T_1 adds the opposite overflow of R_0^T t_1 to it
    "handeye_relative_motion_overflow": (
        ["handeye", "{path}", "{path}"],
        "1.7e308,1.7e308,1.7e308,0.8,0.2,0.4,0.4\n" * 2 + "0,0,0,0,1,0,0\n0,0,0,0,0,1,0\n",
        2,
        "error: translation contains non-finite values",
    ),
    "log_translation_overflow": (
        ["log", "--pose", "1.7e308,1.7e308,1.7e308,0,0.6,0.8,0"], None, 2,
        "error: twist linear part contains non-finite values",
    ),
    "exp_translation_overflow": (
        ["exp", "--twist", "1.7e308,1.7e308,1.7e308,0.1,0.2,0.3"], None, 2,
        "error: translation contains non-finite values",
    ),
    "pivot_residual_overflow": (
        ["pivot", "{path}"], HUGE_TRANSLATION_POSES, 2, "error: residual RMS overflows double precision"
    ),
    # R_i g + t_i - b overflows before its norm is taken
    "pivot_residual_sum_overflow": (
        ["pivot", "{path}"],
        "0,0,-1.5e308,0.6,0,0.8,0\n0,-1e308,1.7e308,0.5,0.5,0.5,0.5\n1.5e308,0,1.5e308,0.8,0,0.6,0\n",
        2,
        "error: residual RMS overflows double precision",
    ),
    "handeye_residual_overflow": (
        ["handeye", "{path}", "{path}"], HUGE_TRANSLATION_POSES, 2, "error: residual RMS overflows double precision"
    ),
    "register_covariance_overflow": (
        ["register", "{path}", "{path}"], "1e155,0,0\n0,1e155,0\n0,0,1e155\n1,2,3\n", 2,
        "error: cross-covariance of the points overflows double precision",
    ),
    "pose_flag_quat_overflow": (
        ["convert", "--pose", "0,0,0,1e200,0,0,0", "--to", "quat"], None, 1,
        "usage error: --pose quaternion is not unit norm",
    ),
    "pose_quat_overflow": (
        ["log", "--input", "{path}"], "0,0,0,1e200,0,0,0\n", 2,
        "error: line 1: quaternion norm inf deviates from 1 by more than 1e-3",
    ),
    "inline_compose_drift": (
        ["compose", "0,0,0,1.0001,0,0,0"], None, 2,
        "error: quaternion norm 1.0001 deviates from 1 by more than 1e-6",
    ),
    # a UTF-16 byte-order mark, and a Latin-1 byte in a point file
    "pose_not_utf8": (
        ["convert", "--input", "{path}", "--to", "quat"], b"\xff\xfe0,0,0,1,0,0,0\n", 2,
        "error: line 0: cannot read {path}: not UTF-8 text",
    ),
    "point_not_utf8": (
        ["register", "{path}", "{path}"], b"1,2,3\n4,5,6\n7,8,\xe9\n", 2,
        "error: line 0: cannot read {path}: not UTF-8 text",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_error_surface(name, tmp_path):
    argv, text, exit_code, message = INPUT_ERRORS[name]
    path = tmp_path / "input.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    code, out, err = run([a.format(path=path) for a in argv])
    assert code == exit_code
    assert out == ""
    assert err == message.format(path=path) + "\n"


# A 4-decimal pose: its quaternion norm is off by 1.6e-5, which pose files and --pose
# renormalize and UnitQuaternion alone would not accept. sum(v * v) and
# qw**2 + qx**2 + qy**2 + qz**2 round its norm differently.
DRIFTED_POSE = "1,2,3,0.8329,-0.2035,0.5061,-0.0936"


@pytest.mark.parametrize(
    "argv", [["convert", "--to", to] for to in ("matrix4", "quat", "euler-zyx", "rotvec")] + [["log"]]
)
def test_inline_pose_matches_input_file(argv, tmp_path):
    qw, qx, qy, qz = (float(v) for v in DRIFTED_POSE.split(",")[3:])
    norm = math.sqrt(qw**2 + qx**2 + qy**2 + qz**2)
    assert 1e-6 < abs(norm - 1.0) < 1e-3
    assert norm != math.sqrt(sum(v * v for v in (qw, qx, qy, qz)))
    drifted_file = tmp_path / "drifted.csv"
    drifted_file.write_text(DRIFTED_POSE + "\n")
    for pose, pose_file in ((SINGLE_POSE, SINGLE_POSE_FILE), (DRIFTED_POSE, str(drifted_file))):
        inline = run([*argv, "--pose", pose])
        from_file = run([*argv, "--input", pose_file])
        assert inline[0] == 0
        assert inline == from_file


@pytest.mark.parametrize("size", ["1e103", "1e150", "1e200", "1e308"])
def test_exp_beyond_bound_is_data(size):
    code, out, err = run(["exp", "--twist", f"0,0,0,{size},0,0"])
    assert code == 2
    assert out == ""
    assert err == "error: rotation vector component beyond 1e+100 in magnitude\n"


def test_inline_compose_full_precision():
    code, out, _ = run(["compose", SINGLE_POSE, SINGLE_POSE])
    assert code == 0
    assert out == (GOLDEN / "compose.json").read_text()


def test_compose_reads_a_file_whose_name_has_a_comma(tmp_path):
    # an argument that names an existing file is read as one; any other argument with a comma is an inline pose
    comma_file = tmp_path / "p,1.csv"
    comma_file.write_text((FIXTURES / "pose_single.csv").read_text())
    code, out, _ = run(["compose", str(comma_file), str(comma_file)])
    assert code == 0
    assert out == run(["compose", SINGLE_POSE_FILE, SINGLE_POSE_FILE])[1]


# argparse takes a token that starts with "-" for an option unless it is a lone number. No rigid3d
# option starts with "-" and a digit or ".", so such a token is a value, as in its "--flag=" and "--" forms.
@pytest.mark.parametrize(
    "plain, equivalent",
    [
        (["log", "--pose", "-1,2,3,1,0,0,0"], ["log", "--pose=-1,2,3,1,0,0,0"]),
        (["convert", "--pose", "-.5,2,3,1,0,0,0", "--to", "quat"], ["convert", "--pose=-.5,2,3,1,0,0,0", "--to=quat"]),
        (["exp", "--twist", "-1,0,0,0,0,0.5"], ["exp", "--twist=-1,0,0,0,0,0.5"]),
        (["compose", "-1,2,3,1,0,0,0", "-0.5,0,0,1,0,0,0"], ["compose", "--", "-1,2,3,1,0,0,0", "-0.5,0,0,1,0,0,0"]),
    ],
)
def test_leading_minus_number_is_a_value(plain, equivalent):
    result = run(plain)
    assert result[0] == 0
    assert result == run(equivalent)


@pytest.mark.parametrize("token", ["-x", "-nan,2,3,1,0,0,0", "--pose"])
def test_leading_minus_word_is_an_option(token):
    assert run(["log", "--pose", token]) == (1, "", "usage error: argument --pose: expected one argument\n")


# Each OpenBLAS core this CPU can run, as (OPENBLAS_CORETYPE, the /proc/cpuinfo flags it needs, more environment).
# The last runs NumPy's own loops without their AVX-512 versions.
OPENBLAS_CHILDREN = {
    "prescott": ("Prescott", (), {}),
    # glibc's libm without its FMA code paths: math's functions and ** may round differently
    "prescott_glibc_no_fma": ("Prescott", (), {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}),
    "sandybridge": ("Sandybridge", ("avx",), {}),
    "haswell": ("Haswell", ("avx2", "fma"), {}),
    "skylakex": ("SkylakeX", ("avx512f",), {}),
    "skylakex_numpy_x86_v3": ("SkylakeX", ("avx512f",), {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}),
}
# the subcommands whose output depends on no LAPACK routine
KERNEL_FREE = [n for n in sorted(GOLDEN_CASES) if n.startswith("convert_") or n in ("compose", "exp", "log")]


def _cpu_flags() -> set:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("flags"):
                return set(line.partition(":")[2].split())
    return set()


def skip_unless_runnable(child: str) -> None:
    """Skip the calling test unless this machine can run the OPENBLAS_CHILDREN entry child."""
    coretype, needs, _ = OPENBLAS_CHILDREN[child]
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS core types are x86-64 kernels; this machine is {platform.machine()}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"NumPy is linked to {blas}, not OpenBLAS")
    if not os.path.exists("/proc/cpuinfo"):
        pytest.skip("no /proc/cpuinfo to read the CPU flags from")
    missing = sorted(set(needs) - _cpu_flags())
    if missing:
        pytest.skip(f"{coretype} needs CPU flags {', '.join(missing)}")


def stdout_on_kernel(child: str, code: str) -> str:
    """stdout of code run by a fresh interpreter under the OPENBLAS_CHILDREN entry child; the test skips where it cannot run."""
    skip_unless_runnable(child)
    coretype, _, extra_env = OPENBLAS_CHILDREN[child]
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_CORETYPE=coretype, **extra_env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("child", sorted(OPENBLAS_CHILDREN))
def test_same_bytes_on_every_openblas_kernel(child):
    # the products run in plain + and *, so no BLAS kernel (and no NumPy SIMD loop) can move a digit
    argvs = [GOLDEN_CASES[n] for n in KERNEL_FREE] + [["compose", SINGLE_POSE, SINGLE_POSE]]
    code = (
        "import io, sys\n"
        "from rigid3d.cli import run_cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert run_cli(argv, stdout=sys.stdout, stderr=io.StringIO()) == 0\n"
    )
    want = "".join((GOLDEN / f"{n}.json").read_text() for n in [*KERNEL_FREE, "compose"])
    assert stdout_on_kernel(child, code) == want


# the nine elements of 200 seeded draws for each of five seeds, as hex floats
RANDOM_ROTATION_DRAWS = (
    "import numpy as np\n"
    "import rigid3d as r\n"
    "for seed in range(5):\n"
    "    rng = np.random.default_rng(seed)\n"
    "    print(' '.join(x.hex() for _ in range(200) for x in r.random_rotation(rng).m.ravel().tolist()))\n"
)


@pytest.mark.parametrize("child", sorted(OPENBLAS_CHILDREN))
def test_random_rotation_draws_the_same_bytes_on_every_openblas_kernel(child):
    # four normal draws taken to a rotation in + - * / and sqrt: no LAPACK routine, so no kernel moves a seeded draw
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(RANDOM_ROTATION_DRAWS, {})
    assert stdout_on_kernel(child, RANDOM_ROTATION_DRAWS) == here.getvalue()
