import io
import json

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


@pytest.mark.parametrize(
    "argv", [["convert", "--to", to] for to in ("matrix4", "quat", "euler-zyx", "rotvec")] + [["log"]]
)
def test_inline_pose_matches_input_file(argv):
    inline = run([*argv, "--pose", SINGLE_POSE])
    from_file = run([*argv, "--input", SINGLE_POSE_FILE])
    assert inline[0] == 0
    assert inline == from_file


def test_inline_compose_full_precision():
    code, out, _ = run(["compose", SINGLE_POSE, SINGLE_POSE])
    assert code == 0
    assert out == (GOLDEN / "compose.json").read_text()
