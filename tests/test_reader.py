"""The whole-file reader against the per-line reader, on a seeded corpus of valid and malformed files.

parse_points_csv and parse_pose_csv read a seekable stream whole where a
pure-Python scan lets them (pose_io._whole), and otherwise line by line.
With _whole switched off every file goes line by line, the reader whose
values and errors are the contract; with it on, each file must give the
same array or Transforms, byte for byte, and the same error text, and the
solver commands the same stdout, stderr and exit code. A file that fails
the scan must not load NumPy.
"""

import contextlib
import io
import random

import numpy as np
import pytest

from rigid3d import pose_io
from rigid3d.cli import run_cli
from rigid3d.pose_io import POINT_HEADER, POSE_HEADER, parse_points_csv, parse_pose_csv
from rigid3d.se3 import Transform
from rigid3d.so3 import RotationMatrix

from conftest import child
from test_cli import GOLDEN_CASES
from test_cli_fuzz import TOKENS, point_fields, pose_fields

# fields the fuzzer's TOKENS lack: underscores and non-ASCII digits (float() takes both), overflow, signed zero,
# subnormals, 17 significant digits, the forms of a float literal, and empty or sign-only fields
EXTRA_TOKENS = [
    "1_0", "١٢", "３", "1e999", "-1e999", "-0.0", "5e-324", "2.2250738585072014e-308", "1e-310",
    "0.10000000000000001", "-1.2345678901234567e-5", "+1.5", ".5", "5.", "1E5", "1e+5", "00.1", "-.5e-3", "-", "+",
    ".", "e5", "1e5e5", "1-2", "",
]
FILES_PER_SEED = 120


def mutate(rnd: random.Random, lines: list[str], header: str) -> str:
    """A file's text from its data lines, with one or more of the reader's edge cases."""
    lines = list(lines)
    kind = rnd.choice(["clean"] * 6 + ["token", "comment", "blank", "header_mid", "space", "count"])
    if kind == "token" and lines:
        i = rnd.randrange(len(lines))
        fields = lines[i].split(",")
        fields[rnd.randrange(len(fields))] = rnd.choice(TOKENS + EXTRA_TOKENS)
        lines[i] = ",".join(fields)
    elif kind in ("comment", "blank", "header_mid"):
        lines.insert(rnd.randint(0, len(lines)), {"comment": "# note", "blank": rnd.choice(["", "  "]), "header_mid": header}[kind])
    elif kind == "space" and lines:
        i = rnd.randrange(len(lines))
        lines[i] = lines[i].replace(",", ", ", 1)
    elif kind == "count" and lines:
        i = rnd.randrange(len(lines))
        lines[i] = lines[i] + ",1" if rnd.random() < 0.5 else lines[i].rsplit(",", 1)[0]
    if rnd.random() < 0.6:
        lines.insert(0, rnd.choice([header] * 4 + [header.replace(",", ", "), " " + header]))
    end = rnd.choice(["\n"] * 6 + ["\r\n", "\r"])
    return end.join(lines) + (end if rnd.random() < 0.85 else "")


def corpus(seed: int, header: str, make_fields) -> list[bytes]:
    """Seeded file contents: valid files, malformed ones, empty and header-only ones, and undecodable ones."""
    rnd = random.Random(seed)
    good = [",".join(make_fields(rnd, True)) for _ in range(300)]
    # empty and header-only files, and a header line with numeric characters after it
    files = [b"", header.encode(), f"{header}\n".encode(), b"\n", b"# only a comment\n", f"{header}5\n{good[0]}\n".encode()]
    for _ in range(FILES_PER_SEED):
        clean = rnd.random() < 0.6
        lines = [",".join(make_fields(rnd, clean or rnd.random() < 0.8)) for _ in range(rnd.randint(1, 12))]
        files.append(mutate(rnd, lines, header).encode())
    # an early bad line, then bytes that are not UTF-8: near it (the decoder meets them in its first chunk) and
    # far from it (the bad line is read first); and an undecodable file with no other error
    bad_early = "\n".join([header, good[0], "1,abc", *good[1:]]).encode()
    files += [bad_early[:40] + b"\xff\xfe\n" + bad_early[40:], bad_early + b"\n\xff\n", "\n".join(good).encode() + b"\n\x80\n"]
    return files


@contextlib.contextmanager
def per_line_only(monkeypatch):
    """Every read goes line by line while this is active, as before the whole read existed."""
    with monkeypatch.context() as m:
        m.setattr(pose_io, "_whole", lambda stream, header, count, convert: None)
        yield


def outcome(parse, path):
    """What parse gives for a file: its values as bytes, or the error's class and text."""
    try:
        with open(path, encoding="utf-8") as fh:
            got = parse(fh)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, np.ndarray):
        return got.dtype.str, got.shape, got.flags.c_contiguous, got.tobytes()
    assert all(type(t) is Transform and type(t.rotation) is RotationMatrix for t in got)
    return [(np.array(t.rotation._e).tobytes(), np.array(t._t).tobytes(), type(t._t[0]), type(t.rotation._e[0])) for t in got]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def count_whole_reads(monkeypatch) -> list:
    """Record each value _rows returns, so a test can tell that the whole read was taken."""
    taken, real = [], pose_io._rows

    def counting(text, header, count):
        rows = real(text, header, count)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr(pose_io, "_rows", counting)
    return taken


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "header, make_fields, parse, commands",
    [
        (POINT_HEADER, point_fields, parse_points_csv, [["register", "{0}", "{0}"]]),
        (POSE_HEADER, pose_fields, parse_pose_csv, [["pivot", "{0}"], ["handeye", "{0}", "{0}"]]),
    ],
    ids=["points", "poses"],
)
def test_whole_read_equals_the_per_line_read(seed, header, make_fields, parse, commands, tmp_path, monkeypatch):
    files = corpus(seed, header, make_fields)
    taken = count_whole_reads(monkeypatch)
    for i, data in enumerate(files):
        path = tmp_path / f"f{i}.csv"
        path.write_bytes(data)
        argvs = [[a.format(path) for a in argv] for argv in commands]
        whole = outcome(parse, path), [run(argv) for argv in argvs]
        with per_line_only(monkeypatch):
            per_line = outcome(parse, path), [run(argv) for argv in argvs]
        assert whole == per_line, data[:200]
    # the corpus reaches both readers: the whole read takes about a third of the reads and refuses the rest
    assert 0.2 < sum(taken) / len(taken) < 0.8


def test_the_pose_kernel_hands_a_non_unit_quaternion_to_the_per_line_path(tmp_path):
    # the scan passes and the norm 2 is refused by the kernel; the per-line path names the line
    path = tmp_path / "poses.csv"
    path.write_text(f"{POSE_HEADER}\n0,0,0,1,0,0,0\n0,0,0,2,0,0,0\n")
    assert outcome(parse_pose_csv, path) == ("NonUnitQuaternion", "line 3: quaternion norm 2 deviates from 1 by more than 1e-3")


@pytest.mark.parametrize("make", ["list", "unseekable", "after_next", "after_readline"])
def test_streams_that_cannot_be_read_whole_again_read_line_by_line(make):
    text = f"{POINT_HEADER}\n1,2,3\n4,5,6\n7,8,9\n"
    if make == "list":
        stream = text.splitlines(keepends=True)
    elif make == "unseekable":
        stream = io.TextIOWrapper(io.BufferedReader(Unseekable(text.encode())), encoding="utf-8")
    else:
        stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
        next(stream) if make == "after_next" else stream.readline()
    want = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    assert parse_points_csv(stream).tolist() == want


def test_a_binary_stream_gets_the_per_line_error(monkeypatch):
    def error(parse):
        with pytest.raises(Exception) as exc:
            parse(io.BytesIO(f"{POSE_HEADER}\n0,0,0,1,0,0,0\n".encode()))
        return type(exc.value), str(exc.value)

    whole = error(parse_pose_csv)
    with per_line_only(monkeypatch):
        assert error(parse_pose_csv) == whole


class Unseekable(io.RawIOBase):
    """A pipe's read end: bytes read once, no seek."""

    def __init__(self, data: bytes):
        self.data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self.data.readinto(b)


SCAN_FAILS = [
    "# comment\n1,2,3\n",
    "1,2,3\n\n4,5,6\n",
    "1, 2,3\n",
    "1,2\n",
    "1,2,3,4\n",
    "1,2,3\nx,y,z\n",
    "x, y, z\n1,2,3\n",
    "1,2,3\r\n4,5,6\r\n",
    "nan,2,3\n",
    "0x10,2,3\n",
    "1_0,2,3\n",
    "١,2,3\n",
    "",
    "x,y,z\n",
]

SCAN_IN_A_FRESH_INTERPRETER = """
import sys
from rigid3d.pose_io import POINT_HEADER, _rows
refused = [_rows(text, POINT_HEADER, 3) is None for text in {texts!r}]
print(all(refused), 'numpy' in sys.modules)
print(_rows("x,y,z\\n1,2,3\\n", POINT_HEADER, 3).tolist(), 'numpy' in sys.modules)
"""


def test_a_file_that_fails_the_scan_loads_no_numpy():
    # the second line is the positive control: a file that passes the scan does load NumPy
    assert child(SCAN_IN_A_FRESH_INTERPRETER.format(texts=SCAN_FAILS)) == "True False\n[[1.0, 2.0, 3.0]] True\n"


MALFORMED_PIVOT = """
import io, sys
from rigid3d.cli import run_cli
err = io.StringIO()
code = run_cli(["pivot", {path!r}], stdout=io.StringIO(), stderr=err)
print(code, 'numpy' in sys.modules, err.getvalue().strip())
"""


def test_a_missing_field_fails_before_numpy_loads(tmp_path):
    # cli_files' malformed-file reject: one line of a 1000-pose file lacks its last field
    rnd = random.Random(29)
    lines = [",".join(pose_fields(rnd, clean=True)) for _ in range(1000)]
    lines[500] = lines[500].rsplit(",", 1)[0]
    path = tmp_path / "poses.csv"
    path.write_text("\n".join([POSE_HEADER, *lines]) + "\n")
    want = "2 False error: line 502: expected 7 fields, got 6\n"
    assert child(MALFORMED_PIVOT.format(path=str(path))) == want


@pytest.mark.parametrize("name", ["handeye", "pivot", "register"])
def test_the_solver_goldens_are_read_whole(name, monkeypatch):
    # test_cli's goldens pin these reports byte for byte; here they come from the whole read, and line by line alike
    taken = count_whole_reads(monkeypatch)
    whole = run(GOLDEN_CASES[name])
    assert taken and all(taken)
    with per_line_only(monkeypatch):
        assert run(GOLDEN_CASES[name]) == whole
