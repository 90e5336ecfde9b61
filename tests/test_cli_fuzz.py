"""Seeded CLI fuzzer: every subcommand on malformed and valid text, run in-process through run_cli.

Whatever the input, run_cli returns an exit code in 0-3 and lets no
exception escape. A failure prints nothing to stdout and exactly one line
to stderr; a success prints one JSON document with no NaN or infinity.
"""

import io
import itertools
import json
import math
import random

import pytest

from rigid3d.cli import run_cli

TOKENS = ["", "nan", "-nan", "inf", "-inf", "1e", "0x10", "1e308", "-1e308", "1e-320", "0", "-0", "1", "abc", " 2 "]
CASES_PER_SEED = 250


def number(rnd: random.Random) -> str:
    return repr(rnd.uniform(-10.0, 10.0))


def field(rnd: random.Random) -> str:
    return rnd.choice(TOKENS) if rnd.random() < 0.5 else number(rnd)


def unit_quaternion(rnd: random.Random) -> list[float]:
    q = [rnd.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    return [c / n for c in q]


def pose_fields(rnd: random.Random, clean: bool = False) -> list[str]:
    """Seven pose fields: valid, a non-unit quaternion, random tokens, or the wrong field count."""
    kind = "valid" if clean else rnd.choice(["valid", "non_unit", "tokens", "count"])
    t = [number(rnd) for _ in range(3)]
    q = unit_quaternion(rnd)
    if kind == "non_unit":
        scale = rnd.choice([0.0, 1e-7, 0.5, 1.0 + 5e-7, 1.0 + 2e-5, 1.0005, 1.002, 2.0, 1e200])
        q = [c * scale for c in q]
    fields = t + [repr(c) for c in q]
    if kind == "tokens":
        fields = [field(rnd) if rnd.random() < 0.3 else f for f in fields]
    elif kind == "count":
        fields = fields[: rnd.choice([0, 1, 6])] if rnd.random() < 0.5 else fields + [number(rnd)]
    return fields


def point_fields(rnd: random.Random, clean: bool = False) -> list[str]:
    fields = [number(rnd) for _ in range(3)]
    if clean:
        return fields
    if rnd.random() < 0.5:
        fields = [field(rnd) if rnd.random() < 0.4 else f for f in fields]
    else:
        fields = fields[: rnd.choice([1, 2])] if rnd.random() < 0.5 else fields + [number(rnd)]
    return fields


def text_file(rnd: random.Random, header: str, make_fields, n: int) -> str:
    """n data lines: all valid in about half the files, else each malformed with probability 0.3."""
    clean = rnd.random() < 0.5
    lines = [header] if rnd.random() < 0.5 else []
    for _ in range(n):
        if rnd.random() < 0.05:
            lines.append(rnd.choice(["", "# comment", "   "]))
        lines.append(",".join(make_fields(rnd, clean or rnd.random() < 0.7)))
    return "\n".join(lines) + ("\n" if rnd.random() < 0.9 else "")


def argv_for(rnd: random.Random, tmp_path) -> list[str]:
    files = itertools.count()

    def write(text: str) -> str:
        path = tmp_path / f"in{next(files)}.csv"
        path.write_text(text)
        return str(path)

    def poses(n=None):
        return write(text_file(rnd, "tx,ty,tz,qw,qx,qy,qz", pose_fields, rnd.randint(0, 8) if n is None else n))

    def points(n):
        return write(text_file(rnd, "x,y,z", point_fields, n))

    def inline_pose() -> str:
        return ",".join(pose_fields(rnd, rnd.random() < 0.5))

    def flag(name: str, value: str) -> list[str]:
        """The plain form and the "--flag=" form both take a value that starts with a minus sign."""
        return [name, value] if rnd.random() < 0.5 else [f"{name}={value}"]

    def pose_source() -> list[str]:
        choice = rnd.random()
        if choice < 0.45:
            return flag("--pose", inline_pose())
        if choice < 0.9:
            return ["--input", poses()]
        return [] if rnd.random() < 0.5 else [*flag("--pose", inline_pose()), "--input", poses()]

    sub = rnd.choice(["convert", "compose", "exp", "log", "register", "pivot", "handeye"])
    if sub == "convert":
        argv = [sub, *pose_source(), "--to", rnd.choice(["matrix4", "quat", "euler-zyx", "rotvec", "euler"])]
    elif sub == "compose":
        argv = [sub, "--"] if rnd.random() < 0.5 else [sub]
        argv += [inline_pose() if rnd.random() < 0.5 else poses() for _ in range(rnd.randint(0, 3))]
    elif sub == "exp":
        w = [repr(rnd.uniform(-4.0, 4.0)) for _ in range(6)]
        w = [field(rnd) if rnd.random() < 0.2 else f for f in w][: rnd.choice([6, 6, 6, 5, 7])]
        argv = [sub, *flag("--twist", ",".join(w))]
    elif sub == "log":
        argv = [sub, *pose_source()]
    elif sub == "register":
        n = rnd.randint(0, 8)
        argv = [sub, points(n), points(n if rnd.random() < 0.8 else rnd.randint(0, 8))]
    elif sub == "pivot":
        argv = [sub, poses(rnd.randint(0, 12))]
    else:
        n = rnd.randint(0, 8)
        argv = [sub, poses(n), poses(n if rnd.random() < 0.8 else rnd.randint(0, 8))]
    if rnd.random() < 0.03:
        argv = argv[:-1] if rnd.random() < 0.5 else argv + ["extra"]
    return argv


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in the report")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("seed", range(4))
def test_cli_fuzz(seed, tmp_path):
    rnd = random.Random(seed)
    codes = []
    for case in range(CASES_PER_SEED):
        argv = argv_for(rnd, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(argv, stdout=out, stderr=err)
        out, err = out.getvalue(), err.getvalue()
        where = f"seed {seed} case {case}: {argv}"
        assert code in (0, 1, 2, 3), where
        if code == 0:
            strict_json(out)
        else:
            assert out == "", where
            assert err.endswith("\n") and err.count("\n") == 1, where
        codes.append(code)
    # the generator reaches success, usage errors and data errors on every seed
    assert {0, 1, 2} <= set(codes)
