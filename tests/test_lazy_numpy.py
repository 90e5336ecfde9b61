"""NumPy on first need: importing rigid3d and the scalar CLI commands load no NumPy, and the first load is thread-safe.

Each case runs in a fresh interpreter, since the test process itself has
NumPy loaded. The modules' np is rigid3d._numpy until its first attribute
read; from then on it is NumPy itself.
"""

import json
import math

import pytest

from conftest import FIXTURES, child


@pytest.fixture(scope="module", autouse=True)
def numpy_not_preloaded():
    if child("import sys; print('numpy' in sys.modules)") != "False\n":
        pytest.skip("this interpreter loads NumPy at start-up (site or sitecustomize)")


def _pose(angle: float, axis: tuple, t: tuple) -> str:
    """An inline pose at full precision: 17 significant digits, as the pose files are written."""
    s = math.sin(angle / 2.0) / math.sqrt(sum(a * a for a in axis))
    return ",".join(format(v, ".17g") for v in (*t, math.cos(angle / 2.0), *(s * a for a in axis)))


SINGLE_POSE_FILE = str(FIXTURES / "pose_single.csv")
SINGLE_POSE = (FIXTURES / "pose_single.csv").read_text().splitlines()[1]
SCALAR_COMMANDS = {
    **{
        f"convert_inline_{to}": ["convert", "--pose", SINGLE_POSE, "--to", to]
        for to in ("matrix4", "quat", "euler-zyx", "rotvec")
    },
    "convert_input": ["convert", "--input", SINGLE_POSE_FILE, "--to", "matrix4"],
    "log_input": ["log", "--input", SINGLE_POSE_FILE],
    "exp": ["exp", "--twist", "1,2,3,0.1,-0.2,0.3"],
    "log_inline": ["log", "--pose", SINGLE_POSE],
    "compose_inline": [
        "compose",
        _pose(0.3, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),
        _pose(2.9, (-0.5, 0.1, 0.7), (-4.0, 0.5, 0.25)),
        _pose(1.0e-3, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
    ],
}
RUN_AND_REPORT = (
    "import io, sys\n"
    "from rigid3d.cli import run_cli\n"
    "code = run_cli({argv!r}, stdout=io.StringIO(), stderr=io.StringIO())\n"
    "print(code, 'numpy' in sys.modules)\n"
)


@pytest.mark.parametrize("module", ["rigid3d", "rigid3d.cli"])
def test_import_loads_no_numpy(module):
    assert child(f"import sys, {module}; print('numpy' in sys.modules)") == "False\n"


def test_a_dunder_probe_loads_no_numpy():
    # introspection asks modules for dunders (inspect.unwrap reads __wrapped__): the lazy point answers with no import
    code = "import sys, rigid3d._numpy\nprint(hasattr(rigid3d._numpy, '__wrapped__'), 'numpy' in sys.modules)"
    assert child(code) == "False False\n"


def test_identity_loads_no_numpy():
    # identity is built from floats, as the scalar functions build their values
    assert child("import sys, rigid3d; rigid3d.Transform.identity(); print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_command_loads_no_numpy(name):
    assert child(RUN_AND_REPORT.format(argv=SCALAR_COMMANDS[name])) == "0 False\n"


def test_a_file_that_fails_to_parse_loads_no_numpy(tmp_path):
    # the solver never runs: the malformed last line fails in parsing, after the good lines before it
    good = (FIXTURES / "poses_pivot.csv").read_text()
    path = tmp_path / "poses.csv"
    path.write_text(good + "0,0,abc,1,0,0,0\n")
    assert child(RUN_AND_REPORT.format(argv=["pivot", str(path)])) == "2 False\n"


def test_a_solver_loads_numpy():
    # the positive control: the gate above can see NumPy load
    assert child(RUN_AND_REPORT.format(argv=["pivot", str(FIXTURES / "poses_pivot.csv")])) == "0 True\n"


FIRST_USE_FROM_THREADS = """
import json, threading
import rigid3d
p = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.0, 1.0, 1.0]]
q = [[1.0, 2.0, 3.0], [1.0, 3.0, 3.0], [-1.0, 2.0, 3.0], [1.0, 2.0, 6.0], [0.0, 3.0, 4.0]]
barrier = threading.Barrier(8)
results = [None] * 9

def solve(i):
    try:
        res = rigid3d.register_point_sets(p, q)
        results[i] = [res.transform.rotation._e, res.transform._t, res.rms_error, res.per_point_residuals.tolist()]
    except Exception as exc:
        results[i] = f"{type(exc).__name__}: {exc}"

def first_use(i):
    barrier.wait()
    solve(i)

threads = [threading.Thread(target=first_use, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
solve(8)
print(json.dumps(results))
"""


def test_first_use_from_eight_threads():
    # eight threads read np at once right after import (which loads no NumPy, as the tests above show):
    # each waits for the one NumPy import, none sees half a module, and each gets the single-threaded result
    *threaded, alone = json.loads(child(FIRST_USE_FROM_THREADS))
    assert isinstance(alone, list), alone
    assert threaded == [alone] * 8


def test_the_first_read_rebinds_np_in_the_reading_module_only():
    # so3_log reads np in so3 alone: the modules that have not read it still hold the lazy point, and load nothing
    code = (
        "import sys, numpy, rigid3d.cli\n"
        "rigid3d.so3_log(rigid3d.RotationMatrix.identity())\n"
        "print(sorted(n for n, m in sys.modules.items() if n.startswith('rigid3d.') and vars(m).get('np') is numpy))\n"
    )
    assert child(code) == "['rigid3d.so3']\n"


SOLVE_TWICE = """
import sys, rigid3d, rigid3d._numpy
lazy = rigid3d._numpy.__getattr__.__code__
counts = []

def count(frame, event, arg):
    if event == "call" and frame.f_code is lazy:
        counts[-1] += 1

for _ in range(2):
    counts.append(0)
    sys.setprofile(count)  # a profile hook, not a wrapper: the lazy point reads the frame of the real caller
    with open({path!r}) as f:
        rigid3d.pivot_calibrate(rigid3d.parse_pose_csv(f))
    sys.setprofile(None)
print(counts)
"""


def test_a_second_solve_makes_no_call_into_the_lazy_point():
    # each module passes through the lazy point on its own first read, so the first solve from a file calls it
    # and an identical second solve, every np.<name> now a plain module attribute read, does not
    first, second = json.loads(child(SOLVE_TWICE.format(path=str(FIXTURES / "poses_pivot.csv"))))
    assert first > 0
    assert second == 0
