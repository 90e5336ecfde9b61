"""Every BLAS and LAPACK call site, and every NumPy transcendental, in src/, listed by function.

The bits of a BLAS product or a LAPACK decomposition depend on the
OpenBLAS kernel the host selects, so the determinism contract holds only
where such a result feeds LAPACK or a decision, never the output bits
directly. Every product that reaches an output is written with + and *
in one fixed order (so3._apply, _mul, _sq), on a value's floats and on a
stack's rows alike. The sites left, and why each may stay:

- register_point_sets @: the cross-covariance H, which feeds only the
  SVD; it moves with the decompositions (ROADMAP item 1).
- register_point_sets einsum: the two centroids, each np.einsum("ij->j")
  of one operand. A one-operand einsum is a plain sum, by rows, with no
  BLAS call; a second operand could hand it to BLAS, so each site is
  listed.
- pivot_calibrate and hand_eye_calibrate lstsq: LAPACK results.
- _nearest_rotation svd and @: the library's one SVD and its polar
  factor u diag(1, 1, d) vt, a LAPACK result.

NumPy's SIMD transcendentals may also differ in the last bit between
CPUs, so each one is listed too; none is left. math's elementary
functions on scalars are neither correctly rounded nor the same on every
CPU: glibc picks its libm code path by the CPU's features, and math.sin,
math.cos, math.asin, math.atan2 and ** change in the last bit on some
inputs when its FMA paths are switched off
(GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA). math.sqrt and math.hypot
did not. So every reference to one of them, called or passed on (as
_log_stack hands math.atan2 to map), is listed by function too: the
call sites that ROADMAP item 9 replaces with + - * / and sqrt. And src/
raises nothing to a power: x * x is one correctly rounded product on
every CPU, and pow is not.

The library has one NumPy error state, so3._overflow_ignored (over and
invalid ignored), and the public functions that run array arithmetic on
caller data wear it, so an overflow there reaches their finiteness checks
as inf or NaN and is rejected with a Rigid3dError, never a warning. The
stack kernels and every scalar path run bare; Python floats overflow
without a warning. The error-state inventory pins the one errstate and
the entries that wear it.

These inventories make each new site a visible change on every host, not
only on one whose kernel differs from the goldens'.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "rigid3d"
NUMPY_PRODUCTS = {"dot", "matmul", "inner", "tensordot", "einsum"}
NUMPY_TRANSCENDENTALS = {"arccos", "arcsin", "arctan", "arctan2", "sin", "cos", "tan", "exp", "log", "hypot", "power"}
NUMPY_ERROR_STATE = {"errstate", "seterr"}
NUMPY_NAMES = NUMPY_PRODUCTS | NUMPY_TRANSCENDENTALS | NUMPY_ERROR_STATE
# math's libm functions whose bits may follow the CPU: all but the correctly rounded sqrt and hypot
LIBM = {
    f"math.{name}"
    for name in (
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
        "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "pow", "cbrt", "erf", "erfc", "gamma", "lgamma",
    )
}

# (module, function, operation): number of sites
EXPECTED = {
    ("calibration.py", "register_point_sets", "@"): 1,
    ("calibration.py", "register_point_sets", "einsum"): 2,
    ("calibration.py", "pivot_calibrate", "lstsq"): 1,
    ("calibration.py", "hand_eye_calibrate", "lstsq"): 1,
    ("so3.py", "_nearest_rotation", "svd"): 1,
    ("so3.py", "_nearest_rotation", "@"): 1,
}

EXPECTED_TRANSCENDENTALS = {}

# one sin/cos pair of theta/2 serves exp, V and V^-1; each Euler factor takes its own pair
EXPECTED_LIBM = {
    ("so3.py", "_coefficients", "math.sin"): 1,
    ("so3.py", "_coefficients", "math.cos"): 1,
    ("so3.py", "_rx", "math.sin"): 1,
    ("so3.py", "_rx", "math.cos"): 1,
    ("so3.py", "_ry", "math.sin"): 1,
    ("so3.py", "_ry", "math.cos"): 1,
    ("so3.py", "_rz", "math.sin"): 1,
    ("so3.py", "_rz", "math.cos"): 1,
    ("so3.py", "matrix_to_euler", "math.atan2"): 4,
    ("so3.py", "_log", "math.atan2"): 1,
    ("so3.py", "_log_stack", "math.atan2"): 1,
}

EXPECTED_ERROR_STATE = {("so3.py", "_overflow_ignored.run", "errstate"): 1}

# (module, function): the public functions that run array arithmetic on caller data, and the pose reader's row kernel
ERROR_STATE_ENTRIES = {
    ("calibration.py", "register_point_sets"),
    ("calibration.py", "pivot_calibrate"),
    ("calibration.py", "hand_eye_calibrate"),
    ("pose_io.py", "relative_motions"),
    ("pose_io.py", "_poses"),
    ("estimators.py", "RigidRegistration.transform"),
    ("estimators.py", "PivotCalibrator.predict"),
    ("estimators.py", "HandEyeCalibrator.predict"),
}


def sites(path: pathlib.Path) -> collections.Counter:
    """Each @, np.linalg.* call, np.<one of NUMPY_NAMES> call and LIBM reference, keyed by its enclosing class and function."""
    found = collections.Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            where = (path.name, ".".join(scope))
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found[(*where, "@")] += 1
            elif isinstance(child, ast.Attribute):
                owner = ast.unparse(child.value)
                if owner == "np.linalg" or (owner == "np" and child.attr in NUMPY_NAMES):
                    found[(*where, child.attr)] += 1
                elif f"{owner}.{child.attr}" in LIBM:
                    found[(*where, f"{owner}.{child.attr}")] += 1
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def all_sites() -> collections.Counter:
    found = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        found += sites(path)
    return found


def test_numpy_is_imported_only_as_np():
    # an alias (from numpy.linalg import svd, import numpy as xp) would hide a site from the inventory;
    # only the lazy-import point _numpy.py imports numpy itself, and every other module takes it from there as np
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith(("numpy", "_numpy")), path.name
                for alias in node.names:
                    if alias.name == "_numpy":
                        assert (node.module, node.level, alias.asname) == (None, 1, "np"), path.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("numpy"):
                        assert path.name == "_numpy.py" and (alias.name, alias.asname) == ("numpy", "np"), path.name


def test_math_is_imported_only_as_math():
    # from math import sin, or import math as m, would hide a libm site from the inventory
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "math", path.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name != "math" or alias.asname is None, path.name


def test_blas_and_lapack_sites():
    listed_elsewhere = NUMPY_TRANSCENDENTALS | NUMPY_ERROR_STATE | LIBM
    assert {k: n for k, n in all_sites().items() if k[2] not in listed_elsewhere} == EXPECTED


def test_numpy_transcendental_sites():
    assert {k: n for k, n in all_sites().items() if k[2] in NUMPY_TRANSCENDENTALS} == EXPECTED_TRANSCENDENTALS


def test_libm_sites():
    assert {k: n for k, n in all_sites().items() if k[2] in LIBM} == EXPECTED_LIBM


def test_one_numpy_error_state():
    assert {k: n for k, n in all_sites().items() if k[2] in NUMPY_ERROR_STATE} == EXPECTED_ERROR_STATE


def test_public_array_entries_wear_the_error_state():
    worn = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                if any(ast.unparse(d) == "_overflow_ignored" for d in child.decorator_list):
                    worn.add((path.name, ".".join(inner)))
            visit(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, [])
    assert worn == ERROR_STATE_ENTRIES


def test_no_power_in_src():
    # the operator and the builtin and math forms alike; np.power is a listed transcendental above
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                found.append(f"{path.name}:{node.lineno} **")
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("pow", "math.pow"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
    assert found == []
