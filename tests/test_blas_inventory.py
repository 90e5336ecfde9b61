"""Every BLAS and LAPACK call site, and every NumPy transcendental, in src/, listed by function.

The bits of a BLAS product or a LAPACK decomposition depend on the
OpenBLAS kernel the host selects, so the determinism contract holds only
where such a result feeds LAPACK or a decision, never the output bits
directly. Every product that reaches an output is written with + and *
in one fixed order (so3._apply, _apply_stack, _row_norms, _sq). The
sites left, and why each may stay:

- register_point_sets @: the cross-covariance H, which feeds only the
  SVD; it moves with the decompositions (ROADMAP item 1).
- pivot_calibrate and hand_eye_calibrate lstsq: LAPACK results.
- _nearest_rotation svd and @: the library's one SVD and its polar
  factor u diag(1, 1, d) vt, a LAPACK result.
- random_rotation qr, det and @: it makes test inputs, not outputs.

NumPy's SIMD transcendentals may also differ in the last bit between
CPUs, so each one is listed too; none is left. math's functions on
scalars are not listed, though they are neither correctly rounded nor
the same on every CPU: glibc picks its libm code path by the CPU's
features, and math.sin, math.cos, math.asin, math.atan2 and ** change in
the last bit on some inputs when its FMA paths are switched off
(GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA). math.sqrt and math.hypot
did not (ROADMAP item 1). So src/ raises nothing to a power: x * x is
one correctly rounded product on every CPU, and pow is not.

These inventories make each new site a visible change on every host, not
only on one whose kernel differs from the goldens'.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "rigid3d"
NUMPY_PRODUCTS = {"dot", "matmul", "inner", "tensordot"}
NUMPY_TRANSCENDENTALS = {"arccos", "arcsin", "arctan", "arctan2", "sin", "cos", "tan", "exp", "log", "hypot", "power"}

# (module, function, operation): number of sites
EXPECTED = {
    ("calibration.py", "register_point_sets", "@"): 1,
    ("calibration.py", "pivot_calibrate", "lstsq"): 1,
    ("calibration.py", "hand_eye_calibrate", "lstsq"): 1,
    ("so3.py", "random_rotation", "qr"): 1,
    ("so3.py", "random_rotation", "det"): 1,
    ("so3.py", "random_rotation", "@"): 1,
    ("so3.py", "_nearest_rotation", "svd"): 1,
    ("so3.py", "_nearest_rotation", "@"): 1,
}

EXPECTED_TRANSCENDENTALS = {}


def sites(path: pathlib.Path) -> collections.Counter:
    """Each @, np.linalg.* call and np.<product or transcendental> call, keyed by its enclosing class and function."""
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
                if owner == "np.linalg" or (owner == "np" and child.attr in NUMPY_PRODUCTS | NUMPY_TRANSCENDENTALS):
                    found[(*where, child.attr)] += 1
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


def test_blas_and_lapack_sites():
    assert {k: n for k, n in all_sites().items() if k[2] not in NUMPY_TRANSCENDENTALS} == EXPECTED


def test_numpy_transcendental_sites():
    assert {k: n for k, n in all_sites().items() if k[2] in NUMPY_TRANSCENDENTALS} == EXPECTED_TRANSCENDENTALS


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
