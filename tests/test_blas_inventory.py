"""Every BLAS and LAPACK call site in src/, listed by function.

The bits of a BLAS product or a LAPACK decomposition depend on the
OpenBLAS kernel the host selects, so the determinism contract holds only
where such a result feeds LAPACK or a decision, never the output bits
directly. This inventory makes each new site a visible change on every
host, not only on one whose kernel differs from the goldens'.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "rigid3d"
NUMPY_PRODUCTS = {"dot", "matmul", "inner", "tensordot"}

# (module, function, operation): number of sites
EXPECTED = {
    ("calibration.py", "register_point_sets", "@"): 3,
    ("calibration.py", "register_point_sets", "norm"): 1,
    ("calibration.py", "pivot_calibrate", "lstsq"): 1,
    ("calibration.py", "hand_eye_calibrate", "lstsq"): 1,
    ("calibration.py", "_check_axis_diversity", "@"): 1,
    ("estimators.py", "RigidRegistration.transform", "@"): 1,
    ("se3.py", "from_matrix4", "norm"): 1,
    ("so3.py", "vee3", "norm"): 1,
    ("so3.py", "orthonormalize", "norm"): 1,
    ("so3.py", "random_rotation", "qr"): 1,
    ("so3.py", "random_rotation", "det"): 1,
    ("so3.py", "random_rotation", "@"): 1,
    ("so3.py", "_nearest_rotation", "svd"): 1,
    ("so3.py", "_nearest_rotation", "@"): 1,
}


def sites(path: pathlib.Path) -> collections.Counter:
    """Each @, np.linalg.* call and np.dot/matmul/inner/tensordot call, keyed by its enclosing class and function."""
    found = collections.Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            where = (path.name, ".".join(scope))
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found[(*where, "@")] += 1
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                owner = ast.unparse(child.func.value)
                if owner == "np.linalg" or (owner == "np" and child.func.attr in NUMPY_PRODUCTS):
                    found[(*where, child.func.attr)] += 1
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_numpy_is_imported_only_as_np():
    # an alias (from numpy.linalg import svd, import numpy as xp) would hide a site from the inventory
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("numpy"), path.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("numpy"):
                        assert (alias.name, alias.asname) == ("numpy", "np"), path.name


def test_blas_and_lapack_sites():
    found = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        found += sites(path)
    assert dict(found) == EXPECTED
