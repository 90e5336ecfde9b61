"""NumPy on first need in a copy of the package whose modules have left sys.modules.

A harness that loads two trees side by side (an in-process A/B) loads one
under other module names and may drop those names again. The lazy point
then finds the copy's modules by no sys.modules entry, so it rebinds the
module that made the read through that code's globals: each module of the
copy holds NumPy itself after its first read, and no later np.<name>
goes through the lazy point again.
"""

from conftest import SRC, child

LOAD_COPY_THEN_SOLVE = f"""
import importlib.util, pathlib, sys
src = pathlib.Path({SRC!r}) / "rigid3d"
spec = importlib.util.spec_from_file_location("copy_of_rigid3d", src / "__init__.py", submodule_search_locations=[str(src)])
package = importlib.util.module_from_spec(spec)
sys.modules["copy_of_rigid3d"] = package
spec.loader.exec_module(package)
modules = {{n: sys.modules.pop(n) for n in [n for n in sys.modules if n.startswith("copy_of_rigid3d")]}}
import numpy
p = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
q = [[1.0, 2.0, 3.0], [1.0, 3.0, 3.0], [-1.0, 2.0, 3.0], [1.0, 2.0, 6.0]]
package.register_point_sets(p, q)
print(sorted(n.split(".")[1] for n, m in modules.items() if vars(m).get("np") is numpy))
"""


def test_a_copy_outside_sys_modules_is_rebound_by_its_first_read():
    # registration reads np in validation (the points), so3 (the polar factor) and calibration (the rest)
    assert child(LOAD_COPY_THEN_SOLVE) == "['calibration', 'so3', 'validation']\n"
