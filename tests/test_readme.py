"""README.md names only constants that exist."""

import pathlib
import re

from rigid3d import calibration, pose_io, se3, so3

README = pathlib.Path(__file__).parent.parent / "README.md"
MODULES = {"so3": so3, "se3": se3, "calibration": calibration, "pose_io": pose_io}


def test_readme_constants_exist():
    # a backticked ALL_CAPS name is a module-level constant of one of MODULES; `pose_io.X` names its module
    names = re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z0-9]*_[A-Z0-9_]+)`", README.read_text())
    assert len(names) >= 5
    missing = []
    for module, name in names:
        where = [module] if module else list(MODULES)
        if not any(isinstance(getattr(MODULES.get(m), name, None), (int, float, str)) for m in where):
            missing.append(f"{module}.{name}" if module else name)
    assert missing == []
