"""The benchmark's tracer still finds the library functions it times.

perfbench/tracing.py wraps each of its FUNCTIONS and METHODS targets by
name and skips a name that does not resolve, so a rename in src/ would
zero that target's per-layer counter without any error. Here every
target must resolve, as the tracer resolves it, apart from the listed
stale ones (ROADMAP item 16), and each of those must still fail to
resolve, so the list is dropped when the tracer is retargeted.
"""

import importlib.util
import pathlib
import sys

import pytest

import rigid3d  # noqa: F401  (the tracer's targets live in its submodules)
import rigid3d.cli  # noqa: F401

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"

STALE = {
    ("rigid3d.validation", "check_vector"),
    ("rigid3d.validation", "check_points"),
    ("rigid3d.validation", "freeze"),
    ("rigid3d.pose_io", "PoseRecord", "to_transform"),
    ("rigid3d.pose_io", "PoseRecord", "from_transform"),
}


@pytest.fixture(scope="module")
def tracing():
    name = "perfbench_tracing_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its @dataclass looks the module up by name while the class is made
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _resolves(target: tuple) -> bool:
    """Whether Tracer.install would find target: a module attribute, or a method in its class's own namespace."""
    module, *path = target
    if len(path) == 1:
        return getattr(sys.modules.get(module), path[0], None) is not None
    cls = getattr(sys.modules.get(module), path[0], None)
    return cls is not None and vars(cls).get(path[1]) is not None


def test_every_target_but_the_stale_ones_resolves(tracing):
    # equality both ways: a renamed target fails here, and so does a stale one that was retargeted but is still listed
    unresolved = [t for t in [*tracing.FUNCTIONS, *tracing.METHODS] if not _resolves(t)]
    assert sorted(unresolved) == sorted(STALE)
