"""Solver outputs at the sizes the solvers run at, bit for bit the same without NumPy's AVX2 and AVX-512 loops.

The stacked kernels run on (9, n) and (3, n) rows, registration's point
kernels on blocks of those rows, and registration's means and hand-eye's
correlation M are NumPy reductions. NumPy picks each loop's SIMD version
by the CPU, and NPY_DISABLE_CPU_FEATURES switches versions off for one
process. A child with the X86_V4 (AVX-512) and X86_V3
(AVX2, FMA) loops off, on the same OpenBLAS kernel, must print the digests
this process prints.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np

import rigid3d as r
from rigid3d.calibration import _BLOCK

from test_cli import skip_unless_runnable

TESTS = pathlib.Path(__file__).parent


def solver_digests() -> str:
    """One line per solver output, its name and the sha256 of its bytes, from seeded inputs."""
    rng = np.random.default_rng(23)
    out = {}

    def put(name, value):
        out[name] = np.asarray(value, dtype=float).tobytes()

    def matrices(transforms):
        return [r.to_matrix4(t) for t in transforms]

    # 100k-point registration; q built element-wise, so no loop of NumPy's own reduces it
    p = rng.uniform(-100, 100, (100_000, 3))
    pose = r.Transform(r.so3_exp(rng.uniform(-2, 2, 3)), rng.uniform(-50, 50, 3))
    m = pose.rotation.m
    q = p[:, [0]] * m[:, 0] + p[:, [1]] * m[:, 1] + p[:, [2]] * m[:, 2] + pose.translation
    q += rng.normal(0.0, 1e-3, q.shape)
    res = r.register_point_sets(p, q)
    put("register transform", r.to_matrix4(res.transform))
    put("register rms", res.rms_error)
    put("register residuals", res.per_point_residuals)
    put("RigidRegistration.transform", r.RigidRegistration().fit(p, q).transform(p))

    poses = [r.Transform(r.so3_exp(rng.uniform(-3, 3, 3)), rng.uniform(-100, 100, 3)) for _ in range(1001)]
    motions = r.relative_motions(poses)
    put("relative_motions", matrices(motions))
    res = r.pivot_calibrate(poses)
    put("pivot", [*res.tip_offset, *res.pivot_point, res.rms_error])
    put("pivot residuals", res.per_pose_residuals)
    put("PivotCalibrator.predict", r.PivotCalibrator().fit(poses).predict(poses))

    x = r.Transform(r.so3_exp(rng.uniform(-2, 2, 3)), rng.uniform(-100, 100, 3))
    noise = [r.Transform(r.so3_exp(rng.normal(0.0, 1e-3, 3)), rng.normal(0.0, 1e-2, 3)) for _ in motions]
    b_list = [r.compose(r.compose(r.compose(r.inverse(x), a), x), e) for a, e in zip(motions, noise)]
    res = r.hand_eye_calibrate(motions, b_list)
    put("hand-eye", [*r.to_matrix4(res.x).ravel(), res.rotation_rms, res.translation_rms])
    put("hand-eye residuals", res.per_motion_translation_residuals)
    put("HandEyeCalibrator.predict", matrices(r.HandEyeCalibrator().fit(motions, b_list).predict(motions)))

    # F-ordered points, read in C order and run through the point kernels' blocks, the last one short
    n = 3 * _BLOCK + 5
    p = np.asfortranarray(rng.uniform(-100, 100, (n, 3)))
    q = np.asfortranarray(p[:, [0]] * m[:, 0] + p[:, [1]] * m[:, 1] + p[:, [2]] * m[:, 2] + rng.normal(0.0, 1e-3, (n, 3)))
    res = r.register_point_sets(p, q)
    put("F-ordered register", [*r.to_matrix4(res.transform).ravel(), res.rms_error, *res.per_point_residuals])
    put("F-ordered RigidRegistration.transform", r.RigidRegistration().fit(p, q).transform(p))
    return "".join(f"{name}: {hashlib.sha256(b).hexdigest()}\n" for name, b in out.items())


def test_solver_bytes_without_numpy_avx2_and_avx512_loops():
    skip_unless_runnable("skylakex_numpy_x86_v3")
    code = (
        f"import sys; sys.path.insert(0, {str(TESTS)!r})\n"
        "from test_numpy_dispatch import solver_digests\n"
        "sys.stdout.write(solver_digests())\n"
    )
    src = str(TESTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 X86_V3"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == solver_digests()
