"""Decision parity of the four norms and dot products written in + and * only.

vee3, orthonormalize, from_matrix4 and hand-eye's axis-diversity test
used to measure with np.linalg.norm or a BLAS dot product. Each reference
below is that earlier formula. On seeded inputs placed near each
threshold, the library must take the same accept or reject decision with
the same message. The one exception is the axis test: near
PARALLEL_AXIS_TOL = 1e-6 rad, arccos turns a 1-ulp change of the dot
product into about 1e-10 rad, so a decision may move there, but only
where the reference's largest angle lies within 1e-9 rad of the threshold.
"""

import math
from fractions import Fraction

import numpy as np

import rigid3d as r
from rigid3d.calibration import _COS_PARALLEL_AXIS_TOL, PARALLEL_AXIS_TOL, _check_axis_diversity
from rigid3d.errors import DegenerateMatrix, DegenerateMotion, InvalidHomogeneousRow, NotSkewSymmetric
from rigid3d.so3 import _nearest_rotation, _sq

SAMPLES = 2000


def outcome(fn, *args):
    """None for an accepted input, else the rejection's type and message."""
    try:
        fn(*args)
    except (NotSkewSymmetric, DegenerateMatrix, DegenerateMotion, InvalidHomogeneousRow) as e:
        return type(e), str(e)
    return None


def near(rng, threshold):
    """A value on either side of the threshold, off by a relative 1e-16 to 1e-2."""
    return threshold * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -2))


def vee3_ref(s):
    with np.errstate(over="ignore"):
        if np.linalg.norm(s + s.T) > 1e-9:
            raise NotSkewSymmetric("matrix is not skew-symmetric within 1e-9")


def orthonormalize_ref(m):
    rot, sigma, _ = _nearest_rotation(m)
    if sigma[-1] < 1e-9:
        raise DegenerateMatrix("matrix is singular: smallest singular value below 1e-9")
    if np.linalg.norm(m - rot) > 0.5:
        raise DegenerateMatrix("matrix is too far from SO(3) to repair")


def last_row_ref(m):
    if np.linalg.norm(m[3] - np.array([0.0, 0.0, 0.0, 1.0])) > 1e-9:
        raise InvalidHomogeneousRow("last row must be (0, 0, 0, 1)")


def axis_angles_ref(alphas):
    norms = np.sqrt(_sq(*alphas.T))
    axes = alphas[norms > 1e-12] / norms[norms > 1e-12, None]
    return np.arccos(np.minimum(np.abs(axes[1:] @ axes[0]), 1.0))


def axis_diversity_ref(alphas):
    if not np.any(axis_angles_ref(alphas) > PARALLEL_AXIS_TOL):
        raise DegenerateMotion("all rotation axes are parallel: X is not unique")


def test_vee3_decision_matches_the_matrix_norm():
    rng = np.random.default_rng(101)
    for _ in range(SAMPLES):
        a = rng.standard_normal((3, 3))
        s = r.hat3(rng.standard_normal(3) * rng.uniform(0.0, 3.0)) + a * (near(rng, 1e-9) / np.linalg.norm(a + a.T))
        assert outcome(r.vee3, s) == outcome(vee3_ref, s), s.tolist()


def test_orthonormalize_decision_matches_the_matrix_norm():
    rng = np.random.default_rng(102)
    for _ in range(SAMPLES):
        a = rng.standard_normal((3, 3))
        m = r.random_rotation(rng).m + a * (near(rng, 0.5) / np.linalg.norm(a))
        assert outcome(r.orthonormalize, m) == outcome(orthonormalize_ref, m), m.tolist()


def test_from_matrix4_decision_matches_the_vector_norm():
    rng = np.random.default_rng(103)
    for _ in range(SAMPLES):
        m = r.to_matrix4(r.Transform(r.random_rotation(rng), rng.standard_normal(3)))
        row = rng.standard_normal(4)
        m[3] += row * (near(rng, 1e-9) / np.linalg.norm(row))
        assert outcome(r.from_matrix4, m) == outcome(last_row_ref, m), m.tolist()


def test_axis_diversity_decision_matches_the_dot_product():
    rng = np.random.default_rng(104)
    moved = 0
    for _ in range(SAMPLES):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        alphas = [axis * rng.uniform(0.3, 2.0)]
        for _ in range(rng.integers(1, 4)):
            perp = np.cross(axis, rng.standard_normal(3))
            perp /= np.linalg.norm(perp)
            angle = PARALLEL_AXIS_TOL * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, -1))
            alphas.append((math.cos(angle) * axis + math.sin(angle) * perp) * rng.uniform(-2.0, 2.0))
        alphas = np.array(alphas)
        if outcome(_check_axis_diversity, alphas.T) != outcome(axis_diversity_ref, alphas):
            assert abs(axis_angles_ref(alphas).max() - PARALLEL_AXIS_TOL) < 1e-9, alphas.tolist()
            moved += 1
    assert moved < SAMPLES // 10  # a moved decision is a 1-ulp tie, rare even this close to the threshold


def test_cos_parallel_axis_tol_is_the_correctly_rounded_cosine():
    # cos of the double PARALLEL_AXIS_TOL by its Taylor series in exact rationals: the series alternates with
    # shrinking terms, so consecutive partial sums bracket the cosine, and both round to the stored literal
    x2 = Fraction(PARALLEL_AXIS_TOL) * Fraction(PARALLEL_AXIS_TOL)
    total, term, sums = Fraction(0), Fraction(1), []
    for k in range(6):
        total += term
        sums.append(total)
        term = -term * x2 / ((2 * k + 1) * (2 * k + 2))
    low, high = sorted(sums[-2:])
    assert 0 < high - low < Fraction(1, 10**60)
    assert float(low) == float(high) == _COS_PARALLEL_AXIS_TOL
