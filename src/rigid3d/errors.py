"""Exception hierarchy for rigid3d."""


class Rigid3dError(Exception):
    """Base class for all rigid3d errors."""


class NotARotation(Rigid3dError):
    """Matrix is not orthogonal with determinant +1 within tolerance."""


class NotUnitQuaternion(Rigid3dError):
    """Quaternion norm deviates too far from 1."""


class NotSkewSymmetric(Rigid3dError):
    """Matrix is not skew-symmetric within tolerance."""


class UnsupportedConvention(Rigid3dError):
    """Unknown Euler-angle convention tag."""


class DegenerateMatrix(Rigid3dError):
    """Matrix is singular or too far from the rotation manifold to repair."""


class InvalidHomogeneousRow(Rigid3dError):
    """Last row of a 4x4 homogeneous matrix is not (0, 0, 0, 1)."""


class TooFewPoints(Rigid3dError):
    """Point-set registration needs at least 3 correspondences."""


class TooFewPoses(Rigid3dError):
    """Pivot calibration / relative-motion extraction needs more poses."""


class TooFewMotions(Rigid3dError):
    """Hand-eye calibration needs at least 3 motion pairs."""


class DegenerateGeometry(Rigid3dError):
    """Input geometry leaves the solution non-unique (e.g. collinear points)."""


class DegenerateMotion(Rigid3dError):
    """Motion set lacks the rotational diversity needed for a unique solution."""


class ParseError(Rigid3dError):
    """Malformed line in a CSV input file."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")

    def __reduce__(self):
        # args holds only the message, so pickle rebuilds from __init__'s fields (an error from a worker process re-raises)
        return type(self), (self.line, self.reason), self.__dict__


class NonUnitQuaternion(ParseError):
    """Quaternion in a pose file is too far from unit norm to trust."""

    def __init__(self, line: int, norm: float):
        self.norm = norm
        ParseError.__init__(self, line, f"quaternion norm {norm:.6g} deviates from 1 by more than 1e-3")

    def __reduce__(self):
        return type(self), (self.line, self.norm), self.__dict__
