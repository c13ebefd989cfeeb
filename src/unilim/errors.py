"""Exception types shared across the library.

Every structural defect in an input names its first offending witness so
that a failing instance can be repaired by hand.
"""

from __future__ import annotations


class UnilimError(Exception):
    """Base class for all library errors."""


class ValidationError(UnilimError):
    """An input value violates a structural invariant."""


class TriangleViolation(ValidationError):
    def __init__(self, level: int, i: str, j: str, k: str):
        self.level, self.i, self.j, self.k = level, i, j, k
        super().__init__(
            f"triangle inequality fails at level {level}: "
            f"d({i},{k}) > d({i},{j}) + d({j},{k})"
        )


class NestingViolation(ValidationError):
    pass


class SubspaceViolation(ValidationError):
    def __init__(self, level: int, i: str, j: str):
        self.level, self.i, self.j = level, i, j
        super().__init__(
            f"zero-pair mismatch between levels {level} and {level + 1} "
            f"on pair ({i},{j})"
        )


class NotUniform(ValidationError):
    """A pseudometric has a positive value on a zero-pair of its level."""


class NotAnEntourage(ValidationError):
    def __init__(self, level: int, msg: str = ""):
        self.level = level
        super().__init__(msg or f"relation at level {level} misses a zero-pair")


class NeighborhoodViolation(ValidationError):
    """A family of minimal neighborhoods that no topology has: a point
    outside its own, or one not holding the neighborhood of each of its
    points."""


class IndexOutOfRange(UnilimError):
    pass


class LevelMismatch(UnilimError):
    pass


class LevelOutOfRange(UnilimError):
    pass


class LevelCountMismatch(UnilimError):
    pass


class StartMismatch(UnilimError):
    pass


class GroundMismatch(UnilimError):
    pass


class NotInverse(UnilimError):
    pass


class InvarianceViolation(UnilimError):
    pass


class PreconditionFailed(UnilimError):
    pass


class ProfileTooLarge(UnilimError):
    pass


class UnknownTheoremId(UnilimError):
    pass


class CertificateFailure(Exception):
    """A derived table is not what its construction certifies: an
    implementation bug, never bad input, so not a ``UnilimError`` and the
    CLI exits 3 on it."""
