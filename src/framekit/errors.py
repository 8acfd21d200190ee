"""Exception hierarchy.

Every domain error raised by this package derives from :class:`FramekitError`
so callers (in particular the CLI) can distinguish "the input violated a
stated precondition" from genuine bugs.
"""

from __future__ import annotations


class FramekitError(Exception):
    """Base class for all domain errors raised by framekit."""


class DimensionMismatch(FramekitError):
    """Operands have incompatible shapes for the requested operation."""


class NotSquare(FramekitError):
    """A square matrix was required."""


class NotHermitian(FramekitError):
    """The operand is not Hermitian within the verdict tolerance."""


class NoConvergence(FramekitError):
    """An iterative eigenvalue/SVD routine failed to converge."""


class OffGridShift(FramekitError):
    """Translation amount does not land on the sample grid."""


class OffGridFrequency(FramekitError):
    """Modulation frequency is not periodic on the grid."""


class NonCoprimeDilation(FramekitError):
    """Dilation factor shares a divisor with the grid size."""


class OffGridEndpoints(FramekitError):
    """Indicator endpoints are misaligned or outside one period."""


class NotAFrame(FramekitError):
    """The system's frame operator is singular; reconstruction undefined."""


class NotThetaFrame(FramekitError):
    """A two-sided window inequality was required but does not hold."""


class NotParseval(FramekitError):
    """The input system is not tight with bound one."""


class NotHyponormal(FramekitError):
    """The operator fails the adjoint-contraction test, globally and on the margin."""


class SingularU(FramekitError):
    """The transform operator is numerically singular."""


class Unresolved(FramekitError):
    """A computed constant lies within its round-off bound of the threshold it is judged by."""


class Underflow(FramekitError):
    """A kept singular value of a factor squares below the smallest normal float."""


class PartitionNotDisjoint(FramekitError):
    """Partition cells overlap."""


class PartitionNotExhaustive(FramekitError):
    """Partition cells do not cover every index."""
