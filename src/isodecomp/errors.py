"""Exception hierarchy shared by all modules.

Two families matter to callers (and to the CLI exit codes): violations of
polytope invariants (`ValidationError`, exit 2) and violated operation
preconditions (`PreconditionError`, exit 3).
"""


class IsodecompError(Exception):
    pass


class ValidationError(IsodecompError):
    pass


class PreconditionError(IsodecompError):
    pass


class NotFullDimensional(ValidationError):
    pass


class IncidenceMismatch(ValidationError):
    pass


class NotConvexPosition(ValidationError):
    pass


class DegeneratePolytope(ValidationError):
    pass


class DimensionMismatch(PreconditionError):
    pass


class OriginNotInterior(PreconditionError):
    pass


class SingularMatrix(PreconditionError):
    pass


class UnsupportedDegree(PreconditionError):
    pass


class EpsilonTooLarge(PreconditionError):
    pass


class StepTooLarge(PreconditionError):
    pass


class NotCentered(PreconditionError):
    pass


class CaseNotSupported(PreconditionError):
    pass


class NotASymmetry(PreconditionError):
    pass


class GroupTooLarge(PreconditionError):
    pass


class Degenerate(PreconditionError):
    pass
