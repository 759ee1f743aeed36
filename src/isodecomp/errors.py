"""Exception hierarchy shared by all modules.

Three families matter to callers (and to the CLI exit codes): violations
of polytope invariants (`ValidationError`, exit 2), violated operation
preconditions (`PreconditionError`, exit 3) and failed internal
cross-checks (`InternalCheckFailed`, exit 4), where two independent
routes to the same exact value disagree: a fault in the program, not in
its input.
"""


class IsodecompError(Exception):
    pass


class ValidationError(IsodecompError):
    pass


class PreconditionError(IsodecompError):
    pass


class InternalCheckFailed(IsodecompError):
    pass


class NotFullDimensional(ValidationError):
    pass


class IncidenceMismatch(ValidationError):
    pass


class NotConvexPosition(ValidationError):
    pass


class DegeneratePolytope(ValidationError):
    pass


class DimensionMismatch(ValidationError, PreconditionError):
    """Dimensions that do not agree.  Every one the CLI can meet comes from
    a malformed body file (mixed vertex lengths, a facet normal of the
    wrong length, a wrong declared dim), so it exits 2 there; library
    callers may still catch it as a violated precondition."""


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
