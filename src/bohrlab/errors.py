"""Exception types raised by the bohrlab kernels and checkers."""


class BohrlabError(Exception):
    """Base class for all bohrlab errors."""


class DimensionMismatch(BohrlabError):
    """Operands do not share the required square dimension."""


class NotHermitian(BohrlabError):
    """Matrix fails the Hermitian precondition."""


class NotPSD(BohrlabError):
    """Matrix fails the positive-semidefinite precondition."""


class NoConvergence(BohrlabError):
    """Eigensolver failed to converge."""


class OutsideDomain(BohrlabError):
    """Evaluation point lies outside the open unit disk (up to guard band)."""


class GridTooCoarse(BohrlabError):
    """Circle-sampling grid too small for the requested coefficient count."""


class NotInvertible(BohrlabError):
    """A linear solve met an effectively singular matrix."""


class CommutationViolated(BohrlabError):
    """Operands were required to commute but do not (within tolerance)."""


class HypothesisViolated(BohrlabError):
    """Input function does not satisfy the hypothesis class of the check."""


class StepClassMismatch(HypothesisViolated):
    """Check or proof step does not belong to the hypothesis class of the function."""


class StepNotApplicable(HypothesisViolated):
    """Proof step has nothing to say at these arguments, on a function that meets its hypotheses."""


class DomainError(BohrlabError):
    """Scalar argument outside the formula's stated domain."""
