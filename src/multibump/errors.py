"""Exception types raised across the package."""


class MultibumpError(Exception):
    """Base class for all package-specific errors."""


class WeightError(MultibumpError):
    """Invalid weight definition."""


class SignStructureViolation(WeightError):
    """Weight is not >=0 (and not identically 0) on the positivity interval,
    or not <=0 (and not identically 0) on the negativity interval."""


class EdgeMassViolation(WeightError):
    """The negative part carries no mass next to one of the sign-change points."""


class NoAdmissibleZeta(MultibumpError):
    """Bisection for the boundary-layer width exhausted without satisfying
    the smallness condition."""


class DegenerateDirection(MultibumpError):
    """Nehari projection of a function with vanishing quartic term."""


class NonConvergence(MultibumpError):
    """An iterative solve (descent or Newton) failed to reach tolerance."""


class NewtonFailure(NonConvergence):
    """A Newton iteration (damped or shooting) failed."""


class BlowUp(MultibumpError):
    """IVP trajectory exceeded the blow-up cap."""


class ScopeError(MultibumpError):
    """Input outside the stated scope of an oracle routine."""


class IndexOutOfWindow(MultibumpError, IndexError):
    """Interval index outside the grid's span."""


class ContinuationBreakdown(NonConvergence):
    """Newton failed partway along the downward mu walk."""


class CertificationFailure(MultibumpError):
    """Converged solution violates one of the certification conditions.

    Carries the offending report in ``.report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InteriorityFailure(MultibumpError):
    """Connection minimizer sits on one of the caps (mu too small)."""


class SingularLinearization(MultibumpError):
    """Linearized operator of a connection solution is numerically singular."""
