"""Exception types raised by the massbath package."""


class MassbathError(Exception):
    """Base class for all package-specific errors."""


class NotAStateError(MassbathError, ValueError):
    """Input does not describe a physical density matrix."""


class NonXFormError(NotAStateError):
    """Density matrix has entries outside the diagonal/anti-diagonal pattern."""


class LambdaSingularError(MassbathError, ValueError):
    """Closed-form measure branch formulas requested at |spatial factor| ~ 1.

    closed_form_concurrence and closed_form_negativity carry 1/(1 - lambda^2)
    factors whose removable singularity is numerically unstable near
    |lambda| = 1; propagate the state and measure it instead.
    """


class AssumptionViolatedError(MassbathError, ValueError):
    """Closed-form shortcut used outside its validity assumptions."""


class FrozenDynamicsError(MassbathError):
    """Operation is undefined because all transition rates vanish."""


class StepUnderflowError(MassbathError):
    """Adaptive integrator would need a step below the hard floor."""


class NonConvergedMaxError(MassbathError):
    """Max-over-time search failed to stabilize; carries the cell's coordinates
    (axis1 = T/omega, or None in the vacuum; axis2 = omega*L) when known."""

    def __init__(self, message, axis1=None, axis2=None):
        super().__init__(message)
        self.axis1 = axis1
        self.axis2 = axis2


class NoGenerationError(MassbathError):
    """No separation produces entanglement above the requested cutoff."""


class SweepCellError(MassbathError):
    """A sweep cell failed; carries the failing grid coordinates."""

    def __init__(self, message, axis1=None, axis2=None):
        super().__init__(message)
        self.axis1 = axis1
        self.axis2 = axis2
