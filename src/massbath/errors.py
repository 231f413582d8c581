"""Exception types raised by the massbath package."""


class MassbathError(Exception):
    """Base class for all package-specific errors."""


class NotAStateError(MassbathError, ValueError):
    """Input does not describe a physical density matrix."""


class NonXFormError(NotAStateError):
    """Density matrix has entries outside the diagonal/anti-diagonal pattern."""


class FrozenDynamicsError(MassbathError):
    """Operation is undefined because all transition rates vanish."""


class StepUnderflowError(MassbathError):
    """Adaptive integrator would need a step below the hard floor."""


class NonConvergedMaxError(MassbathError):
    """Max-over-time search failed to stabilize; carries, when known, the
    cell's coordinates (axis1 = T/omega, or None in the vacuum; axis2 =
    omega*L), its horizon doublings and its last two maxima, {measure:
    (previous pass, last pass)}; nan stands for a pass that never ran."""

    def __init__(self, message, axis1=None, axis2=None, doublings=None, maxima=None):
        if doublings is not None:
            message += f" after {doublings} horizon doublings"
        if maxima:
            pairs = (f"{name} {a!r} -> {b!r}" for name, (a, b) in maxima.items())
            message += "; last two maxima: " + ", ".join(pairs)
        super().__init__(message)
        self.axis1 = axis1
        self.axis2 = axis2
        self.doublings = doublings
        self.maxima = maxima


class NoGenerationError(MassbathError):
    """No separation produces entanglement above the requested cutoff."""


class SweepCellError(MassbathError):
    """A sweep cell failed; carries the failing grid coordinates."""

    def __init__(self, message, axis1=None, axis2=None):
        super().__init__(message)
        self.axis1 = axis1
        self.axis2 = axis2
