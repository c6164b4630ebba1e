"""Exception types shared across the package.

Everything derives from ReflectionlessError so the CLI can catch library
failures in one place and map them to a machine-readable error report.
"""


class ReflectionlessError(Exception):
    """Base class for all library errors."""


class BadR(ReflectionlessError):
    """Spectral radius parameter R outside the legal range for the setting."""


class NegativeWeight(ReflectionlessError):
    """A measure atom or density with nonpositive mass."""


class SupportViolation(ReflectionlessError):
    """Measure support sticks out of the admissible region.

    Carries the offending atom position or piece interval in ``offender``.
    """

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender


class NegativeMomentAtZero(ReflectionlessError):
    """Negative-order moment requested while the support touches t = 0."""


class OnSupport(ReflectionlessError):
    """Evaluation point sits on the support of the measure."""


class BranchAmbiguity(ReflectionlessError):
    """Conformal-map preimage requested at a point where the two branches meet."""


class MomentMismatch(ReflectionlessError):
    """Normalization check nu_0 = 1 failed for an extracted moment sequence."""


class InadmissibleSigma(ReflectionlessError):
    """Measure violates a structural inequality needed by the reconstruction."""


class HankelBreakdown(ReflectionlessError):
    """Moment matrix lost positive definiteness at the given pivot."""

    def __init__(self, pivot, message=None):
        super().__init__(message or f"Hankel matrix not positive definite at pivot {pivot}")
        self.pivot = pivot


class AdmissibilityRequired(ReflectionlessError):
    """Operation needs an admissible measure but the admissibility check failed."""


class FreeOperator(ReflectionlessError):
    """Check is not applicable to (numerically) free coefficient windows.

    Nothing in the library raises it; perfbench/ops.py still names it in an
    except clause until the benchmark's next change.
    """


class TruncationBlowup(ReflectionlessError):
    """Moment-flow truncation bound violated; reports where it happened."""

    def __init__(self, x, message=None):
        super().__init__(message or f"moment bound violated at x = {x}")
        self.x = x


class StepTooLarge(ReflectionlessError):
    """Embedded error estimate of the one-step integrator exceeded its budget."""


class RiccatiBlowUp(ReflectionlessError):
    """Riccati trajectory left the analyticity domain."""


class NonConvergent(ReflectionlessError):
    """Richardson extrapolation of boundary values failed to settle."""


class BadParameter(ReflectionlessError, ValueError):
    """A function argument outside its accepted range or set of names.

    Also a ValueError, so callers that catch ValueError keep working.
    """


class SchemaError(ReflectionlessError):
    """Input JSON does not match the job schema.

    ``pointer`` is a JSON-pointer path to the offending element.
    """

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


class UnknownCommand(ReflectionlessError):
    """Job requested a command this tool does not provide."""


class IoError(ReflectionlessError):
    """Could not read the job file, make the output directory or write an
    output artifact."""


class NonFiniteOutput(ReflectionlessError):
    """A result to be written is NaN or infinite; JSON and CSV artifacts
    hold finite numbers only."""
