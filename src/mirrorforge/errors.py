"""Exception types shared across the package."""


class MirrorForgeError(Exception):
    """Base class for all package-specific errors."""


class PrecisionExhaustedError(MirrorForgeError):
    """A computation needed terms beyond the available truncation cutoff.

    Raised when a decision (is this entry zero? what is this valuation?)
    cannot be certified from the finitely many terms that survive the
    cutoff.  The remedy is to redo the computation at higher precision.
    """


class ChartMismatchError(MirrorForgeError):
    """Operands live on different charts or faces and cannot be combined."""


class InvalidPolytopeError(MirrorForgeError):
    """Polytope data fails validation (empty, unbounded, loose inequality...)."""


class InvalidCoverError(MirrorForgeError):
    """Cover data fails validation (nerve not closed, cocycle broken...)."""


class InvalidFibrationError(MirrorForgeError):
    """Fibration primitives fail the monodromy compatibility conditions."""


class UndecidableDescriptionError(MirrorForgeError):
    """A convergence query was asked about a function with no recognised

    exact description.  Convergence is only decided for the declared
    classes (max of affine valuations, positive-semidefinite quadratic),
    and a section radius only for modules whose coefficient towers have
    a recognised shape; anything else is refused rather than guessed.
    """


class ManifestError(MirrorForgeError):
    """A manifest file is malformed or violates the schema."""
