"""Exception types shared across the toolkit.

Exit-code triage in the CLI distinguishes mathematical failures
(obstructions, failed certificates) from malformed input.
"""


class EquitransError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(EquitransError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class ObstructionError(EquitransError):
    """A mathematical condition fails; carries a certificate payload."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate or {}


class ResampleFailureError(EquitransError):
    """Seeded sampling budget exhausted without finding a valid candidate."""


class NonHyperbolicError(EquitransError):
    """A matrix has an eigenvalue too close to the imaginary axis."""
