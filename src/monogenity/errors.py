"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation errors exit 2, I/O
problems exit 3, internal invariant violations exit 4, and oracle
disagreements in --verify mode exit 5.
"""


class MonogenityError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MonogenityError):
    """An input violates a documented precondition or invariant."""


class NotSquarefree(ValidationError):
    """m has a square prime factor: mono scan skips that m instead of failing."""


class InvariantError(MonogenityError):
    """An internal consistency check failed; indicates a bug."""


class OracleDisagreement(MonogenityError):
    """An independent brute-force recomputation contradicts the engine."""
