"""Exception types shared across the package."""

__all__ = ["InvariantViolation"]


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
