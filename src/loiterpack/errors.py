"""Exception types shared across the library and mapped to CLI exit codes."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


class InfeasibleError(RuntimeError):
    """No loiter radius satisfies the fleet budget within the radius cap, or
    a recovery failed."""

    def __init__(self, message: str, deficit: int | None = None):
        super().__init__(message)
        self.deficit = deficit


class PlanningError(RuntimeError):
    """Transition planning failed (precondition violation or non-convergence)."""
