"""Exception types shared across the library and mapped to CLI exit codes."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


class InfeasibleError(RuntimeError):
    """No loiter radius satisfies the fleet budget within the radius cap, or
    a recovery failed; the message says why (a shortage names its deficit)."""


class PlanningError(RuntimeError):
    """Transition planning failed (precondition violation or non-convergence)."""
