"""Shared exception types."""


class DomainError(ValueError):
    """A point lies outside the domain of a map, or a map violates a domain precondition."""


class NumericsError(RuntimeError):
    """A numerical procedure failed: divergent integral, non-monotone stencil, bad table."""


class NonMonotoneError(NumericsError):
    """A space grid too coarse for a scheme: its stencil has a negative off-diagonal."""


class ConfigError(ValueError):
    """Invalid run configuration (schema violation, inconsistent inputs)."""
