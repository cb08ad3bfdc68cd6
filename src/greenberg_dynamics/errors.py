"""Exception types shared across the package."""


class DomainError(ValueError):
    """A value lies outside the mathematical domain of an operation."""


class ArgumentError(ValueError):
    """A structural argument (count, range, grid) is invalid."""


class EscapeError(RuntimeError):
    """An orbit left the valid density interval before an estimate finished."""


class SpecError(ValueError):
    """A payload has no emitter schema, or a plot spec names an unknown ordinate."""
