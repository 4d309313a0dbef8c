"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (wrong dimension, bad format, ...)."""


class DegenerateInputError(InputError):
    """Input is geometrically degenerate for the requested operation.

    Raised instead of perturbing: callers own any perturbation so that
    results stay reproducible.
    """


class ParseError(InputError):
    """Text input could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceGuardError(RuntimeError):
    """An exhaustive enumeration was requested above its desk-scale guard."""


class InternalError(RuntimeError):
    """An internal invariant failed: a bug, never a verdict on the input."""
