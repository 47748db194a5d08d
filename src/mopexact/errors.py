"""Exception types shared across the package."""


class PoleError(ArithmeticError):
    """A gamma factor was evaluated at a nonpositive integer."""


class NonTerminatingSeriesError(ValueError):
    """No nonpositive-integer numerator parameter forces the series to terminate."""


class AdmissibilityError(ValueError):
    """Weight-system parameters or a multi-index violate the admissibility rules."""


class PreconditionError(ValueError):
    """An operation was invoked outside its supported parameter range."""


class SingularSystemError(ArithmeticError):
    """An orthogonality linear system turned out singular; admissible systems never do."""
