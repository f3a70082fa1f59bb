"""Exception types shared across the engine."""


class VariableCountMismatch(ValueError):
    """Operands live over different ambient variable counts."""


class NonHomogeneousError(ValueError):
    """A (weighted-)homogeneous polynomial was required."""


class NotSmoothError(Exception):
    """The Jacobian ring is not finite-dimensional; use the truncation path."""


class NilpotenceError(ValueError):
    """Consecutive differentials of a complex do not compose to zero."""


class ParseError(ValueError):
    """Polynomial text rejected by the grammar; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """Identifier outside the declared variable list."""


class BasisError(ValueError):
    """A proposed set of cohomology classes is not a basis."""


class StrandSumError(RuntimeError):
    """Strand dimensions do not sum to the full complex's: an identity the
    engine failed to verify, which indicates an assembly bug."""
