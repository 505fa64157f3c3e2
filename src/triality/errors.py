"""Exception types raised by the exact linear algebra and Lie machinery."""


class TrialityError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(TrialityError):
    """Operands have incompatible matrix dimensions."""


class SignatureMismatch(TrialityError):
    """An operator was applied to a basis of the wrong signature."""


class LinearlyDependent(TrialityError):
    """A generator list fed to the structure-constant solver is degenerate."""


class NotClosed(TrialityError):
    """A commutator left the span of the generator list.

    Carries the offending pair of generator positions and the residual
    matrix that could not be expanded in the basis.
    """

    def __init__(self, a, b, residual):
        self.a = a
        self.b = b
        self.residual = residual
        super().__init__(f"bracket of generators {a} and {b} leaves the span")


class ClosureExceeded(TrialityError):
    """A claimed finite group closure grew past its bound (construction bug)."""

    def __init__(self, count, elements=None):
        self.count = count
        self.elements = elements
        super().__init__(f"group closure exceeded bound with {count} elements")


class BlockMismatch(TrialityError):
    """A conjugated generator missed its required block shape."""

    def __init__(self, k, position, got, expected):
        self.k = k
        self.position = position
        self.got = got
        self.expected = expected
        super().__init__(
            f"generator {k}: entry {position} is {got}, expected {expected}")
