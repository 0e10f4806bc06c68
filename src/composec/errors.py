"""Exception hierarchy shared by all composec modules."""


class ComposecError(Exception):
    """Base class for every error raised by this package."""


# -- kernel / matrix construction ------------------------------------------

class NegativeEntry(ComposecError):
    pass


class ColumnNotStochastic(ComposecError):
    def __init__(self, column: int, total) -> None:
        self.column = column
        self.total = total
        super().__init__(f"column {column} sums to {total}, expected 1")


class DimensionMismatch(ComposecError):
    pass


class InterfaceMismatch(ComposecError):
    pass


class BadPermutation(ComposecError):
    pass


class ElementOutOfRange(ComposecError):
    pass


class BadPortSelection(ComposecError):
    pass


# -- combs and linking -------------------------------------------------------

class ChainMismatch(ComposecError):
    pass


class NotCausal(ComposecError):
    pass


class AlphabetMismatch(ComposecError):
    pass


class DirectionMismatch(ComposecError):
    pass


class AcausalSchedule(ComposecError):
    pass


class SignatureMismatch(ComposecError):
    pass


class DuplicatePortId(ComposecError):
    pass


class BadParties(ComposecError):
    pass


# -- protocols, attacks, no-go ------------------------------------------------

class WiringMismatch(ComposecError):
    pass


class NotDeterministic(ComposecError):
    pass


class CompositeVerificationFailed(ComposecError):
    """A composed simulator failed re-verification; signals a library bug."""


class ProblemTooLarge(ComposecError):
    pass


class ShapeMismatch(ComposecError):
    pass


# -- groups ------------------------------------------------------------------

class NotLatinSquare(ComposecError):
    pass


class NotAssociative(ComposecError):
    pass


class NoIdentity(ComposecError):
    pass


# -- cli -----------------------------------------------------------------------

class ParseError(ComposecError):
    def __init__(self, line: int, col: int, expected: str) -> None:
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class UnresolvedName(ComposecError):
    pass


class DuplicateName(ComposecError):
    pass
