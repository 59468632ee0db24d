"""Exception types shared across the package.

ParseError, DimensionMismatch and IndexOutOfRange are input errors and
ValueErrors; the other QrefineErrors are solver errors.
"""


class QrefineError(Exception):
    """Base class for all qrefine errors."""


class DimensionMismatch(QrefineError, ValueError):
    pass


class IndexOutOfRange(QrefineError, ValueError):
    pass


class SingularMatrix(QrefineError):
    pass


class TooLarge(QrefineError):
    pass


class TooManyQubits(QrefineError):
    pass


class ParseError(QrefineError, ValueError):
    pass
