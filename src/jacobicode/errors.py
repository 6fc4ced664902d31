"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` used by the CLI: 1 for bad input,
2 for internal tripwires (conditions that can only mean an implementation
bug, surfaced loudly rather than papered over).  Errors about malformed
input values also subclass ``ValueError``.
"""

from __future__ import annotations


class JacobicodeError(Exception):
    exit_code = 1


# -- finite fields ---------------------------------------------------------

class NotPrimeError(JacobicodeError):
    pass


class ReducibleModulusError(JacobicodeError):
    pass


class FieldTooLargeError(JacobicodeError):
    pass


class DivisionByZeroError(JacobicodeError, ZeroDivisionError):
    pass


# -- curve models ----------------------------------------------------------

class WrongDegreeError(JacobicodeError):
    pass


class SingularModelError(JacobicodeError):
    pass


class GenusNotTwoError(JacobicodeError):
    pass


class BudgetExceededError(JacobicodeError):
    """An exhaustive enumeration was asked to exceed its size budget."""


class MalformedCurveError(JacobicodeError, ValueError):
    """Curve data of the wrong shape: missing keys, or coefficients that are
    not integer encodings of field elements."""


class PolySyntaxError(JacobicodeError, ValueError):
    """Inline polynomial text that does not parse."""


# -- Weil data -------------------------------------------------------------

class InconsistentCountsError(JacobicodeError):
    """Point counts that cannot come from a genus-2 Jacobian."""


# -- Jacobian group oracle -------------------------------------------------

class InvalidDivisorError(JacobicodeError):
    pass


class RealModelUnsupportedError(JacobicodeError):
    pass


class NonZeroSumError(JacobicodeError):
    pass


class OrderMismatchError(JacobicodeError):
    """Exhaustive group enumeration disagrees with the zeta-derived order.

    This cannot happen for a validated model unless the implementation is
    broken, so it is a tripwire, not an input error.
    """

    exit_code = 2


# -- code-parameter calculators --------------------------------------------

class TraceHypothesisViolatedError(JacobicodeError):
    pass


class InvalidRError(JacobicodeError):
    pass


class InvalidGenusError(JacobicodeError, ValueError):
    pass


# -- search ----------------------------------------------------------------

class SpaceTooLargeError(JacobicodeError):
    pass


class InvalidSearchSpaceError(JacobicodeError, ValueError):
    pass
