"""Inline polynomial syntax for the command line and tables.

Monomials are '+'-separated with caret powers; coefficients are the
integer encodings of field elements, attached with '*':

    x^5+x^3        2*x^6+x+1        3*x^2+2        0

Repeated monomials are summed in the field.  Rendering is the inverse,
``poly.to_string``: high degree first, omitting unit coefficients.
"""

from __future__ import annotations

import re

from .errors import PolySyntaxError
from .fields import FiniteField
from .poly import Poly, trim

_TERM = re.compile(
    r"^(?:(?P<coeff>\d+)\*)?(?P<var>x)(?:\^(?P<exp>\d+))?$|^(?P<const>\d+)$")


def parse_poly(text: str, field: FiniteField) -> Poly:
    """Coefficient tuple (low degree first) from the inline syntax."""
    compact = text.replace(" ", "")
    if not compact:
        raise PolySyntaxError("empty polynomial")
    coeffs: dict[int, int] = {}
    for term in compact.split("+"):
        m = _TERM.match(term)
        if not m:
            raise PolySyntaxError(f"cannot parse monomial {term!r}")
        if m.group("const") is not None:
            power = 0
            c = int(m.group("const"))
        else:
            power = int(m.group("exp")) if m.group("exp") else 1
            c = int(m.group("coeff")) if m.group("coeff") else 1
        if not 0 <= c < field.q:
            raise PolySyntaxError(f"coefficient {c} is not an element encoding below {field.q}")
        coeffs[power] = field.add(coeffs.get(power, 0), c)
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return trim(out)
