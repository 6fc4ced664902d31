"""Polynomials over a FiniteField as tuples of integer encodings.

Coefficients are stored low degree first; the zero polynomial is the empty
tuple.  Every function takes the field explicitly and returns trimmed
tuples, so values can be hashed, compared and serialized directly.

The inline syntax of the command line and the tables is kept here too:
monomials are '+'-separated with caret powers, and coefficients are the
integer encodings of field elements, attached with '*':

    x^5+x^3        2*x^6+x+1        3*x^2+2        0

``parse_poly`` sums repeated monomials in the field; ``to_string`` is its
inverse, high degree first, omitting unit coefficients.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import PolySyntaxError
from .fields import FiniteField

Poly = tuple[int, ...]


def trim(c: Sequence[int]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(a: Sequence[int]) -> int:
    return len(a) - 1


def is_monic(a: Sequence[int]) -> bool:
    return bool(a) and a[-1] == 1


def coefficient(a: Sequence[int], i: int) -> int:
    return a[i] if i < len(a) else 0


def add(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> Poly:
    fadd = F.add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = fadd(out[i], c)
    return trim(out)


def neg(F: FiniteField, a: Sequence[int]) -> Poly:
    fneg = F.neg
    return tuple(fneg(c) for c in a)


def sub(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> Poly:
    return add(F, a, neg(F, b))


def scale(F: FiniteField, a: Sequence[int], k: int) -> Poly:
    if k == 0:
        return ()
    fmul = F.mul
    return trim(fmul(c, k) for c in a)


def mul(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> Poly:
    if not a or not b:
        return ()
    fadd, fmul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = fadd(out[i + j], fmul(ai, bj))
    return trim(out)


def divmod_(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a nonzero b."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    fadd, fmul, fneg, finv = F.add, F.mul, F.neg, F.inv
    rem = list(a)
    db = len(b) - 1
    lead_inv = finv(b[-1])
    quot = [0] * max(0, len(rem) - db)
    while len(rem) > db:
        c = fmul(rem[-1], lead_inv)
        shift = len(rem) - 1 - db
        if c:
            quot[shift] = c
            nc = fneg(c)
            for i in range(db):
                rem[shift + i] = fadd(rem[shift + i], fmul(nc, b[i]))
        rem.pop()
    return trim(quot), trim(rem)


def mod(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> Poly:
    return divmod_(F, a, b)[1]


def monic(F: FiniteField, a: Sequence[int]) -> Poly:
    a = trim(a)
    if not a or a[-1] == 1:
        return a
    return scale(F, a, F.inv(a[-1]))


def gcd(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> Poly:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod(F, a, b)
    return monic(F, a)


def ext_gcd(F: FiniteField, a: Sequence[int], b: Sequence[int]) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*a + t*b = g and g the monic gcd."""
    r0, r1 = trim(a), trim(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
        t0, t1 = t1, sub(F, t0, mul(F, q, t1))
    if r0 and r0[-1] != 1:
        c = F.inv(r0[-1])
        r0, s0, t0 = scale(F, r0, c), scale(F, s0, c), scale(F, t0, c)
    return r0, s0, t0


def derivative(F: FiniteField, a: Sequence[int]) -> Poly:
    p = F.p
    fmul = F.mul
    return trim(fmul(a[i], i % p) for i in range(1, len(a)))


def to_string(a: Sequence[int], var: str = "x") -> str:
    """Render with caret powers and '+'-separated monomials, high degree first."""
    a = trim(a)
    if not a:
        return "0"
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xp = var if i == 1 else f"{var}^{i}"
            terms.append(xp if c == 1 else f"{c}*{xp}")
    return "+".join(terms)


MAX_EXPONENT = 6

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
        const, exp, coeff = m.group("const", "exp", "coeff")
        try:  # int() refuses more than sys.get_int_max_str_digits() digits
            power = 0 if const else int(exp or 1)
            c = int(const or coeff or 1)
        except ValueError:
            raise PolySyntaxError(f"too many digits in monomial {term[:20]}...") from None
        if power > MAX_EXPONENT:  # checked before a list of power + 1 entries exists
            raise PolySyntaxError(f"exponent {power} exceeds {MAX_EXPONENT}, the largest degree")
        if not 0 <= c < field.q:
            raise PolySyntaxError(f"coefficient {c} is not an element encoding below {field.q}")
        coeffs[power] = field.add(coeffs.get(power, 0), c)
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return trim(out)
