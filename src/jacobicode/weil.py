"""Weil polynomials of genus-2 Jacobians from point counts.

The quartic t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2 is recovered exactly from
(N1, N2); the group order is the value at 1, cross-checked through Newton's
identities, and the factorization over the integers is read off in closed
form from the real quadratic g with f(t) = t^2 g(t + q/t) (a perfect-square
discriminant of g splits f into two quadratics), then checked by
multiplying back.  Simplicity of the Jacobian is decided from the
factorization shape and, for a square h^2, from whether h is the Frobenius
polynomial of an elliptic curve (Waterhouse 1969, Thm 4.1).

Everything here depends on the isogeny class (q, c1, c2) alone, never on
the curve, so ``weil_from_counts`` (keyed by (q, N1, N2)) and
``classify_simplicity`` (keyed by the Weil data) are memoized in LRU caches
of ``CLASS_CACHE_SIZE`` entries; a search meets far fewer classes than
curves.  The cached records are immutable NamedTuples.  An exception is
never cached, so invalid counts raise on every call.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

from .errors import InconsistentCountsError, NotPrimeError
from .fields import prime_power

IntPoly = tuple[int, ...]  # integer coefficients, low degree first

# entries of each per-class cache; F_16 has 713 classes and F_64 has 5521
CLASS_CACHE_SIZE = 4096


def serre_constant(q: int) -> int:
    """Integer part of 2*sqrt(q), computed exactly as isqrt(4q)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return math.isqrt(4 * q)


def _characteristic(q: int) -> int:
    try:
        return prime_power(q)[0]
    except NotPrimeError as exc:
        raise InconsistentCountsError(str(exc)) from None


def poly_mul_z(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _nonneg_with_sqrt(a: int, b: int, q: int) -> bool:
    """Exact test of a + b*sqrt(q) >= 0 for integers a, b."""
    if a >= 0 and b >= 0:
        return True
    if a < 0 and b < 0:
        return False
    if b >= 0:  # a < 0
        return b * b * q >= a * a
    return a * a >= b * b * q


def quartic_roots_on_circle(q: int, c1: int, c2: int) -> bool:
    """Exact check that t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2 has all complex
    roots of modulus sqrt(q).

    Writing f(t) = t^2 g(t + q/t) with g(s) = s^2 + c1 s + (c2 - 2q), the
    condition is that g has two real roots in [-2 sqrt(q), 2 sqrt(q)]:
    non-negative discriminant, vertex inside the interval, and g >= 0 at
    both endpoints, each testable in integers.
    """
    if c1 * c1 > 16 * q:
        return False
    if c1 * c1 - 4 * c2 + 8 * q < 0:
        return False
    return (_nonneg_with_sqrt(2 * q + c2, 2 * c1, q)
            and _nonneg_with_sqrt(2 * q + c2, -2 * c1, q))


class _WeilFields(NamedTuple):
    q: int
    p: int
    c1: int
    c2: int


class WeilData(_WeilFields):
    """Coefficients (q, c1, c2) of t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2.

    c1 equals the trace term: N1 = q + 1 + c1.  Construction validates int
    fields, the prime power, the Serre bound on c1, and (exactly) that all
    complex roots have modulus sqrt(q).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "WeilData":
        self = super().__new__(cls, *args, **kwargs)
        # 2 and 2.0 are one key of the class caches, so only an int passes
        if any(type(v) is not int for v in self):
            raise InconsistentCountsError("q, p, c1 and c2 must be integers")
        if self.p != _characteristic(self.q):
            raise InconsistentCountsError(
                f"p = {self.p} is not the characteristic of q = {self.q}")
        m = serre_constant(self.q)
        if abs(self.c1) > 2 * m:
            raise InconsistentCountsError(
                f"|c1| = {abs(self.c1)} exceeds the Serre bound 2*[2*sqrt(q)] = {2 * m}")
        if not quartic_roots_on_circle(self.q, self.c1, self.c2):
            raise InconsistentCountsError(
                "not all roots of the quartic have modulus sqrt(q)")
        return self

    def coefficients(self) -> IntPoly:
        q, c1, c2 = self.q, self.c1, self.c2
        return (q * q, q * c1, c2, c1, 1)

    def to_dict(self) -> dict:
        return {"q": self.q, "p": self.p, "c1": self.c1, "c2": self.c2}


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def weil_from_counts(q: int, n1: int, n2: int) -> WeilData:
    """Invert N_k = q^k + 1 - (k-th power sum of the Frobenius roots), k = 1, 2."""
    if n1 < 0 or n2 < 0:
        raise InconsistentCountsError("point counts must be non-negative")
    p = _characteristic(q)
    c1 = n1 - (q + 1)
    twice_c2 = (q + 1 - n1) ** 2 - (q * q + 1 - n2)
    if twice_c2 % 2:
        raise InconsistentCountsError(
            f"counts N1={n1}, N2={n2} over F_{q} give a half-integer middle coefficient")
    return WeilData(q=q, p=p, c1=c1, c2=twice_c2 // 2)


def power_sums(w: WeilData, k_max: int) -> list[int]:
    """Power sums p_1..p_k of the four roots, by Newton's identities:
    p_k = -(k a_k + a_1 p_(k-1) + ... + a_(k-1) p_1), with a_1..a_4 the
    quartic's coefficients below the leading one and a_k = 0 for k > 4."""
    a = [0, w.c1, w.c2, w.q * w.c1, w.q * w.q] + [0] * max(0, k_max - 4)
    ps = [0] * (k_max + 1)
    for k in range(1, k_max + 1):
        ps[k] = -(k * a[k] + sum(a[i] * ps[k - i] for i in range(1, min(k, 5))))
    return ps


def jacobian_order(w: WeilData) -> int:
    """Value of the quartic at 1; cross-checked against (N2 + N1^2)/2 - q."""
    n = 1 + w.c1 + w.c2 + w.q * w.c1 + w.q * w.q
    ps = power_sums(w, 2)
    n1 = w.q + 1 - ps[1]
    n2 = w.q ** 2 + 1 - ps[2]
    alt = (n2 + n1 * n1) // 2 - w.q
    if 2 * alt != n2 + n1 * n1 - 2 * w.q or alt != n:
        raise AssertionError(f"order formulas disagree: {n} vs {alt}")
    return n


class FactorShape(enum.Enum):
    IRREDUCIBLE_QUARTIC = "irreducible-quartic"
    TWO_QUADRATICS = "two-quadratics"
    SQUARE_OF_QUADRATIC = "square-of-quadratic"
    HAS_LINEAR_FACTORS = "has-linear-factors"


class WeilFactorization(NamedTuple):
    """Factorization over Z as ((monic poly, multiplicity), ...), plus its shape."""

    factors: tuple[tuple[IntPoly, int], ...]
    shape: FactorShape

    def expand(self) -> IntPoly:
        out: IntPoly = (1,)
        for fac, mult in self.factors:
            for _ in range(mult):
                out = poly_mul_z(out, fac)
        return out


def factor_weil(w: WeilData) -> WeilFactorization:
    """Complete factorization over the integers, in closed form.

    Write f(t) = t^2 g(t + q/t) with g(s) = s^2 + c1 s + (c2 - 2q), whose
    discriminant is D = c1^2 - 4(c2 - 2q) >= 0.  Every root of f has
    modulus sqrt(q), so a monic integer quadratic factor is either
    t^2 - s t + q with g(s) = 0 (a conjugate pair, or a real double root
    when s = +-2 sqrt(q)), or t^2 - q (the real pair +-sqrt(q)).  Hence:

    * D = r^2: f = (t^2 - s+ t + q)(t^2 - s- t + q), s+- = (-c1 +- r)/2,
      where a factor with s = +-2 sqrt(q) is the linear square
      (t -+ sqrt(q))^2 and equal factors merge into one square;
    * otherwise the roots of g are irrational, so only t^2 - q can divide
      f, and then its cofactor holds the same roots +-sqrt(q): f is
      (t^2 - q)^2, which is the case c1 = 0, c2 = -2q (q not a square);
    * otherwise f is irreducible.
    """
    q, c1, c2 = w.q, w.c1, w.c2
    mult: dict[IntPoly, int] = {}
    d = c1 * c1 - 4 * (c2 - 2 * q)
    r = math.isqrt(d)
    if r * r == d:
        for s in ((-c1 + r) // 2, (-c1 - r) // 2):
            if s * s == 4 * q:  # t^2 - s t + q = (t - s/2)^2
                fac, k = (-(s // 2), 1), 2
            else:
                fac, k = (q, -s, 1), 1
            mult[fac] = mult.get(fac, 0) + k
    elif c1 == 0 and c2 == -2 * q:
        mult[(-q, 0, 1)] = 2
    else:
        mult[w.coefficients()] = 1
    factors = sorted(mult.items(), key=lambda fm: (len(fm[0]), fm[0]))
    result = WeilFactorization(tuple(factors), _shape_of(factors))
    if result.expand() != w.coefficients():
        raise AssertionError("factorization does not multiply back to the quartic")
    return result


def _shape_of(factors: list[tuple[IntPoly, int]]) -> FactorShape:
    if any(len(fac) == 2 for fac, _ in factors):
        return FactorShape.HAS_LINEAR_FACTORS
    if len(factors) == 1:
        fac, mult = factors[0]
        if len(fac) == 5:
            return FactorShape.IRREDUCIBLE_QUARTIC
        if mult == 2:
            return FactorShape.SQUARE_OF_QUADRATIC
    return FactorShape.TWO_QUADRATICS


class Verdict(enum.Enum):
    SIMPLE = "simple"
    NOT_SIMPLE = "not-simple"


class SimplicityVerdict(NamedTuple):
    verdict: Verdict
    reason: str

    @property
    def is_simple(self) -> bool:
        return self.verdict is Verdict.SIMPLE


def _elliptic_trace(q: int, p: int, s: int) -> bool:
    """Whether t^2 - s t + q, with s^2 <= 4q, is the Frobenius polynomial of
    an elliptic curve over F_q, q = p^a (Waterhouse 1969, Thm 4.1)."""
    if s % p:
        return True  # ordinary
    if math.isqrt(q) ** 2 != q:  # a odd
        return s == 0 or (p in (2, 3) and s * s == p * q)
    return s * s == 4 * q or (s * s == q and p % 3 != 1) or (s == 0 and p % 4 != 1)


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def classify_simplicity(w: WeilData) -> SimplicityVerdict:
    """Simple or not simple, from the factorization shape.

    Linear factors and two distinct quadratics split the class into elliptic
    pieces; a non-elliptic quadratic is never a single factor of a surface's
    polynomial (Tate-Honda).  A square h^2 belongs to E x E when h is the
    Frobenius polynomial of an elliptic curve E, and is otherwise simple or
    belongs to no surface.  h = t^2 - q, q not a square, is never elliptic:
    its Weil number sqrt(q) is real.
    """
    fac = factor_weil(w)
    if fac.shape is FactorShape.IRREDUCIBLE_QUARTIC:
        return SimplicityVerdict(Verdict.SIMPLE, "irreducible-quartic")
    if fac.shape is FactorShape.HAS_LINEAR_FACTORS:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "linear-factors")
    if fac.shape is FactorShape.TWO_QUADRATICS:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "distinct-quadratics")
    (gamma, b, _), _ = fac.factors[0]
    if gamma != w.q or not _elliptic_trace(w.q, w.p, -b):
        return SimplicityVerdict(Verdict.SIMPLE, "non-elliptic-square")
    if b % w.p:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "ordinary-square")
    return SimplicityVerdict(Verdict.NOT_SIMPLE, "supersingular-square")
