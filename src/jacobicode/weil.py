"""Weil polynomials of genus-2 Jacobians from point counts.

The quartic t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2 is recovered exactly from
(N1, N2), and the group order is its value at 1.  Simplicity of the
Jacobian is read in closed form from (q, c1, c2): the real quadratic g with
f(t) = t^2 g(t + q/t) tells whether f is irreducible, a product of two
quadratics or linear factors, or a square h^2, and for a square whether h
is the Frobenius polynomial of an elliptic curve (Waterhouse 1969,
Thm 4.1).  The factorization itself is never built.

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


def quartic_roots_on_circle(q: int, c1: int, c2: int) -> bool:
    """Exact check that t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2 has all complex
    roots of modulus sqrt(q).

    Writing f(t) = t^2 g(t + q/t) with g(s) = s^2 + c1 s + (c2 - 2q), the
    condition is that g has two real roots in [-2 sqrt(q), 2 sqrt(q)]:
    non-negative discriminant, vertex -c1/2 inside the interval, and
    g(+-2 sqrt(q)) = 2q + c2 +- 2 c1 sqrt(q) >= 0, i.e. 2q + c2 >= 2|c1| sqrt(q).
    """
    return (c1 * c1 - 4 * c2 + 8 * q >= 0 and c1 * c1 <= 16 * q
            and 2 * q + c2 >= 0 and (2 * q + c2) ** 2 >= 4 * q * c1 * c1)


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


def jacobian_order(w: WeilData) -> int:
    """Value of the quartic at 1, the order of the group of F_q-points."""
    return 1 + w.c1 + w.c2 + w.q * w.c1 + w.q * w.q


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
    """Simple or not simple, in closed form from (q, c1, c2).

    Write f(t) = t^2 g(t + q/t) with g(s) = s^2 + c1 s + (c2 - 2q), whose
    discriminant is D = c1^2 - 4(c2 - 2q) >= 0.  Every root of f has
    modulus sqrt(q), so a monic integer quadratic factor of f is either
    t^2 - s t + q with g(s) = 0, or t^2 - q.  Hence:

    * D not a square: the roots of g are irrational, so f is irreducible
      unless it is (t^2 - q)^2 (c1 = 0, c2 = -2q, q not a square), which is
      simple, as its Weil number sqrt(q) is real and so never elliptic;
    * D = r^2: f = (t^2 - s1 t + q)(t^2 - s2 t + q), s1,2 = (-c1 +- r)/2.
      A factor with s^2 = 4q is the linear square (t - s/2)^2; linear
      factors or two distinct quadratics split the class into elliptic
      pieces (Tate-Honda).  For r = 0, f = h^2 belongs to E x E when h is
      the Frobenius polynomial of an elliptic curve E, else it is simple.

    A square with 0 < v_p(s1) < a/2 belongs to no surface (Tate-Honda forces
    h to multiplicity 3 or more); it still reads "non-elliptic-square".
    """
    q, c1 = w.q, w.c1
    d = c1 * c1 - 4 * (w.c2 - 2 * q)
    r = math.isqrt(d)
    if r * r != d:
        if c1 == 0 and w.c2 == -2 * q:
            return SimplicityVerdict(Verdict.SIMPLE, "non-elliptic-square")
        return SimplicityVerdict(Verdict.SIMPLE, "irreducible-quartic")
    s1, s2 = (-c1 + r) // 2, (-c1 - r) // 2
    if 4 * q in (s1 * s1, s2 * s2):
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "linear-factors")
    if r:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "distinct-quadratics")
    if not _elliptic_trace(q, w.p, s1):
        return SimplicityVerdict(Verdict.SIMPLE, "non-elliptic-square")
    if s1 % w.p:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "ordinary-square")
    return SimplicityVerdict(Verdict.NOT_SIMPLE, "supersingular-square")
