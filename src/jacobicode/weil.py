"""Weil polynomials of genus-2 Jacobians from point counts.

The quartic t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2 is recovered exactly from
(N1, N2); extension counts come back out through Newton's identities, the
group order is the value at 1, and the factorization over the integers is
found by a finite search over quadratic factors (constant term dividing
q^2, middle coefficient bounded by the root modulus) verified by exact
division.  Simplicity of the Jacobian is decided from the factorization
shape alone; the repeated-quadratic case with middle coefficient divisible
by the characteristic is deliberately left Unknown.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InconsistentCountsError
from .fields import prime_factors

IntPoly = tuple[int, ...]  # integer coefficients, low degree first


def serre_constant(q: int) -> int:
    """Integer part of 2*sqrt(q), computed exactly as isqrt(4q)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return math.isqrt(4 * q)


def _char_of_prime_power(q: int) -> int:
    p = prime_factors(q)[0]
    n = q
    while n > 1:
        if n % p:
            raise InconsistentCountsError(f"q = {q} is not a prime power")
        n //= p
    return p


# -- exact integer polynomial helpers ----------------------------------------

def poly_mul_z(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def poly_divmod_z(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Division with remainder over Z; b must be monic."""
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    while len(rem) > db:
        c = rem[-1]
        shift = len(rem) - 1 - db
        if c:
            quot[shift] = c
            for i in range(db):
                rem[shift + i] -= c * b[i]
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def poly_divides(g: IntPoly, f: IntPoly) -> bool:
    """Exact divisibility of monic integer polynomials."""
    if not g or g[-1] != 1 or not f or f[-1] != 1:
        raise ValueError("both polynomials must be monic with integer coefficients")
    _, rem = poly_divmod_z(f, g)
    return not rem


def poly_eval_z(a: IntPoly, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


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


def quadratic_roots_on_circle(q: int, b: int, gamma: int) -> bool:
    """Exact check that t^2 + b t + gamma has both roots of modulus sqrt(q)."""
    disc = b * b - 4 * gamma
    if disc < 0:
        return gamma == q
    if disc == 0:
        return b * b == 4 * q
    return gamma == -q and b == 0


@dataclass(frozen=True)
class WeilData:
    """Coefficients (q, c1, c2) of t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2.

    c1 equals the trace term: N1 = q + 1 + c1.  Construction validates the
    prime power, the Serre bound on c1, and (exactly) that all complex
    roots have modulus sqrt(q).
    """

    q: int
    p: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.p != _char_of_prime_power(self.q):
            raise InconsistentCountsError(
                f"p = {self.p} is not the characteristic of q = {self.q}")
        m = serre_constant(self.q)
        if abs(self.c1) > 2 * m:
            raise InconsistentCountsError(
                f"|c1| = {abs(self.c1)} exceeds the Serre bound 2*[2*sqrt(q)] = {2 * m}")
        if not quartic_roots_on_circle(self.q, self.c1, self.c2):
            raise InconsistentCountsError(
                "not all roots of the quartic have modulus sqrt(q)")

    def coefficients(self) -> IntPoly:
        q, c1, c2 = self.q, self.c1, self.c2
        return (q * q, q * c1, c2, c1, 1)

    def to_dict(self) -> dict:
        return {"q": self.q, "p": self.p, "c1": self.c1, "c2": self.c2}


def weil_from_counts(q: int, n1: int, n2: int) -> WeilData:
    """Invert N_k = q^k + 1 - (k-th power sum of the Frobenius roots), k = 1, 2."""
    if n1 < 0 or n2 < 0:
        raise InconsistentCountsError("point counts must be non-negative")
    p = _char_of_prime_power(q)
    c1 = n1 - (q + 1)
    twice_c2 = (q + 1 - n1) ** 2 - (q * q + 1 - n2)
    if twice_c2 % 2:
        raise InconsistentCountsError(
            f"counts N1={n1}, N2={n2} over F_{q} give a half-integer middle coefficient")
    return WeilData(q=q, p=p, c1=c1, c2=twice_c2 // 2)


def power_sums(w: WeilData, k_max: int) -> list[int]:
    """Power sums p_1..p_k of the four roots, by Newton's identities."""
    a1, a2, a3, a4 = w.c1, w.c2, w.q * w.c1, w.q * w.q
    ps = [0] * (k_max + 1)
    if k_max >= 1:
        ps[1] = -a1
    if k_max >= 2:
        ps[2] = -(a1 * ps[1] + 2 * a2)
    if k_max >= 3:
        ps[3] = -(a1 * ps[2] + a2 * ps[1] + 3 * a3)
    if k_max >= 4:
        ps[4] = -(a1 * ps[3] + a2 * ps[2] + a3 * ps[1] + 4 * a4)
    for k in range(5, k_max + 1):
        ps[k] = -(a1 * ps[k - 1] + a2 * ps[k - 2] + a3 * ps[k - 3] + a4 * ps[k - 4])
    return ps


def extension_count(w: WeilData, k: int) -> int:
    """N_k = q^k + 1 - p_k, exactly; k in 1..8."""
    if not 1 <= k <= 8:
        raise ValueError("extension degree k must be in 1..8")
    return w.q ** k + 1 - power_sums(w, k)[k]


def jacobian_order(w: WeilData) -> int:
    """Value of the quartic at 1; cross-checked against (N2 + N1^2)/2 - q."""
    n = 1 + w.c1 + w.c2 + w.q * w.c1 + w.q * w.q
    n1 = extension_count(w, 1)
    n2 = extension_count(w, 2)
    alt = (n2 + n1 * n1) // 2 - w.q
    if 2 * alt != n2 + n1 * n1 - 2 * w.q or alt != n:
        raise AssertionError(f"order formulas disagree: {n} vs {alt}")
    return n


class FactorShape(enum.Enum):
    IRREDUCIBLE_QUARTIC = "irreducible-quartic"
    TWO_QUADRATICS = "two-quadratics"
    SQUARE_OF_QUADRATIC = "square-of-quadratic"
    HAS_LINEAR_FACTORS = "has-linear-factors"


@dataclass(frozen=True)
class WeilFactorization:
    """Factorization over Z as ((monic poly, multiplicity), ...), plus its shape."""

    factors: tuple[tuple[IntPoly, int], ...]
    shape: FactorShape

    def expand(self) -> IntPoly:
        out: IntPoly = (1,)
        for fac, mult in self.factors:
            for _ in range(mult):
                out = poly_mul_z(out, fac)
        return out


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def factor_weil(w: WeilData) -> WeilFactorization:
    """Complete factorization over the integers by finite search.

    Rational roots can only be +-sqrt(q), so linear factors are attempted
    only for square q.  A monic quadratic factor has constant term dividing
    q^2 (in fact +-q) and middle coefficient bounded by twice the root
    modulus; candidates are confirmed by exact division, so the search is
    exhaustive for monic quartics of this shape.
    """
    f = w.coefficients()
    q = w.q
    factors: list[tuple[IntPoly, int]] = []

    s = math.isqrt(q)
    if s * s == q:
        for root in (s, -s):
            lin = (-root, 1)
            mult = 0
            while poly_eval_z(f, root) == 0 and len(f) > 1:
                f, rem = poly_divmod_z(f, lin)
                assert not rem
                mult += 1
            if mult:
                factors.append((lin, mult))

    deg = len(f) - 1
    if deg == 2:
        factors.append((f, 1))
    elif deg == 4:
        bound = serre_constant(q) + 1
        found = None
        for d in _divisors(q * q):
            for gamma in (d, -d):
                for b in range(-bound, bound + 1):
                    cand = (gamma, b, 1)
                    if poly_divides(cand, f):
                        found = cand
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            factors.append((f, 1))
        else:
            cofactor, rem = poly_divmod_z(f, found)
            assert not rem
            if cofactor == found:
                factors.append((found, 2))
            else:
                factors.append((found, 1))
                factors.append((cofactor, 1))

    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
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
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SimplicityVerdict:
    verdict: Verdict
    reason: str

    @property
    def is_simple(self) -> bool:
        return self.verdict is Verdict.SIMPLE


def classify_simplicity(w: WeilData) -> SimplicityVerdict:
    """Simple / not simple / unknown from the factorization shape.

    Any proper factor corresponds to an elliptic piece of the isogeny
    class, so only the irreducible quartic is certified simple.  A repeated
    quadratic with middle coefficient prime to p is the ordinary square
    case (isogenous to E x E); with p dividing the middle coefficient no
    decision procedure is implemented and the verdict stays Unknown.
    """
    fac = factor_weil(w)
    if fac.shape is FactorShape.IRREDUCIBLE_QUARTIC:
        return SimplicityVerdict(Verdict.SIMPLE, "irreducible-quartic")
    if fac.shape is FactorShape.HAS_LINEAR_FACTORS:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "linear-factors")
    if fac.shape is FactorShape.TWO_QUADRATICS:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "distinct-quadratics")
    quad = fac.factors[0][0]
    b = quad[1]
    if math.gcd(b, w.p) == 1:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "ordinary-square")
    return SimplicityVerdict(Verdict.UNKNOWN, "repeated-quadratic-undecided")
