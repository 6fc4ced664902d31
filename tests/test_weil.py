"""Weil data: round trips, Newton identities, factorization, simplicity."""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobicode.curves import count_points
from jacobicode.errors import InconsistentCountsError, NotPrimeError
from jacobicode.fields import field_from_order, prime_power
from jacobicode.weil import (
    SimplicityVerdict,
    Verdict,
    WeilData,
    _elliptic_trace,
    classify_simplicity,
    jacobian_order,
    quartic_roots_on_circle,
    serre_constant,
    weil_from_counts,
)


IntPoly = tuple[int, ...]  # integer coefficients, low degree first

# prime powers up to 32, the fields of the elliptic-trace census
CENSUS_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def quartic(w: WeilData) -> IntPoly:
    """Coefficients of t^4 + c1 t^3 + c2 t^2 + q c1 t + q^2, low degree first."""
    return (w.q * w.q, w.q * w.c1, w.c2, w.c1, 1)


def power_sums(w: WeilData, k_max: int) -> list[int]:
    """Power sums p_1..p_k of the four roots, by Newton's identities:
    p_k = -(k a_k + a_1 p_(k-1) + ... + a_(k-1) p_1), with a_1..a_4 the
    quartic's coefficients below the leading one and a_k = 0 for k > 4."""
    a = [0, w.c1, w.c2, w.q * w.c1, w.q * w.q] + [0] * max(0, k_max - 4)
    ps = [0] * (k_max + 1)
    for k in range(1, k_max + 1):
        ps[k] = -(k * a[k] + sum(a[i] * ps[k - i] for i in range(1, min(k, 5))))
    return ps


def extension_count(w: WeilData, k: int) -> int:
    """N_k = q^k + 1 - p_k from the Weil data, exactly; k in 1..8."""
    if not 1 <= k <= 8:
        raise ValueError("extension degree k must be in 1..8")
    return w.q ** k + 1 - power_sums(w, k)[k]


def numeric_root_moduli(coeffs_low_first) -> list[float]:
    """Moduli of the complex roots, double precision (cross-check only).

    Only trustworthy for simple roots; repeated roots scatter by far more
    than 1e-9 under eigenvalue-based root finding, which is why the library
    uses the exact circle criterion instead.
    """
    roots = np.roots(list(reversed(coeffs_low_first)))
    return sorted(float(abs(r)) for r in roots)


def quadratic_roots_on_circle(q: int, b: int, gamma: int) -> bool:
    """Exact check that t^2 + b t + gamma has both roots of modulus sqrt(q)."""
    disc = b * b - 4 * gamma
    if disc < 0:
        return gamma == q
    if disc == 0:
        return b * b == 4 * q
    return gamma == -q and b == 0


# -- the factorization over Z by trial division, the oracle of the verdicts --

def poly_mul_z(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


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


@lru_cache(maxsize=None)  # both grid tests read the search on all 13,962 classes
def factor_weil_search(w: WeilData) -> WeilFactorization:
    """Complete factorization over the integers by finite search.

    Rational roots can only be +-sqrt(q), so linear factors are attempted
    only for square q.  A monic quadratic factor has constant term dividing
    q^2 (in fact +-q) and middle coefficient bounded by twice the root
    modulus; candidates are confirmed by exact division, so the search is
    exhaustive for monic quartics of this shape.
    """
    f = quartic(w)
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
    if result.expand() != quartic(w):
        raise AssertionError("factorization does not multiply back to the quartic")
    return result


def weil_grid(q_max: int):
    """Every WeilData with q a prime power <= q_max, c1 in [-2m, 2m] and
    c2 in [-2q, 6q], where m = serre_constant(q)."""
    for q in range(2, q_max + 1):
        try:
            p, _ = prime_power(q)
        except NotPrimeError:
            continue
        m = serre_constant(q)
        for c1 in range(-2 * m, 2 * m + 1):
            for c2 in range(-2 * q, 6 * q + 1):
                try:
                    yield WeilData(q=q, p=p, c1=c1, c2=c2)
                except InconsistentCountsError:
                    continue


def _weierstrass_models(F):
    """(a1, a3, a2, a4, a6) of Weierstrass models with nonzero discriminant
    covering every isomorphism class of elliptic curves over F."""
    els = F.elements()
    add, mul, p = F.add, F.mul, F.p
    if p == 2:  # discriminants a6 and a3^4
        yield from ((1, 0, a2, 0, a6) for a2 in els for a6 in els if a6)
        yield from ((0, a3, 0, a4, a6) for a3 in els if a3 for a4 in els for a6 in els)
    elif p == 3:  # y^2 = x^3 + a2 x^2 + a4 x + a6: a2^2 a4^2 - a4^3 - a2^3 a6
        for a2 in els:
            for a4 in els:
                for a6 in els:
                    a2a4 = mul(a2, a4)
                    if F.sub(mul(a2a4, a2a4), add(F.pow_(a4, 3), mul(F.pow_(a2, 3), a6))):
                        yield 0, 0, a2, a4, a6
    else:  # y^2 = x^3 + a4 x + a6: 4 a4^3 + 27 a6^2
        yield from ((0, 0, 0, a4, a6) for a4 in els for a6 in els
                    if add(mul(4 % p, F.pow_(a4, 3)), mul(27 % p, mul(a6, a6))))


@lru_cache(maxsize=None)
def elliptic_traces(q: int) -> frozenset[int]:
    """Traces q + 1 - #E(F_q) of every elliptic curve over F_q, by counting
    the points of every model of ``_weierstrass_models``."""
    F = field_from_order(q)
    els = F.elements()
    add, mul = F.add, F.mul
    solutions = [[0] * q for _ in els]  # #{y : y^2 + b y = c} at [b][c]
    for b in els:
        for y in els:
            solutions[b][mul(y, add(y, b))] += 1
    squares = [mul(x, x) for x in els]
    cubes = [mul(x2, x) for x, x2 in zip(els, squares)]
    traces = set()
    for a1, a3, a2, a4, a6 in _weierstrass_models(F):
        count = 1 + sum(
            solutions[add(mul(a1, x), a3)][add(add(cubes[x], mul(a2, squares[x])),
                                               add(mul(a4, x), a6))]
            for x in els)
        traces.add(q + 1 - count)
    return frozenset(traces)


def elliptic_product_classes(q: int) -> frozenset[tuple[int, int]]:
    """(c1, c2) of every (t^2 - s1 t + q)(t^2 - s2 t + q) with s1 and s2
    elliptic traces: the classes of the non-simple surfaces over F_q."""
    traces = elliptic_traces(q)
    return frozenset((-(s1 + s2), s1 * s2 + 2 * q) for s1 in traces for s2 in traces)


def is_elliptic_factor(q: int, quad: IntPoly) -> bool:
    """Whether the monic quadratic quad is t^2 - s t + q with s a trace of
    the census."""
    gamma, b, _ = quad
    return gamma == q and -b in elliptic_traces(q)


def search_verdict(w: WeilData) -> SimplicityVerdict:
    """The simplicity verdict and reason read off the trial-division
    factorization, with the elliptic factors taken from the census."""
    fac = factor_weil_search(w)
    if fac.shape is FactorShape.IRREDUCIBLE_QUARTIC:
        return SimplicityVerdict(Verdict.SIMPLE, "irreducible-quartic")
    if fac.shape is FactorShape.HAS_LINEAR_FACTORS:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "linear-factors")
    if fac.shape is FactorShape.TWO_QUADRATICS:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "distinct-quadratics")
    (h, _), = fac.factors
    if not is_elliptic_factor(w.q, h):
        return SimplicityVerdict(Verdict.SIMPLE, "non-elliptic-square")
    if h[1] % w.p:
        return SimplicityVerdict(Verdict.NOT_SIMPLE, "ordinary-square")
    return SimplicityVerdict(Verdict.NOT_SIMPLE, "supersingular-square")


class TestSerreConstant:
    @pytest.mark.parametrize("q,m", [(2, 2), (3, 3), (4, 4), (5, 4), (7, 5),
                                     (8, 5), (9, 6), (16, 8), (25, 10)])
    def test_values(self, q, m):
        assert serre_constant(q) == m

    @given(st.integers(min_value=2, max_value=10 ** 9))
    @settings(max_examples=300)
    def test_is_floor_of_two_sqrt(self, q):
        m = serre_constant(q)
        assert m * m <= 4 * q < (m + 1) * (m + 1)


class TestFromCounts:
    def test_e1(self):
        w = weil_from_counts(2, 3, 5)
        assert (w.c1, w.c2) == (0, 0)
        assert quartic(w) == (4, 0, 0, 0, 1)  # t^4 + 4

    def test_e2(self):
        w = weil_from_counts(2, 5, 5)
        assert (w.c1, w.c2) == (2, 2)
        assert quartic(w) == (4, 4, 2, 2, 1)

    def test_half_integer_rejected(self):
        for _ in range(2):  # an exception is never cached
            with pytest.raises(InconsistentCountsError):
                weil_from_counts(2, 3, 4)

    def test_serre_violation_rejected(self):
        with pytest.raises(InconsistentCountsError):
            weil_from_counts(2, 8, 8)  # c1 = 5 > 2 * m = 4

    def test_off_circle_rejected(self):
        # c1 = 0, c2 = 5 over q = 2: negative discriminant of the real quadratic
        with pytest.raises(InconsistentCountsError):
            WeilData(q=2, p=2, c1=0, c2=5)

    def test_not_prime_power(self):
        with pytest.raises(InconsistentCountsError):
            weil_from_counts(6, 7, 37)

    def test_non_int_fields_rejected(self):
        # a float or bool hashes like the int it equals, so it would share its
        # cache entry; True would print as true in JSON
        weil_from_counts.cache_clear()
        with pytest.raises(InconsistentCountsError):
            weil_from_counts(2, 5.0, 5)
        w = weil_from_counts(2, 5, 5)
        assert [type(v) for v in w] == [int] * 4 and (w.c1, w.c2) == (2, 2)
        for fields in ((2, 2, True, 2), (2, 2, 2, 2.0), (2.0, 2, 2, 2), (2, 2, 0, False)):
            with pytest.raises(InconsistentCountsError):
                WeilData(*fields)

    def test_repeated_root_case_is_accepted_exactly(self):
        # (t + 4)^4: a maximal curve's quartic over F_16; double precision
        # scatters this quadruple root far beyond any tight tolerance
        w = WeilData(q=16, p=2, c1=16, c2=96)
        assert jacobian_order(w) == 625


class TestRootCircle:
    def test_exact_agrees_with_numeric_for_simple_roots(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:15]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                moduli = numeric_root_moduli(quartic(w))
                if len(set(round(m, 6) for m in moduli)) == 4:
                    assert all(abs(m - math.sqrt(q)) <= 1e-9 for m in moduli)

    @given(st.integers(-8, 8), st.integers(-40, 40),
           st.sampled_from([2, 3, 4, 5, 7, 9, 16]))
    @settings(max_examples=400, deadline=None)
    def test_exact_circle_criterion_vs_numeric(self, c1, c2, q):
        claim = quartic_roots_on_circle(q, c1, c2)
        moduli = numeric_root_moduli((q * q, q * c1, c2, c1, 1))
        spread = max(abs(m - math.sqrt(q)) for m in moduli)
        # over this whole coefficient window, genuine on-circle quartics
        # scatter below 5e-4 (quadruple-root conditioning) while genuine
        # violations deviate by at least 0.17, so 1e-2 separates exactly
        assert claim == (spread < 1e-2)


class TestExtensionCounts:
    def test_e2_examples(self):
        w = weil_from_counts(2, 5, 5)
        assert extension_count(w, 1) == 5
        assert extension_count(w, 2) == 5
        assert extension_count(w, 3) == 17

    def test_round_trip_and_higher_extensions(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:10]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                assert extension_count(w, 1) == n1
                assert extension_count(w, 2) == n2
                for k in (3, 4):
                    if q ** k <= 1 << 20:
                        assert extension_count(w, k) == count_points(curve, k).count

    def test_newton_power_sums_match_numeric_roots(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:6]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                roots = np.roots(list(reversed(quartic(w))))
                ps = power_sums(w, 8)
                for k in range(1, 9):
                    numeric = complex(np.sum(roots ** k)).real
                    assert abs(numeric - ps[k]) < 1e-5 * max(1.0, abs(ps[k]))

    def test_k_range(self):
        w = weil_from_counts(2, 3, 5)
        with pytest.raises(ValueError):
            extension_count(w, 0)
        with pytest.raises(ValueError):
            extension_count(w, 9)


class TestOrder:
    def test_examples(self):
        assert jacobian_order(weil_from_counts(2, 3, 5)) == 5
        assert jacobian_order(weil_from_counts(2, 5, 5)) == 13

    def test_trivial_center(self):
        for q in (2, 3, 4, 5, 7):
            assert jacobian_order(WeilData(q=q, p=[2, 3, 2, 5, 7][(2, 3, 4, 5, 7).index(q)],
                                           c1=0, c2=0)) == q * q + 1

    def test_length_formula_identity(self, corpus):
        for q, curves in corpus.items():
            for curve in curves:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                assert jacobian_order(w) == (n2 + n1 * n1) // 2 - q


class TestFactorization:
    def test_t4_plus_4_splits(self):
        fac = factor_weil_search(weil_from_counts(2, 3, 5))
        assert fac.shape is FactorShape.TWO_QUADRATICS
        assert set(f for f, _ in fac.factors) == {(2, -2, 1), (2, 2, 1)}

    def test_e2_irreducible(self):
        fac = factor_weil_search(weil_from_counts(2, 5, 5))
        assert fac.shape is FactorShape.IRREDUCIBLE_QUARTIC

    def test_square_of_quadratic(self):
        fac = factor_weil_search(WeilData(q=2, p=2, c1=2, c2=5))
        assert fac.shape is FactorShape.SQUARE_OF_QUADRATIC
        assert fac.factors == (((2, 1, 1), 2),)

    def test_linear_factors(self):
        fac = factor_weil_search(WeilData(q=16, p=2, c1=16, c2=96))
        assert fac.shape is FactorShape.HAS_LINEAR_FACTORS
        assert fac.factors == (((4, 1), 4),)

    def test_multiply_back_and_factor_roots(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:15]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                fac = factor_weil_search(w)
                assert fac.expand() == quartic(w)
                for f, _ in fac.factors:
                    if len(f) == 3:
                        assert quadratic_roots_on_circle(q, f[1], f[0])
                        moduli = numeric_root_moduli(f)
                        if abs(f[1] ** 2 - 4 * f[0]) > 0:
                            assert all(abs(m - math.sqrt(q)) <= 1e-9 for m in moduli)
                    elif len(f) == 2:
                        assert f[0] * f[0] == q  # root is +-sqrt(q)


class TestDivides:
    def test_examples(self):
        assert poly_divides((2, 2, 1), (4, 0, 0, 0, 1))  # t^2+2t+2 | t^4+4
        assert poly_divides((4, 0, 0, 0, 1), (4, 0, 0, 0, 1))
        assert not poly_divides((1, 1, 1), (4, 0, 0, 0, 1))

    def test_factors_divide(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:10]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                for f, _ in factor_weil_search(w).factors:
                    assert poly_divides(f, quartic(w))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            poly_divides((2, 2), (4, 0, 0, 0, 1))


class TestSimplicity:
    def test_examples(self):
        assert classify_simplicity(weil_from_counts(2, 3, 5)).verdict is Verdict.NOT_SIMPLE
        assert classify_simplicity(weil_from_counts(2, 5, 5)).verdict is Verdict.SIMPLE
        v = classify_simplicity(WeilData(q=2, p=2, c1=2, c2=5))
        assert v.verdict is Verdict.NOT_SIMPLE and v.reason == "ordinary-square"

    def test_squares_with_p_dividing_the_middle_coefficient(self):
        # (t^2 - 2)^2: the real Weil number sqrt(2) belongs to a simple surface
        v = classify_simplicity(WeilData(q=2, p=2, c1=0, c2=-4))
        assert v == (Verdict.SIMPLE, "non-elliptic-square")
        # (t^2 + 2)^2: E x E for the supersingular E of trace 0 over F_2
        v = classify_simplicity(WeilData(q=2, p=2, c1=0, c2=4))
        assert v == (Verdict.NOT_SIMPLE, "supersingular-square")
        # (t^2 + 4t + 16)^2 over F_16: s = -4, s^2 = q and p = 2 is elliptic
        v = classify_simplicity(WeilData(q=16, p=2, c1=8, c2=48))
        assert v == (Verdict.NOT_SIMPLE, "supersingular-square")
        # (t^2 + 5)^2 is elliptic over F_5 and (t^2 - 5)^2 is not
        assert not classify_simplicity(WeilData(q=5, p=5, c1=0, c2=10)).is_simple
        assert classify_simplicity(WeilData(q=5, p=5, c1=0, c2=-10)).is_simple

    def test_verdict_equals_search(self):
        # every admissible class for q <= 32, verdict and reason
        grid = list(weil_grid(32))
        assert len(grid) == 13962
        for w in grid:
            assert classify_simplicity(w) == search_verdict(w), w

    def test_verdict_has_two_members(self):
        assert [v.value for v in Verdict] == ["simple", "not-simple"]

    def test_simple_iff_irreducible_or_non_elliptic_square(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:20]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                simple = classify_simplicity(w).verdict is Verdict.SIMPLE
                fac = factor_weil_search(w)
                irreducible = fac.shape is FactorShape.IRREDUCIBLE_QUARTIC
                non_elliptic_square = (fac.shape is FactorShape.SQUARE_OF_QUADRATIC
                                       and not is_elliptic_factor(q, fac.factors[0][0]))
                assert simple == (irreducible or non_elliptic_square)

    def test_non_simple_iff_elliptic_product_on_the_grid(self):
        # every admissible class for q <= 32; a class with a non-elliptic
        # factor other than a square belongs to no surface and stays not simple
        products = squares_outside = 0
        for w in weil_grid(32):
            product = (w.c1, w.c2) in elliptic_product_classes(w.q)
            shape = factor_weil_search(w).shape
            simple_shape = shape in (FactorShape.IRREDUCIBLE_QUARTIC,
                                     FactorShape.SQUARE_OF_QUADRATIC)
            assert classify_simplicity(w).is_simple == (simple_shape and not product), w
            products += product
            squares_outside += shape is FactorShape.SQUARE_OF_QUADRATIC and not product
        assert (products, squares_outside) == (2123, 33)


class TestEllipticTraces:
    """Waterhouse's trace predicate against a census of all elliptic curves."""

    def test_census_small_fields(self):
        assert elliptic_traces(2) == frozenset(range(-2, 3))
        # over F_4 the traces prime to 2, then 0, +-2 (s^2 = q) and +-4 (s^2 = 4q)
        assert elliptic_traces(4) == frozenset(range(-4, 5))
        # over F_9 (p = 3 = 0 mod 3) s = +-3 is elliptic; s = 0 too, as 3 = 3 mod 4
        assert elliptic_traces(9) == frozenset(range(-6, 7))
        # over F_25 s = +-5 is elliptic (5 = 2 mod 3) and s = 0 is not (5 = 1 mod 4)
        assert 0 not in elliptic_traces(25) and {-10, -5, 5, 10} <= elliptic_traces(25)

    @pytest.mark.parametrize("q", CENSUS_QS)
    def test_predicate_equals_census(self, q):
        p, _ = prime_power(q)
        m = serre_constant(q)
        assert elliptic_traces(q) == {s for s in range(-m, m + 1) if _elliptic_trace(q, p, s)}


class TestClassCaches:
    """The per-class caches give what a fresh computation gives."""

    def test_cached_equals_fresh(self):
        classes = [w for w in weil_grid(16) if w.q in (2, 3, 4, 5, 7, 8, 9, 16)]
        counts = {w: (w.q, extension_count(w, 1), extension_count(w, 2)) for w in classes}
        # a quartic on the circle can give N1 < 0 or N2 < 0, which no curve has
        counts = {w: qn for w, qn in counts.items() if min(qn) >= 0}
        for w in classes:  # warm the caches
            classify_simplicity(w)
        for qn in counts.values():
            weil_from_counts(*qn)
        for w in classes:
            assert classify_simplicity(w) == classify_simplicity.__wrapped__(w)
        for w, qn in counts.items():
            assert weil_from_counts(*qn) == weil_from_counts.__wrapped__(*qn) == w
