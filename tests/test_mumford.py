"""Group law, enumeration, theta membership, translate experiments."""

from __future__ import annotations

import itertools
from collections import Counter
from random import Random

import pytest

from jacobicode import mumford, poly
from jacobicode.curves import CurveModel, _roots_above, count_points, validate_curve
from jacobicode.errors import (
    GenusNotTwoError,
    InvalidDivisorError,
    NonZeroSumError,
    OrderMismatchError,
    InconsistentCountsError,
    RealModelUnsupportedError,
    SingularModelError,
)
from jacobicode.explore import RANDOM, SearchSpace, analyze_curve
from jacobicode.fields import field_from_order, make_field
from jacobicode.mumford import (
    IDENTITY,
    MumfordDivisor,
    _norm,
    _reduced_divisors,
    cantor_add,
    check_divisor,
    enumerate_jacobian,
    in_theta,
    negate,
    scalar_mul,
    theta_set,
    translate_support_count,
    zero_sum_tuples,
)
from jacobicode.weil import jacobian_order, weil_from_counts
from conftest import enumerate_curves, evaluate, exact_div
from test_curves import INFINITY, CurvePoint, curve_points

D_X0 = MumfordDivisor((0, 1), ())     # (x, 0)
D_X1 = MumfordDivisor((0, 1), (1,))   # (x, 1)


def embed_point(curve: CurveModel, pt: CurvePoint) -> MumfordDivisor:
    """Point of an imaginary model to its divisor class with base point
    infinity; injective, and onto the theta set."""
    if pt.at_infinity:
        return IDENTITY
    F = curve.field
    x, y = pt.x, pt.y
    if not (0 <= x < F.q and 0 <= y < F.q):
        raise ValueError(f"({x}, {y}) is not over F_{F.q}")
    lhs = F.add(F.mul(y, y), F.mul(evaluate(F, curve.h, x), y))
    if lhs != evaluate(F, curve.f, x):
        raise ValueError(f"({x}, {y}) does not satisfy the curve equation")
    return MumfordDivisor((F.neg(x), 1), (y,) if y else ())


def sort_key(d: MumfordDivisor) -> tuple:
    """The enumeration order: degree, then u, then v (trimmed tuples)."""
    return (len(d.u), d.u, d.v)


def scan_jacobian(curve: CurveModel) -> tuple[MumfordDivisor, ...]:
    """Every (u, v) in F_q^4 with u | v^2 + h v - f, sorted: the q^4 oracle."""
    F = curve.field
    q = F.q
    h, f = curve.h, curve.f
    add, mul, neg = F.add, F.mul, F.neg

    out = [IDENTITY]

    # degree-1 classes correspond to affine curve points
    for u0 in range(q):
        x0 = neg(u0)
        hx = evaluate(F, h, x0)
        fx = evaluate(F, f, x0)
        for v0 in range(q):
            if add(mul(v0, v0), mul(hx, v0)) == fx:
                out.append(MumfordDivisor((u0, 1), (v0,) if v0 else ()))

    # degree-2 classes: reduce everything modulo u = x^2 + u1 x + u0 once per u
    for u1 in range(q):
        for u0 in range(q):
            u = (u0, u1, 1)
            e1 = neg(u1)  # x^2 == e1*x + e0 (mod u)
            e0 = neg(u0)
            fr = poly.mod(F, f, u)
            fr1, fr0 = poly.coefficient(fr, 1), poly.coefficient(fr, 0)
            hr = poly.mod(F, h, u)
            hr1, hr0 = poly.coefficient(hr, 1), poly.coefficient(hr, 0)
            for v1 in range(q):
                a2 = mul(v1, v1)
                sq1 = mul(a2, e1)
                sq0 = mul(a2, e0)
                hv_hi = mul(hr1, v1)  # x^2 coefficient of h*v
                base1 = add(add(sq1, mul(hv_hi, e1)), mul(hr0, v1))
                base0 = add(sq0, mul(hv_hi, e0))
                for v0 in range(q):
                    m = mul(v1, v0)
                    w1 = add(add(base1, add(m, m)), mul(hr1, v0))
                    if w1 != fr1:
                        continue
                    w0 = add(add(base0, mul(v0, v0)), mul(hr0, v0))
                    if w0 == fr0:
                        vv = (v0, v1) if v1 else ((v0,) if v0 else ())
                        out.append(MumfordDivisor(u, vv))

    out.sort(key=sort_key)
    return tuple(out)


def solved_jacobian(curve: CurveModel) -> tuple[MumfordDivisor, ...]:
    """The library's per-u solution set, in its own order, before the order tripwire."""
    return tuple(_reduced_divisors(curve))


def cantor(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor) -> MumfordDivisor:
    """Cantor's group law (Math. Comp. 48, 1987), the oracle of ``cantor_add``:
    compose through the three-term gcd, then reduce to degree <= 2.

    Coprime u1 and u2 compose by the Chinese remainder theorem alone, v =
    e1 u1 v2 + e2 u2 v1 with e1 u1 + e2 u2 = 1, so the composition reads
    both v1 and v2; otherwise the gcd d0 of u1 and u2 meets v1 + v2 + h
    in a second extended gcd.  Each reduction step divides f - h v - v^2
    by u exactly, which checks the inputs; a composition of degree <= 2
    takes no step, so u | f - h v - v^2 is checked on it directly, and
    either failure raises InvalidDivisorError.  A class plus its formal
    negative (equal u, v1 + v2 + h = 0 mod u) composes to u = 1, which
    passes unchecked when s = v1 + v2 + h is 0 or has degree above deg u:
    (x, 0) + (x, 0) when h(0) = 0 and deg h = 2.  When s is a constant
    multiple of u, the cofactor of s in gcd(u, s) is nonzero, so the
    composition divides v1 v2 + f by u, which checks u | f - h v1 - v1^2:
    the off-curve (x, 0) doubles to InvalidDivisorError when h = x, and so
    does (x^2, x) on y^2 + x^2 y = x^5 + x^4 + x + 1 over F_2, which
    ``cantor_add`` doubles to the identity.
    """
    F = curve.field
    h, f = curve.h, curve.f
    u1, v1 = d1.u, d1.v
    u2, v2 = d2.u, d2.v

    d0, e1, e2 = poly.ext_gcd(F, u1, u2)
    if d0 == (1,):
        d, s1, s2, s3 = d0, e1, e2, ()
    else:
        s = poly.add(F, poly.add(F, v1, v2), h)
        d, c1, c2 = poly.ext_gcd(F, d0, s)
        s1 = poly.mul(F, c1, e1)
        s2 = poly.mul(F, c1, e2)
        s3 = c2

    try:
        u = exact_div(F, poly.mul(F, u1, u2), poly.mul(F, d, d))
        num = poly.add(
            F,
            poly.add(F, poly.mul(F, poly.mul(F, s1, u1), v2),
                     poly.mul(F, poly.mul(F, s2, u2), v1)),
            poly.mul(F, s3, poly.add(F, poly.mul(F, v1, v2), f)),
        )
        v = poly.mod(F, exact_div(F, num, d), u)
        if poly.degree(u) <= 2 and poly.mod(F, _norm(curve, v), u):
            raise InvalidDivisorError("u does not divide f - h v - v^2")
        while poly.degree(u) > 2:
            u_next = exact_div(F, _norm(curve, v), u)
            v = poly.mod(F, poly.neg(F, poly.add(F, h, v)), u_next)
            u = u_next
        u = poly.monic(F, u)
        v = poly.mod(F, v, u)
    except ValueError as exc:  # an inexact division means a bad input divisor
        raise InvalidDivisorError(str(exc)) from exc
    return MumfordDivisor(u, v)


def seeded_curves(q: int, count: int, seed: int, modulus=None) -> list[CurveModel]:
    space = SearchSpace(field=field_from_order(q, modulus), mode=RANDOM, seed=seed,
                        trials=20 * count)
    curves = list(itertools.islice(enumerate_curves(space), count))
    assert len(curves) == count
    return curves


class TestGroupLaw:
    def test_identity_is_neutral(self, curve_e2):
        for d in enumerate_jacobian(curve_e2):
            assert cantor_add(curve_e2, d, IDENTITY) == d

    def test_involution_pair_cancels(self, curve_e2):
        assert negate(curve_e2, D_X0) == D_X1
        assert cantor_add(curve_e2, D_X0, D_X1) == IDENTITY

    def test_neg_is_an_involution(self, curve_e2):
        for d in enumerate_jacobian(curve_e2):
            assert negate(curve_e2, negate(curve_e2, d)) == d

    def test_thirteen_torsion(self, curve_e2):
        assert scalar_mul(curve_e2, 13, D_X0) == IDENTITY
        assert scalar_mul(curve_e2, 12, D_X0) == negate(curve_e2, D_X0)

    def test_group_axioms_random_triples(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:6]:
                group = enumerate_jacobian(curve)
                rng = Random(hash(curve) & 0xFFFF)
                n = len(group)
                for _ in range(200):
                    a, b, c = (group[rng.randrange(n)] for _ in range(3))
                    assert cantor_add(curve, cantor_add(curve, a, b), c) == \
                        cantor_add(curve, a, cantor_add(curve, b, c))
                    assert cantor_add(curve, a, negate(curve, a)) == IDENTITY

    def test_commutativity(self, curve_e2):
        group = enumerate_jacobian(curve_e2)
        for a in group:
            for b in group:
                assert cantor_add(curve_e2, a, b) == cantor_add(curve_e2, b, a)

    def test_lagrange(self, corpus):
        for curves in corpus.values():
            for curve in curves[:4]:
                group = enumerate_jacobian(curve)
                n = len(group)
                for d in group:
                    assert scalar_mul(curve, n, d) == IDENTITY

    def test_scalar_mul_checks_the_model_and_n(self, curve_e2):
        # n = 0 once returned the identity on a real model, where n >= 1
        # raised, and a float n raised a bare TypeError from n & 1
        real = validate_curve(make_field(5, 1), (), (1, 1, 0, 0, 0, 0, 1))
        for n in (0, 1, -1):
            with pytest.raises(RealModelUnsupportedError):
                scalar_mul(real, n, IDENTITY)
        for n in (2.0, 0.0, True, "2"):
            with pytest.raises(ValueError):
                scalar_mul(curve_e2, n, D_X0)

    def test_group_law_rejects_an_invalid_class(self, curve_e2):
        # x^2 + x + 1 does not divide x^5 + x^3 - h v - v^2 for v = 0; it is
        # coprime to every other u, so each sum reaches an inexact division
        bad = MumfordDivisor((1, 1, 1), ())
        deg2 = [d for d in enumerate_jacobian(curve_e2) if len(d.u) - 1 == 2]
        pairs = [(bad, bad)] + [p for d in deg2 for p in ((bad, d), (d, bad))]
        assert len(pairs) == 17
        for add in (cantor_add, cantor):
            for d1, d2 in pairs:
                with pytest.raises(InvalidDivisorError):
                    add(curve_e2, d1, d2)

    def test_cantor_reads_both_coprime_operands(self):
        # (x, 1) is off y^2 = x^5 + x over F_3, and x^2 + 2x + 2 is coprime
        # to x; the composition must still read v1 = 1, so the reduction
        # step's exact division fails
        curve = validate_curve(make_field(3, 1), (), (0, 1, 0, 0, 0, 1))
        bad, d = MumfordDivisor((0, 1), (1,)), MumfordDivisor((2, 2, 1), ())
        check_divisor(curve, d)
        for add in (cantor_add, cantor):
            for d1, d2 in ((bad, d), (d, bad)):
                with pytest.raises(InvalidDivisorError):
                    add(curve, d1, d2)

    def test_formal_negatives_the_two_laws_treat_differently(self):
        # (x^2, x) is off y^2 + x^2 y = x^5 + x^4 + x + 1 over F_2 and is its
        # own formal negative: v + v + h = x^2 = 0 mod x^2.  The formulas
        # return the identity; Cantor's gcd meets v1 v2 + f, which x^2 does
        # not divide
        curve = validate_curve(make_field(2, 1), (0, 0, 1), (1, 1, 0, 0, 1, 1))
        bad = MumfordDivisor((0, 0, 1), (0, 1))
        with pytest.raises(InvalidDivisorError):
            check_divisor(curve, bad)
        assert cantor_add(curve, bad, bad) == IDENTITY
        with pytest.raises(InvalidDivisorError):
            cantor(curve, bad, bad)

    def test_invalid_divisor_rejected(self, curve_e2):
        with pytest.raises(InvalidDivisorError):
            check_divisor(curve_e2, MumfordDivisor((1, 1), (0, 1)))  # deg v == deg u
        with pytest.raises(InvalidDivisorError):
            check_divisor(curve_e2, MumfordDivisor((0, 1, 1, 1), ()))  # degree 3
        with pytest.raises(InvalidDivisorError):
            # x^2 + x + 1 is irreducible and does not divide x^5 + x^3 = x^3 (x+1)^2
            check_divisor(curve_e2, MumfordDivisor((1, 1, 1), ()))

    def test_bool_and_float_coefficients_rejected(self):
        # a bool is an int subclass but prints as true in JSON; a float must end
        # in InvalidDivisorError, not in a TypeError from the polynomial layer
        (curve,) = seeded_curves(5, 1, seed=1005)
        point = MumfordDivisor((1, 1), (1,))
        pair = next(d for d in enumerate_jacobian(curve) if len(d.u) - 1 == 2 and len(d.v) == 2)
        for good in (IDENTITY, point, pair):
            check_divisor(curve, good)
        for bad in [MumfordDivisor((True,), ()), MumfordDivisor((1, 1), (True,)),
                    MumfordDivisor((True, 1), (1,)), MumfordDivisor((1, True), (1,)),
                    MumfordDivisor((1, 1), (1.0,)), MumfordDivisor((0.0, 1.0, 1.0), ()),
                    MumfordDivisor(tuple(map(float, pair.u)), pair.v),
                    MumfordDivisor(pair.u, tuple(map(float, pair.v)))]:
            with pytest.raises(InvalidDivisorError):
                check_divisor(curve, bad)


SHARED_ROOT_CASES = ("weierstrass double", "split double", "opposite at a shared root",
                     "same point at a shared root")
# the forms of a pair with an operand of degree 1, u1 = x - a
POINT_CASES = ("point plus coprime class", "point doubled", "opposite points",
               "point opposite a point of the class", "point plus class through it",
               "two points")
BRANCHES = {"identity", "negation", "add", "double", "degree-1 sum",
            *SHARED_ROOT_CASES, *POINT_CASES}
# by characteristic 2 or odd, up to JACOBIAN_Q_CAP = 64 and the largest odd prime below it
SAMPLED_QS = {True: (8, 16, 32, 64), False: (7, 9, 25, 27, 61)}
SAMPLED_PAIRS = 150


def shared_root_case(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor) -> str | None:
    """The closed form a pair takes where the coprime formulas do not apply,
    None where they do: a double whose u shares a root with 2v + h (a
    Weierstrass point); equal u with v1 != v2 that are not negatives; and
    distinct u with a common root a, by whether the points over a are
    opposite (y1 + y2 + h(a) = 0) or not."""
    F = curve.field
    if IDENTITY in (d1, d2):
        return None
    if d1.u == d2.u:
        w = poly.mod(F, poly.add(F, poly.add(F, d1.v, d2.v), curve.h), d1.u)
        if not w:
            return None
        if d1.v != d2.v:
            return "split double"
        return "weierstrass double" if poly.degree(poly.gcd(F, d1.u, w)) > 0 else None
    g = poly.gcd(F, d1.u, d2.u)
    if poly.degree(g) == 0:
        return None
    a = F.neg(g[0])
    y1, y2, ha = (evaluate(F, c, a) for c in (d1.v, d2.v, curve.h))
    opposite = F.add(F.add(y1, y2), ha) == 0
    return "opposite at a shared root" if opposite else "same point at a shared root"


def point_case(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor) -> str | None:
    """The form a pair with an operand (a, y1) of degree 1 takes, None for
    any other pair: by whether the other operand is a class or a point, and
    by how its points meet (a, y1); "points over one x" holds two points
    over a that are neither equal nor opposite, which no valid pair does."""
    F = curve.field
    if IDENTITY in (d1, d2) or 1 not in (len(d1.u) - 1, len(d2.u) - 1):
        return None
    if len(d1.u) > len(d2.u):
        d1, d2 = d2, d1
    a = F.neg(d1.u[0])
    y1, y2, ha = (evaluate(F, c, a) for c in (d1.v, d2.v, curve.h))
    opposite = F.add(F.add(y1, y2), ha) == 0
    if len(d2.u) - 1 == 2:
        if evaluate(F, d2.u, a):
            return "point plus coprime class"
        return "point opposite a point of the class" if opposite else "point plus class through it"
    if d1.u != d2.u:
        return "two points"
    if opposite:
        return "opposite points"
    return "point doubled" if y1 == y2 else "points over one x"


def branch(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor,
           out: MumfordDivisor) -> str:
    case = point_case(curve, d1, d2) or shared_root_case(curve, d1, d2)
    if case:
        return case
    if IDENTITY in (d1, d2):
        return "identity"
    if out == IDENTITY:
        return "negation"
    if len(out.u) - 1 == 1:
        return "degree-1 sum"
    return "double" if d1 == d2 else "add"


def draw_bad_class(rng: Random, q: int, deg: int, group: set) -> MumfordDivisor | None:
    """A random (u, v) with deg v < deg u = deg outside the group, None if
    1000 draws find none."""
    for _ in range(1000):
        u = tuple(rng.randrange(q) for _ in range(deg)) + (1,)
        bad = MumfordDivisor(u, poly.trim([rng.randrange(q) for _ in range(deg)]))
        if bad not in group:
            return bad
    return None


def through(F, p1: tuple[int, int], p2: tuple[int, int]) -> MumfordDivisor:
    """The (u, v) of degree 2 whose v is the line through two points with
    distinct x, on the curve or not."""
    (x1, y1), (x2, y2) = p1, p2
    slope = F.mul(F.sub(y1, y2), F.inv(F.sub(x1, x2)))
    return MumfordDivisor((F.mul(x1, x2), F.neg(F.add(x1, x2)), 1),
                          poly.trim((F.sub(y1, F.mul(slope, x1)), slope)))


def point(F, p: tuple[int, int]) -> MumfordDivisor:
    """The (u, v) of degree 1 over the point, on the curve or not."""
    return MumfordDivisor((F.neg(p[0]), 1), poly.trim((p[1],)))


def off_curve_pairs(curve: CurveModel) -> dict[str, tuple[MumfordDivisor, MumfordDivisor]]:
    """A pair for each closed form of a shared root, for each form of a
    point operand, and for two points over one x, with one point off the
    curve, where the curve has the points to build it from P = (a, y), not a
    Weierstrass point, and Q = (b, z), b != a."""
    F = curve.field
    on = [(pt.x, pt.y) for pt in curve_points(curve, 1) if not pt.at_infinity]
    hs = {x: evaluate(F, curve.h, x) for x in F.elements()}
    offs = {x: [y for y in F.elements() if (x, y) not in on] for x in F.elements()}
    pairs = {}
    for (a, y), (b, z) in itertools.permutations(on, 2):
        if a == b or F.add(F.add(y, y), hs[a]) == 0:
            continue
        P, Q, minus_p = (a, y), (b, z), (a, F.sub(F.neg(y), hs[a]))
        for c in F.elements():
            for yc in offs[c][:1] if c not in (a, b) else ():
                pairs.setdefault("opposite at a shared root",
                                 (through(F, minus_p, (c, yc)), through(F, P, Q)))
                pairs.setdefault("same point at a shared root",
                                 (through(F, P, (c, yc)), through(F, P, Q)))
                pairs.setdefault("point plus coprime class", (point(F, (c, yc)), through(F, P, Q)))
                pairs.setdefault("point opposite a point of the class",
                                 (point(F, minus_p), through(F, P, (c, yc))))
                pairs.setdefault("point plus class through it",
                                 (point(F, P), through(F, P, (c, yc))))
        for yb in offs[b][:1]:
            pairs.setdefault("split double", (through(F, P, Q), through(F, P, (b, yb))))
            pairs.setdefault("two points", (point(F, P), point(F, (b, yb))))
        for ya in offs[a][:1]:
            pairs.setdefault("points over one x", (point(F, P), point(F, (a, ya))))
        for ya in offs[a]:  # not its own formal negative, which sums to the identity
            if F.add(F.add(ya, ya), hs[a]):
                pairs.setdefault("point doubled", (point(F, (a, ya)), point(F, (a, ya))))
        for w in F.elements():  # 2 yw + h(w) = 0 with (w, yw) off the curve
            for yw in offs[w] if w != a else ():
                if F.add(F.add(yw, yw), hs[w]) == 0:
                    d = through(F, P, (w, yw))
                    pairs.setdefault("weierstrass double", (d, d))
    return pairs


def checked_sum(add, curve: CurveModel, d1: MumfordDivisor,
                d2: MumfordDivisor) -> MumfordDivisor | None:
    """d1 + d2 under a group law, None when the law rejects the pair; a
    returned class must be valid."""
    try:
        out = add(curve, d1, d2)
    except InvalidDivisorError:
        return None
    check_divisor(curve, out)
    return out


class TestExplicitFormulas:
    """cantor_add against Cantor's algorithm, with the branch of every pair."""

    @pytest.mark.parametrize("even", [True, False], ids=["char2", "odd"])
    def test_equal_to_cantor(self, even, corpus):
        rng = Random(even)
        taken = Counter()

        def check(curve, d1, d2):
            out = cantor_add(curve, d1, d2)
            assert out == cantor(curve, d1, d2), (curve, d1, d2)
            taken[branch(curve, d1, d2, out)] += 1

        def check_invalid(curve, group):
            # a class of each degree outside the group, where one exists:
            # whatever cantor rejects is rejected, and neither law returns an
            # invalid class (the identity returns the other operand unchecked,
            # and a class plus its formal negative is the identity); a bad
            # degree-2 class is also doubled, which only the final division
            # of the formulas can reject
            for deg in (1, 2):
                bad = draw_bad_class(rng, curve.field.q, deg, group)
                if bad is None:
                    continue  # every (x - a, y) lies on the curve
                pairs = [p for d in group - {IDENTITY} for p in ((bad, d), (d, bad))]
                if deg == 2 and negate(curve, bad) != bad:
                    pairs.append((bad, bad))
                for d1, d2 in pairs:
                    rejected = checked_sum(cantor, curve, d1, d2) is None
                    if checked_sum(cantor_add, curve, d1, d2) is not None:
                        assert not rejected, (curve, d1, d2)

        for q in corpus:
            if (q % 2 == 0) != even:
                continue
            for curve in corpus[q]:  # all of F_2 and F_3; the F_4 and F_5 slices
                group = enumerate_jacobian(curve)
                for d1 in group:
                    for d2 in group:
                        check(curve, d1, d2)
                check_invalid(curve, set(group))
        for q in SAMPLED_QS[even]:
            for curve in seeded_curves(q, 2, seed=3000 + q):
                group = enumerate_jacobian(curve)
                for _ in range(SAMPLED_PAIRS):
                    d1, d2 = rng.choice(group), rng.choice(group)
                    check(curve, d1, d2)
                    check(curve, d1, d1)
                check_invalid(curve, set(group))
        assert set(taken) == BRANCHES, taken


    @pytest.mark.parametrize("qs", [(2, 4), (3, 5)], ids=["char2", "odd"])
    def test_closed_forms_reject_an_off_curve_point(self, qs, corpus):
        # the first bad pair of each closed form over the corpus: each reads
        # a point off the curve, which the forms check on the curve or by
        # the division of a cubic composition; two opposite points are
        # formal negatives, which sum to the identity unchecked
        found = set()
        for curve in (curve for q in qs for curve in corpus[q]):
            for case, (d1, d2) in off_curve_pairs(curve).items():
                if case in found:
                    continue
                found.add(case)
                assert (point_case(curve, d1, d2) or shared_root_case(curve, d1, d2)) == case
                for pair in ((d1, d2), (d2, d1)):
                    with pytest.raises(InvalidDivisorError):
                        cantor_add(curve, *pair)
        assert found == {*SHARED_ROOT_CASES, *POINT_CASES, "points over one x"} - {"opposite points"}


def assert_sorted_and_unique(group: tuple[MumfordDivisor, ...]) -> None:
    keys = [sort_key(d) for d in group]
    assert keys == sorted(keys)
    assert len(set(group)) == len(group)
    assert group[0] == IDENTITY


class TestEnumeration:
    def test_sizes(self, curve_e1, curve_e2):
        assert len(enumerate_jacobian(curve_e1)) == 5
        assert len(enumerate_jacobian(curve_e2)) == 13

    def test_sorted_and_unique(self, curve_e2):
        curves = [curve_e2] + [curve for q in (16, 25, 27, 32)
                               for curve in seeded_curves(q, 1, seed=4000 + q)]
        for curve in curves:
            assert_sorted_and_unique(enumerate_jacobian(curve))

    @pytest.mark.parametrize("q", [37, 49, 61, 64])
    def test_large_fields(self, q):
        # odd q >= 37 has no addition table for F_{q^2}; 64 is the cap
        (curve,) = seeded_curves(q, 1, seed=5000 + q)
        group = enumerate_jacobian.__wrapped__(curve)  # raises on an order mismatch
        n1, n2 = count_points(curve, 1).count, count_points(curve, 2).count
        assert len(group) == jacobian_order(weil_from_counts(q, n1, n2))
        assert_sorted_and_unique(group)
        for d in group:
            check_divisor(curve, d)
            assert d.u == poly.trim(d.u) and d.v == poly.trim(d.v)

    def test_every_element_valid(self, corpus):
        for curves in corpus.values():
            for curve in curves[:4]:
                for d in enumerate_jacobian(curve):
                    check_divisor(curve, d)

    def test_matches_weil_order_across_corpus(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:8]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                expected = jacobian_order(weil_from_counts(q, n1, n2))
                assert len(enumerate_jacobian(curve)) == expected

    def test_real_model_unsupported(self):
        F5 = make_field(5, 1)
        curve = validate_curve(F5, (), (1, 1, 0, 0, 0, 0, 1))
        with pytest.raises(RealModelUnsupportedError):
            enumerate_jacobian(curve)

    def test_enumeration_capped_at_q_64(self):
        from jacobicode.errors import BudgetExceededError
        F128 = make_field(2, 7)
        curve = validate_curve(F128, (1,), (0, 0, 0, 0, 0, 1))
        with pytest.raises(BudgetExceededError):
            enumerate_jacobian(curve)

    def test_order_check_reuses_the_counts(self, corpus, monkeypatch):
        # the tripwire reads the counts analyze_curve has just taken
        runs = []

        def counted(*args):
            runs.append(args)
            return _roots_above(*args)

        monkeypatch.setattr("jacobicode.curves._roots_above", counted)
        count_points.cache_clear()
        for curve in corpus[3]:
            analyze_curve(curve, (3,))
            before = len(runs)
            enumerate_jacobian.__wrapped__(curve)
            assert len(runs) == before, curve
        assert runs  # the kernel ran, for analyze_curve

    def test_corrupt_model_trips_loudly(self, f2):
        # bypass validation: y^2 + xy = x^5 is singular at the origin, where
        # every slope lifts the double root, so the enumeration cannot agree
        # with any genus-2 zeta data
        bad = CurveModel(field=f2, h=(0, 1), f=(0, 0, 0, 0, 0, 1), kind="imaginary")
        with pytest.raises((OrderMismatchError, InconsistentCountsError)):
            enumerate_jacobian(bad)


class TestScanOracle:
    """The per-u solver against the exhaustive (u, v) scan."""

    def test_every_model_over_f2_and_f3(self, corpus):
        for q in (2, 3):
            for curve in corpus[q]:
                assert enumerate_jacobian.__wrapped__(curve) == scan_jacobian(curve)

    @pytest.mark.parametrize("q,count", [(4, 6), (5, 6), (7, 4), (8, 4), (9, 4), (16, 2),
                                         (25, 1), (27, 1), (32, 1)])
    def test_seeded_valid_models(self, q, count):
        for curve in seeded_curves(q, count, seed=1000 + q):
            assert enumerate_jacobian.__wrapped__(curve) == scan_jacobian(curve)

    @pytest.mark.parametrize("q,modulus", [(8, (1, 0, 1, 1)), (9, (2, 2, 1)),
                                           (16, (1, 1, 1, 1, 1))])
    def test_supplied_moduli(self, q, modulus):
        # the per-field tables are keyed by the field: the default-modulus
        # field of the same order keeps its own Frobenius-pair table
        for curve in seeded_curves(q, 2, seed=1100 + q, modulus=modulus):
            assert enumerate_jacobian.__wrapped__(curve) == scan_jacobian(curve)
        default, supplied = field_from_order(q), field_from_order(q, modulus)
        assert default != supplied
        _, _, default_pairs = mumford._quadratic_tables(default)
        _, _, supplied_pairs = mumford._quadratic_tables(supplied)
        assert default_pairs != supplied_pairs

    def test_unvalidated_models(self, f2):
        rng = Random(2015)
        models = [(f2, (0, 1), (0, 0, 0, 0, 0, 1))]  # the corrupt model below
        for q in (2, 3, 4, 5, 7, 8, 9):
            F = field_from_order(q)
            for _ in range(12):
                h = poly.trim([rng.randrange(q) for _ in range(3)])
                f = tuple(rng.randrange(q) for _ in range(5)) + (1,)
                models.append((F, h, f))
        F25 = field_from_order(25)
        for _ in range(2):  # h != 0 in an odd extension field: Horner on h over F_625
            h = (rng.randrange(25), rng.randrange(25), rng.randrange(1, 25))
            models.append((F25, h, tuple(rng.randrange(25) for _ in range(5)) + (1,)))
        singular = every_slope = 0
        for F, h, f in models:
            try:
                validate_curve(F, h, f)
            except (SingularModelError, GenusNotTwoError):
                singular += 1
            bad = CurveModel(field=F, h=h, f=f, kind="imaginary")
            solved = solved_jacobian(bad)
            assert solved == scan_jacobian(bad)
            # only a singular point lifts to more than 4 classes over one u
            every_slope += max(Counter(d.u for d in solved).values()) > 4
        assert singular >= 10 and every_slope >= 3


class TestEmbedding:
    def test_infinity_to_identity(self, curve_e2):
        assert embed_point(curve_e2, INFINITY) == IDENTITY

    def test_affine_examples(self, curve_e1, curve_e2):
        assert embed_point(curve_e2, CurvePoint(0, 0)) == D_X0
        assert embed_point(curve_e1, CurvePoint(0, 1)) == MumfordDivisor((0, 1), (1,))

    def test_rejects_non_points(self, curve_e2):
        with pytest.raises(ValueError, match=r"\(1, 2\) is not over F_2"):
            embed_point(curve_e2, CurvePoint(1, 2))  # y = 2 is no F_2 encoding
        F4 = make_field(2, 2)
        c4 = validate_curve(F4, (1,), (0, 0, 0, 0, 0, 1))
        with pytest.raises(ValueError, match=r"\(2, 0\) does not satisfy the curve equation"):
            embed_point(c4, CurvePoint(2, 0))  # w^5 != 0, so (w, 0) is off-curve

    def test_injective_and_lands_in_theta(self, corpus):
        for curves in corpus.values():
            for curve in curves[:5]:
                images = [embed_point(curve, pt) for pt in curve_points(curve, 1)]
                assert len(set(images)) == len(images)
                assert all(in_theta(d) for d in images)

    def test_theta_size_is_n1(self, corpus):
        for curves in corpus.values():
            for curve in curves[:8]:
                assert len(theta_set(curve)) == count_points(curve, 1).count

    def test_theta_membership_examples(self, curve_e2):
        assert in_theta(IDENTITY)
        assert in_theta(D_X0)
        deg2 = [d for d in enumerate_jacobian(curve_e2) if len(d.u) - 1 == 2]
        assert deg2 and all(not in_theta(d) for d in deg2)

    def test_theta_translation_invariance(self, curve_e2):
        """Base-point choice is immaterial: translating theta preserves counts."""
        group = enumerate_jacobian(curve_e2)
        theta = set(theta_set(curve_e2))
        rng = Random(7)
        shift = group[rng.randrange(len(group))]
        shifted = {cantor_add(curve_e2, t, shift) for t in theta}
        assert len(shifted) == len(theta)
        tup = next(zero_sum_tuples(curve_e2, 3, limit=1, stride=29))
        direct = {q_ for q_ in group
                  if any(cantor_add(curve_e2, q_, negate(curve_e2, p)) in theta
                         for p in tup)}
        via_shift = {q_ for q_ in group
                     if any(cantor_add(curve_e2,
                                       cantor_add(curve_e2, q_, shift),
                                       negate(curve_e2, p)) in shifted
                            for p in tup)}
        assert len(direct) == len(via_shift)


class TestZeroSumTuples:
    def test_first_tuple_is_identities(self, curve_e2):
        first = next(zero_sum_tuples(curve_e2, 3, limit=1))
        assert first == (IDENTITY, IDENTITY, IDENTITY)

    def test_total_count(self, curve_e2):
        tuples = list(zero_sum_tuples(curve_e2, 3))
        assert len(tuples) == 13 * 13

    def test_all_sum_to_zero(self, curve_e2):
        for tup in zero_sum_tuples(curve_e2, 3, stride=7):
            acc = IDENTITY
            for d in tup:
                acc = cantor_add(curve_e2, acc, d)
            assert acc == IDENTITY

    def test_constructive_form(self, curve_e2):
        group = enumerate_jacobian(curve_e2)
        p, q_ = group[3], group[7]
        s = negate(curve_e2, cantor_add(curve_e2, p, q_))
        acc = cantor_add(curve_e2, cantor_add(curve_e2, p, q_), s)
        assert acc == IDENTITY


    def test_stride_and_limit(self, curve_e2):
        every = list(zero_sum_tuples(curve_e2, 3))
        group = enumerate_jacobian(curve_e2)
        assert [tup[:2] for tup in every] == list(itertools.product(group, repeat=2))
        assert list(zero_sum_tuples(curve_e2, 3, limit=5, stride=7)) == every[::7][:5]
        assert list(zero_sum_tuples(curve_e2, 3, limit=0)) == []

    def test_large_stride_decodes_each_index(self, curve_e2):
        # 13^11 ~ 1.8e12 leading tuples: stepping through the skipped ones
        # would never end, so each kept index must be decoded directly
        group = enumerate_jacobian(curve_e2)
        r, n = 12, len(group)
        stride = n ** (r - 1) // 3
        got = list(zero_sum_tuples(curve_e2, r, limit=3, stride=stride))
        assert len(got) == 3
        for k, tup in enumerate(got):
            index = k * stride
            digits = [index // n ** e % n for e in reversed(range(r - 1))]
            assert tup[:-1] == tuple(group[i] for i in digits)
            acc = IDENTITY
            for d in tup:
                acc = cantor_add(curve_e2, acc, d)
            assert acc == IDENTITY

    @pytest.mark.parametrize("kwargs", [
        {"r": 1}, {"r": 2.0}, {"r": True}, {"r": 2, "stride": 0}, {"r": 2, "stride": -1},
        {"r": 2, "stride": 1.0}, {"r": 2, "limit": -1}, {"r": 2, "limit": 2.0}])
    def test_bad_arguments_raise(self, curve_e2, kwargs):
        # stride 0 once repeated the first tuple forever, stride -1 never
        # ended, and limit -1 yielded nothing
        with pytest.raises(ValueError):
            zero_sum_tuples(curve_e2, **kwargs)


class TestTranslateExperiments:
    def test_identity_tuple_support_is_theta(self, curve_e2):
        exp = translate_support_count(curve_e2, (IDENTITY, IDENTITY, IDENTITY))
        assert exp.support_count == 5
        assert exp.weight_surrogate == 8
        assert not exp.attained
        assert exp.to_dict() == {"points": [{"u": [1], "v": []}] * 3, "support_count": 5,
                                 "attained": False, "weight_surrogate": 8}

    def test_single_translate(self, curve_e2):
        exp = translate_support_count(curve_e2, (IDENTITY,))
        assert exp.support_count == count_points(curve_e2, 1).count

    def test_union_bound_and_forced_overlap(self, curve_e2):
        n = len(enumerate_jacobian(curve_e2))
        n1 = count_points(curve_e2, 1).count
        for tup in zero_sum_tuples(curve_e2, 3, limit=40, stride=5):
            exp = translate_support_count(curve_e2, tup)
            assert exp.support_count <= min(n, 3 * n1)
            assert not exp.attained  # 3 * 5 = 15 > 13 forces overlap on E2

    def test_attained_iff_pairwise_disjoint(self, corpus):
        for curves in corpus.values():
            for curve in curves[:3]:
                theta = theta_set(curve)
                total = len(enumerate_jacobian(curve)) ** 2
                for tup in zero_sum_tuples(curve, 3, limit=25,
                                           stride=max(1, total // 25)):
                    exp = translate_support_count(curve, tup)
                    translates = [
                        {cantor_add(curve, t, p) for t in theta} for p in tup]
                    disjoint = all(
                        translates[i].isdisjoint(translates[j])
                        for i in range(3) for j in range(i + 1, 3))
                    assert exp.attained == disjoint

    def test_nonzero_sum_rejected(self, curve_e2):
        with pytest.raises(NonZeroSumError):
            translate_support_count(curve_e2, (D_X0, IDENTITY, IDENTITY))

    def test_support_never_beats_the_closed_form_bound(self, corpus):
        from jacobicode.bounds import support_bound
        from jacobicode.weil import classify_simplicity, weil_from_counts
        for q in (2, 3):
            for curve in corpus[q]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                if not classify_simplicity(weil_from_counts(q, n1, n2)).is_simple:
                    continue
                cap = support_bound(q, n1, 3)
                total = len(enumerate_jacobian(curve)) ** 2
                for tup in zero_sum_tuples(curve, 3, limit=8,
                                           stride=max(1, total // 8)):
                    exp = translate_support_count(curve, tup)
                    assert exp.support_count <= cap
