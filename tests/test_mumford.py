"""Group law, enumeration, theta membership, translate experiments."""

from __future__ import annotations

import itertools
from collections import Counter
from random import Random

import pytest

from jacobicode import mumford, poly
from jacobicode.curves import CurveModel, count_points, validate_curve
from jacobicode.errors import (
    GenusNotTwoError,
    InvalidDivisorError,
    NonZeroSumError,
    OrderMismatchError,
    InconsistentCountsError,
    RealModelUnsupportedError,
    SingularModelError,
)
from jacobicode.explore import RANDOM, SearchSpace, enumerate_curves
from jacobicode.fields import field_from_order, make_field
from jacobicode.mumford import (
    IDENTITY,
    MumfordDivisor,
    _cantor,
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
    lhs = F.add(F.mul(y, y), F.mul(poly.evaluate(F, curve.h, x), y))
    if lhs != poly.evaluate(F, curve.f, x):
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
        hx = poly.evaluate(F, h, x0)
        fx = poly.evaluate(F, f, x0)
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


def seeded_curves(q: int, count: int, seed: int) -> list[CurveModel]:
    space = SearchSpace(field=field_from_order(q), mode=RANDOM, seed=seed, trials=20 * count)
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

    def test_group_law_rejects_an_invalid_class(self, curve_e2):
        # x^2 + x + 1 does not divide x^5 + x^3 - h v - v^2 for v = 0; it is
        # coprime to every other u, so each sum reaches an inexact division
        bad = MumfordDivisor((1, 1, 1), ())
        deg2 = [d for d in enumerate_jacobian(curve_e2) if d.degree == 2]
        pairs = [(bad, bad)] + [p for d in deg2 for p in ((bad, d), (d, bad))]
        assert len(pairs) == 17
        for add in (cantor_add, _cantor):
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
        for add in (cantor_add, _cantor):
            for d1, d2 in ((bad, d), (d, bad)):
                with pytest.raises(InvalidDivisorError):
                    add(curve, d1, d2)

    def test_invalid_divisor_rejected(self, curve_e2):
        with pytest.raises(InvalidDivisorError):
            check_divisor(curve_e2, MumfordDivisor((1, 1), (0, 1)))  # deg v == deg u
        with pytest.raises(InvalidDivisorError):
            check_divisor(curve_e2, MumfordDivisor((0, 1, 1, 1), ()))  # degree 3
        with pytest.raises(InvalidDivisorError):
            # x^2 + x + 1 is irreducible and does not divide x^5 + x^3 = x^3 (x+1)^2
            check_divisor(curve_e2, MumfordDivisor((1, 1, 1), ()))


BRANCHES = {"identity", "negation", "add", "double", "degree-1 sum", "point plus class",
            "cantor"}
# by characteristic 2 or odd, up to JACOBIAN_Q_CAP = 64 and the largest odd prime below it
SAMPLED_QS = {True: (8, 16, 32, 64), False: (7, 9, 25, 27, 61)}
SAMPLED_PAIRS = 150


def needs_cantor(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor) -> bool:
    """Whether the explicit formulas leave the sum of two valid classes to Cantor:
    u with a common root, or equal u that are neither inverse nor a double
    with u prime to 2v + h."""
    F = curve.field
    if IDENTITY in (d1, d2):
        return False
    if d1.u == d2.u:
        w = poly.mod(F, poly.add(F, poly.add(F, d1.v, d2.v), curve.h), d1.u)
        return bool(w) and (d1.v != d2.v or poly.degree(poly.gcd(F, d1.u, w)) > 0)
    return poly.degree(poly.gcd(F, d1.u, d2.u)) > 0


def branch(d1: MumfordDivisor, d2: MumfordDivisor, out: MumfordDivisor,
           fell_back: bool) -> str:
    if fell_back:
        return "cantor"
    if IDENTITY in (d1, d2):
        return "identity"
    if out == IDENTITY:
        return "negation"
    if out.degree == 1:
        return "degree-1 sum"
    if d1.degree != d2.degree:
        return "point plus class"
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
    """cantor_add against Cantor's algorithm, with the branch of every call."""

    @pytest.mark.parametrize("even", [True, False], ids=["char2", "odd"])
    def test_equal_to_cantor(self, even, corpus, monkeypatch):
        fallbacks = []

        def counted(*args):
            fallbacks.append(args)
            return _cantor(*args)

        monkeypatch.setattr(mumford, "_cantor", counted)
        rng = Random(even)
        taken = Counter()

        def check(curve, d1, d2):
            fallbacks.clear()
            out = cantor_add(curve, d1, d2)
            assert out == _cantor(curve, d1, d2), (curve, d1, d2)
            assert bool(fallbacks) == needs_cantor(curve, d1, d2), (curve, d1, d2)
            taken[branch(d1, d2, out, bool(fallbacks))] += 1

        def check_invalid(curve, group):
            # a class of each degree outside the group, where one exists:
            # whatever _cantor rejects is rejected, and neither law returns an
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
                    rejected = checked_sum(_cantor, curve, d1, d2) is None
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
        deg2 = [d for d in enumerate_jacobian(curve_e2) if d.degree == 2]
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


class TestTranslateExperiments:
    def test_identity_tuple_support_is_theta(self, curve_e2):
        exp = translate_support_count(curve_e2, (IDENTITY, IDENTITY, IDENTITY))
        assert exp.support_count == 5
        assert exp.weight_surrogate == 8
        assert not exp.attained

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
