"""Curve validation and point counting against exhaustive oracles.

The singularity oracle scans both affine charts of the weighted model over
F_{q^d}, d <= 3, for simultaneous zeros of the equation and its partials;
degree bounds make that complete (any repeated factor of a sextic has
degree <= 3, and singular x-coordinates in characteristic 2 are roots of
h).  The count oracle solves nothing: it tries every (x, y) pair.  The
per-x loop oracle reads the roots in y above every x of F_{q^k} through the
field's operations, where the library's count visits the weighted x-classes
of ``_x_classes`` (over F_{q^2}, one x per Frobenius pair) and reads their
cached power-log rows (characteristic 2) or runs Horner (odd
characteristic) on the discrete-log tables.
``curve_points`` lists the points themselves.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest

from jacobicode import poly
from jacobicode.curves import (
    IMAGINARY,
    REAL,
    CurveModel,
    _check_budget,
    _x_classes,
    count_points,
    validate_curve,
)
from jacobicode.errors import (
    BudgetExceededError,
    GenusNotTwoError,
    JacobicodeError,
    MalformedCurveError,
    SingularModelError,
    WrongDegreeError,
)
from jacobicode.explore import RANDOM, SearchSpace
from jacobicode.fields import extend_field, field_from_order, make_field
from jacobicode.weil import serre_constant
from conftest import enumerate_curves, evaluate, power


# -- oracles -----------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y), or a point at infinity when x is None.

    For real models the two possible points at infinity are told apart by
    the y slot, which then holds the solution of the leading-term equation;
    an imaginary model's single point at infinity is ``CurvePoint(None, 0)``.
    """

    x: int | None
    y: int

    @property
    def at_infinity(self) -> bool:
        return self.x is None


INFINITY = CurvePoint(None, 0)


def curve_points(curve, k=1):
    """The explicit point set over F_{q^k}; its length equals count_points."""
    _check_budget(curve, k)
    emb = extend_field(curve.field, k, allow_large=True)
    E, hh, ff = emb.ext, emb.map_poly(curve.h), emb.map_poly(curve.f)
    pts = []
    if curve.is_imaginary:
        pts.append(INFINITY)
    else:  # z^2 + h3 z = f6 on the chart at infinity
        roots = E.quadratic_roots(poly.coefficient(hh, 3), poly.coefficient(ff, 6))
        pts.extend(CurvePoint(None, z) for z in roots)
    for x in E.elements():
        roots = E.quadratic_roots(evaluate(E, hh, x), evaluate(E, ff, x))
        pts.extend(CurvePoint(x, y) for y in roots)
    return pts


def brute_count(field, h, f, kind, k=1):
    """Count points by trying every (x, y), plus the chart at infinity."""
    emb = extend_field(field, k, allow_large=True)
    E = emb.ext
    hh, ff = emb.map_poly(h), emb.map_poly(f)
    total = 0
    for x in E.elements():
        for y in E.elements():
            lhs = E.add(E.mul(y, y), E.mul(evaluate(E, hh, x), y))
            if lhs == evaluate(E, ff, x):
                total += 1
    if kind == "imaginary":
        total += 1
    else:
        h3 = poly.coefficient(hh, 3)
        f6 = poly.coefficient(ff, 6)
        for z in E.elements():
            if E.add(E.mul(z, z), E.mul(h3, z)) == f6:
                total += 1
    return total


def count_points_loop(curve, k):
    """The number of points over F_{q^k} from the roots in y above every x."""
    emb = extend_field(curve.field, k, allow_large=True)
    E, hh, ff = emb.ext, emb.map_poly(curve.h), emb.map_poly(curve.f)
    if curve.is_imaginary:
        total = 1
    else:  # scan z^2 + h3 z = f6 on the chart at infinity
        h3, f6 = poly.coefficient(hh, 3), poly.coefficient(ff, 6)
        total = sum(E.add(E.mul(z, z), E.mul(h3, z)) == f6 for z in E.elements())
    if E.p == 2:
        mul, inv, add = E.mul, E.inv, E.add

        def trace(c):  # c + c^2 + ... + c^(2^(a-1)), from the definition
            t = 0
            for _ in range(E.a):
                t, c = add(t, c), mul(c, c)
            return t

        # inline Horner per x; h is short so this dominates nothing
        for x in E.elements():
            fx = 0
            for c in reversed(ff):
                fx = add(mul(fx, x), c)
            hx = 0
            for c in reversed(hh):
                hx = add(mul(hx, x), c)
            if hx == 0:
                total += 1
            elif trace(mul(fx, inv(mul(hx, hx)))) == 0:
                total += 2
    else:
        mul, add = E.mul, E.add
        squares = E.nonzero_squares
        for x in E.elements():
            fx = 0
            for c in reversed(ff):
                fx = add(mul(fx, x), c)
            if fx == 0:
                total += 1
            elif fx in squares:
                total += 2
    return total


def draw_real_model(field, seed, accept):
    """The first valid real model of a seeded draw that ``accept`` takes."""
    rng = random.Random(seed)
    q = field.q
    for _ in range(10000):
        h = tuple(rng.randrange(q) for _ in range(4))
        f = tuple(rng.randrange(q) for _ in range(6)) + (1,)
        try:
            curve = validate_curve(field, h, f)
        except JacobicodeError:
            continue
        if curve.kind == REAL and accept(curve):
            return curve
    raise AssertionError(f"no accepted real model over F_{q}")


def seeded_real_models():
    """One seeded real model per shape of the chart at infinity.

    Over F_4 and F_8: h3 = 0 or not, crossed with h(0) = 0 or not.  Over F_9
    and F_25: a square or a non-square leading coefficient after folding.
    """
    models = []
    for q in (4, 8):
        field = field_from_order(q)
        for h3_zero in (True, False):
            for h0_zero in (True, False):
                models.append(draw_real_model(field, q, lambda c: (
                    (poly.coefficient(c.h, 3) == 0) == h3_zero
                    and (poly.coefficient(c.h, 0) == 0) == h0_zero)))
    for q in (9, 25):
        field = field_from_order(q)
        squares = {field.mul(z, z) for z in range(1, q)}
        for square in (True, False):
            models.append(draw_real_model(field, q, lambda c: (c.f[-1] in squares) == square))
    return models


def _chart_polys(field, h, f):
    """Both charts of the weighted model, as (h-part, f-part) pairs."""
    h6 = tuple(poly.coefficient(h, i) for i in range(4))
    f6 = tuple(poly.coefficient(f, i) for i in range(7))
    inf_h = poly.trim(reversed(h6))
    inf_f = poly.trim(reversed(f6))
    return ((poly.trim(h6), poly.trim(f6)), (inf_h, inf_f))


def has_singular_point(field, h, f):
    """Exhaustive singular-point search over F_{q^d}, d in {1, 2, 3}."""
    for hh, ff in _chart_polys(field, h, f):
        for d in (1, 2, 3):
            emb = extend_field(field, d, allow_large=True)
            E = emb.ext
            hd, fd = emb.map_poly(hh), emb.map_poly(ff)
            hp, fp = poly.derivative(E, hd), poly.derivative(E, fd)
            for x in E.elements():
                hx = evaluate(E, hd, x)
                fx = evaluate(E, fd, x)
                hpx = evaluate(E, hp, x)
                fpx = evaluate(E, fp, x)
                for y in E.elements():
                    if (E.add(E.mul(y, y), E.mul(hx, y)) == fx
                            and E.add(E.add(y, y), hx) == 0
                            and E.mul(hpx, y) == fpx):
                        return True
    return False


def exhaustive_census(field, f_degree, h_degrees):
    q = field.q
    h_tuples = itertools.chain.from_iterable(
        itertools.product(range(q), repeat=d + 1) for d in h_degrees)
    for h in set(poly.trim(t) for t in h_tuples) | {()}:
        for tail in itertools.product(range(q), repeat=f_degree):
            yield h, tail + (1,)


# -- validation --------------------------------------------------------------

class TestValidation:
    def test_anchor_models(self, f2):
        c = validate_curve(f2, (1,), (0, 0, 0, 0, 0, 1))
        assert c.kind == "imaginary" and c.h == (1,)

    def test_char2_h_zero_is_singular(self, f2):
        with pytest.raises(SingularModelError):
            validate_curve(f2, (), (0, 0, 0, 0, 0, 1))

    @pytest.mark.parametrize("h,f", [
        ((True,), (1, 0, 0, 0, 0, 1)),
        ((1,), (1, 0, 0, 0, 0, True)),
        ((1, False), (1, 0, 0, 0, 0, 1)),  # a trailing False is no zero to trim
        ((1,), (1, 0, 0, 0, 0, 1, 0.0)),
    ])
    def test_bool_and_float_coefficients_are_rejected(self, f4, h, f):
        with pytest.raises(MalformedCurveError):
            validate_curve(f4, h, f)
        with pytest.raises(MalformedCurveError):
            CurveModel.from_dict({"field": f4.to_dict(), "h": list(h), "f": list(f)})

    def test_wrong_degree(self):
        F3 = make_field(3, 1)
        with pytest.raises(WrongDegreeError):
            validate_curve(F3, (), (1, 0, 0, 0, 1))  # x^4 + 1
        with pytest.raises(WrongDegreeError):
            validate_curve(F3, (), (1, 0, 0, 0, 0, 2))  # non-monic quintic
        with pytest.raises(WrongDegreeError):
            validate_curve(F3, (0, 0, 0, 1), (0, 0, 0, 0, 0, 1))  # deg h = 3 on deg-5 f

    def test_odd_char_normalizes_h_away(self):
        F5 = make_field(5, 1)
        # y^2 + (x+1) y = x^5 + 2  ->  y^2 = x^5 + (x+1)^2/4 + 2
        c = validate_curve(F5, (1, 1), (2, 0, 0, 0, 0, 1))
        assert c.h == ()
        inv4 = F5.inv(4)
        expected = poly.add(F5, (2, 0, 0, 0, 0, 1),
                            poly.scale(F5, poly.mul(F5, (1, 1), (1, 1)), inv4))
        assert c.f == expected

    def test_odd_char_squarefree_required(self):
        F3 = make_field(3, 1)
        with pytest.raises(SingularModelError):
            validate_curve(F3, (), (0, 0, 0, 0, 0, 1))  # x^5 has a double root
        c = validate_curve(F3, (), (0, 1, 0, 0, 0, 1))  # x^5 + x is squarefree
        assert c.kind == "imaginary"

    def test_char5_fifth_power_detected(self):
        F5 = make_field(5, 1)
        # x^5 + 2 = (x + c)^5 in characteristic 5: derivative vanishes identically
        with pytest.raises(SingularModelError):
            validate_curve(F5, (), (2, 0, 0, 0, 0, 1))

    def test_real_models(self):
        F5 = make_field(5, 1)
        c = validate_curve(F5, (), (1, 1, 0, 0, 0, 0, 1))  # x^6 + x + 1
        assert c.kind == "real"
        F2 = make_field(2, 1)
        c2 = validate_curve(F2, (1,), (0, 0, 0, 0, 0, 1, 1))  # y^2+y = x^6+x^5
        assert c2.kind == "real"
        with pytest.raises(SingularModelError):
            validate_curve(F2, (1,), (0, 0, 0, 0, 0, 0, 1))  # y^2+y = x^6

    def test_degree6_leading_cancellation_rekinds(self):
        # over F_5: h = x^3 with h^2/4 = 4 x^6; 1 + 4 = 0 kills the sextic term
        # and the surviving x^5 term makes the normalized model imaginary
        F5 = make_field(5, 1)
        c = validate_curve(F5, (0, 0, 0, 1), (0, 1, 0, 0, 0, 1, 1))
        assert c.kind == "imaginary"
        assert poly.degree(c.f) == 5

    def test_degree6_full_cancellation_is_not_genus_two(self):
        # leading cancellation with no x^5 term left: degree drops below 5
        F5 = make_field(5, 1)
        with pytest.raises((GenusNotTwoError, SingularModelError)):
            validate_curve(F5, (0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 1))

    @pytest.mark.parametrize("q,f_degree,h_degrees,sample", [
        (2, 5, (0, 1, 2), None),
        (2, 6, (0, 1, 2, 3), None),
        (3, 5, (0, 1, 2), None),
        (3, 6, (0, 1, 2, 3), 400),
        (4, 5, (0, 1, 2), 400),
        (5, 5, (0, 1, 2), 400),
    ])
    def test_validation_matches_bruteforce_singularity_search(
            self, q, f_degree, h_degrees, sample):
        field = field_from_order(q)
        census = list(exhaustive_census(field, f_degree, h_degrees))
        if sample is not None:
            census = census[:: max(1, len(census) // sample)]
        checked = 0
        for h, f in census:
            try:
                validate_curve(field, h, f)
                accepted = True
            except (SingularModelError, GenusNotTwoError):
                accepted = False
            except WrongDegreeError:
                continue
            assert accepted == (not has_singular_point(field, h, f)), (h, f)
            checked += 1
        assert checked > 50


# -- counting ----------------------------------------------------------------

class TestCounting:
    def test_e1_counts(self, curve_e1):
        assert count_points(curve_e1, 1).count == 3
        assert count_points(curve_e1, 2).count == 5

    def test_e2_counts(self, curve_e2):
        assert count_points(curve_e2, 1).count == 5
        assert count_points(curve_e2, 2).count == 5

    def test_e1_point_set(self, curve_e1):
        assert set(curve_points(curve_e1, 1)) == {
            INFINITY, CurvePoint(0, 0), CurvePoint(0, 1)}

    def test_e2_point_set(self, curve_e2):
        assert set(curve_points(curve_e2, 1)) == {
            INFINITY, CurvePoint(0, 0), CurvePoint(0, 1),
            CurvePoint(1, 0), CurvePoint(1, 1)}

    def test_counts_match_bruteforce_on_corpus(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:20]:
                for k in (1, 2):
                    if curve.field.q ** (2 * k) > 1 << 16:
                        continue
                    expected = brute_count(curve.field, curve.h, curve.f,
                                           curve.kind, k)
                    assert count_points(curve, k).count == expected

    def test_real_model_counts_match_bruteforce(self):
        F5 = make_field(5, 1)
        F2 = make_field(2, 1)
        cases = [
            (F5, (), (1, 1, 0, 0, 0, 0, 1)),       # lc = 1 square: 2 points at infinity
            (F5, (), (2, 1, 0, 0, 0, 0, 1)),
            (F2, (1,), (0, 0, 0, 0, 0, 1, 1)),      # ramified infinity (h3 = 0)
            (F2, (0, 0, 0, 1), (1, 0, 1, 0, 0, 0, 1)),  # split/inert infinity (h3 != 0)
        ]
        curves = []
        for field, h, f in cases:
            try:
                curves.append(validate_curve(field, h, f))
            except JacobicodeError:
                continue
        curves += seeded_real_models()
        for curve in curves:
            for k in (1, 2) if curve.field.q <= 9 else (1,):
                expected = brute_count(curve.field, curve.h, curve.f, curve.kind, k)
                assert count_points(curve, k).count == expected, (curve, k)

    def test_odd_real_nonsquare_leading_coefficient(self):
        # force a non-monic normalized f: h = x^3, f = x^6 + ... over F_3
        # h^2/4 = x^6: lc becomes 1 + 1 = 2, a non-square mod 3: 0 points at infinity
        F3 = make_field(3, 1)
        curve = validate_curve(F3, (0, 0, 0, 1), (1, 1, 0, 0, 0, 0, 1))
        assert curve.kind == "real" and curve.f[-1] == 2
        for k in (1, 2):
            expected = brute_count(F3, curve.h, curve.f, curve.kind, k)
            assert count_points(curve, k).count == expected

    def test_count_equals_point_list_length(self, corpus):
        for curves in corpus.values():
            for curve in curves[:15]:
                for k in (1, 2):
                    assert count_points(curve, k).count == len(curve_points(curve, k))

    def test_serre_weil_window(self, corpus):
        for q, curves in corpus.items():
            for curve in curves:
                for k in (1, 2):
                    nk = count_points(curve, k).count
                    qk = q ** k
                    assert abs(nk - (qk + 1)) <= 2 * serre_constant(qk)

    def test_points_inject_into_quadratic_extension(self, corpus):
        for curves in corpus.values():
            for curve in curves[:10]:
                emb = extend_field(curve.field, 2, allow_large=True)
                big = set(curve_points(curve, 2))
                for pt in curve_points(curve, 1):
                    if pt.at_infinity:
                        lifted = CurvePoint(None, emb(pt.y))
                    else:
                        lifted = CurvePoint(emb(pt.x), emb(pt.y))
                    assert lifted in big

    def test_budget(self, curve_e2):
        with pytest.raises(BudgetExceededError):
            count_points(curve_e2, 21)
        with pytest.raises(BudgetExceededError):
            curve_points(curve_e2, 21)

    def test_k_must_be_a_positive_int(self, curve_e2):
        # True and 1.0 hash like 1, so a cached count would carry them as k
        count_points.cache_clear()
        for k in (True, 1.0, 0):
            for _ in range(2):  # an exception is never cached
                with pytest.raises(ValueError):
                    count_points(curve_e2, k)
        assert type(count_points(curve_e2, 1).k) is int

    def test_extension_count_example_over_f8(self, curve_e2):
        assert count_points(curve_e2, 3).count == 17


def loop_degrees(q):
    """The k checked against the per-x loop: up to F_{q^3} while q <= 8."""
    return (1, 2, 3) if q <= 8 else (1, 2)


class TestQuadraticCount:
    """N1, N2 (one x per Frobenius pair) and N3 equal the per-x loop."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("kind", [IMAGINARY, REAL])
    def test_every_small_model(self, q, kind):
        curves = list(enumerate_curves(SearchSpace(field=field_from_order(q), kind=kind)))
        assert len(curves) > 100
        for curve in curves:
            for k in loop_degrees(q):
                assert count_points(curve, k).count == count_points_loop(curve, k), (curve, k)

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 27, 32, 64])
    @pytest.mark.parametrize("kind", [IMAGINARY, REAL])
    def test_seeded_models(self, q, kind):
        space = SearchSpace(field=field_from_order(q), kind=kind, mode=RANDOM,
                            seed=q, trials=12)
        curves = list(enumerate_curves(space))
        assert len(curves) >= 3
        for curve in curves:
            for k in loop_degrees(q):
                assert count_points(curve, k).count == count_points_loop(curve, k), (curve, k)

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    @pytest.mark.parametrize("h", [(1,), (0, 1), (0, 0, 1), (0, 0, 0, 1)],
                             ids=["1", "x", "x2", "x3"])
    def test_sparse_char2_models(self, q, h):
        """h a monomial and f mostly zero: the power-log rows meet zero
        coefficients, zero leading terms of h and x = 0 on every loop."""
        field = field_from_order(q)
        rng = random.Random(q)
        checked = 0
        for degree in (5, 6):
            if len(h) > degree - 2:  # deg h <= 2 for deg f = 5
                continue
            found = 0
            for _ in range(200):
                f = [0] * degree + [1]
                for i in rng.sample(range(degree), 2):
                    f[i] = rng.randrange(q)
                try:
                    curve = validate_curve(field, h, f)
                except JacobicodeError:
                    continue
                for k in loop_degrees(q):
                    assert count_points(curve, k).count == count_points_loop(curve, k), (curve, k)
                found += 1
                if found == 3:
                    break
            assert found, (h, degree)
            checked += found
        assert checked

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
    def test_pair_representatives(self, q):
        emb = extend_field(field_from_order(q), 2)
        E = emb.ext
        pairs = emb.frobenius_pairs
        assert len(pairs) == (q * q - q) // 2
        assert list(pairs) == sorted(pairs)
        assert sorted(emb.image) == [x for x in E.elements() if power(E, x, q) == x]
        subfield = {emb(a) for a in range(q)}
        assert subfield.isdisjoint(pairs)
        covered = [y for x in pairs for y in (x, power(E, x, q))]
        assert sorted(covered) == [x for x in E.elements() if x not in subfield]


class TestXClasses:
    """The weighted x the count visits; ``tests/test_fields.py::TestPowerLogs``
    checks their characteristic-2 rows."""

    @pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27,
                                                        32, 49, 64)
                                     for k in ((1, 2, 3) if q <= 8 else (1, 2))])
    def test_weights_cover_the_field_once(self, q, k):
        """An x of weight w stands for itself and its w - 1 conjugates x^q,
        ...; the weights times the class sizes are q^k, the classes are
        disjoint, and the conjugates of every x cover F_{q^k} once."""
        emb, classes, neg2 = _x_classes(field_from_order(q), k)
        E = emb.ext
        assert E.q == q ** k and (neg2 == ()) == (E.p != 2)
        assert sum(weight * len(xs) for weight, xs in classes) == q ** k
        # in characteristic 2 a row stands for x, and starts with log x
        members = [[E.exp2[row[0]] for row in xs] if E.p == 2 else list(xs)
                   for _, xs in classes]
        flat = [x for xs in members for x in xs]
        assert len(set(flat)) == len(flat)
        covered = []
        for (weight, _), xs in zip(classes, members):
            for x in xs:
                conjugates = [x]
                for _ in range(weight - 1):
                    conjugates.append(power(E, conjugates[-1], q))
                covered += conjugates
        assert sorted(covered) == list(E.elements())
