"""Jacobian group oracle for imaginary genus-2 models.

Divisor classes are held in Mumford form (u, v): u monic of degree at most
2, deg v < deg u, and u dividing v^2 + h v - f.  The group law is in
closed form for every pair, straight-line on field scalars, by one rule
on the resultant of u2 and w = u1 mod u2 (or (v1 + v2 + h) mod u for
equal u).  When it is nonzero, explicit formulas add or double whatever
the degrees (a point doubled is its tangent, two points the line through
them); when it is 0, u1 and u2 share a root a and the sum is read off the
points over a, a double at a Weierstrass point over a being the tangent
at the other point.  Cantor's algorithm is the tests' oracle for it all.

The whole group is enumerated by solving the divisibility condition per
u: v must take a root y of y^2 + h(x) y = f(x) at each root x of u
(Cantor 1987), so the classes come from the points over F_q (split u,
including a double root lifted to second order) and over F_{q^2}
(irreducible u, one point per Frobenius pair) in O(q^2) field
operations: h, f and their derivatives come from ``FiniteField.values``,
and products and quotients run on the discrete-log tables.  Each class
is made once, a point as an int pair (u0, y) and a degree-2 class as one
int key whose digits base q are (u0, u1, v0, v1), so both sort in the
wire order with no key function; each key is then wrapped, by one
quotient and remainder mod q^2, as a MumfordDivisor record (a NamedTuple
of the coefficient tuples u and v) over u and v tuples shared per field.
That per-field table, ``_quadratic_tables``, also keeps what each
Frobenius pair contributes whatever the curve (log x, the key of its u,
log 1/(x - x^q)); it is built by the first enumeration over a field and
bounded like the embedding cache.  The resulting cardinality
is cross-checked against the order predicted by the Weil polynomial -- a
mismatch raises the OrderMismatch tripwire, it can only mean an
implementation bug or a corrupt model.

The curve sits inside its Jacobian through the base point at infinity:
an affine point (x0, y0) maps to (x - x0, y0) and infinity to the
identity.  The image is the theta set, the degree <= 1 classes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, repeat
from typing import Iterator, NamedTuple, Sequence

from . import poly
from .curves import CurveModel, count_points
from .errors import (
    BudgetExceededError,
    InvalidDivisorError,
    NonZeroSumError,
    OrderMismatchError,
    RealModelUnsupportedError,
)
from .fields import FiniteField, extend_field
from .weil import jacobian_order, weil_from_counts

JACOBIAN_Q_CAP = 64


class MumfordDivisor(NamedTuple):
    """Reduced divisor class (u, v); the identity is ((1,), ()).

    A tuple, so records compare by (u, v); the enumeration order is
    (deg u, u, v).
    """

    u: tuple[int, ...]
    v: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"u": list(self.u), "v": list(self.v)}


IDENTITY = MumfordDivisor((1,), ())


def check_divisor(curve: CurveModel, d: MumfordDivisor) -> None:
    """Raise InvalidDivisor unless (u, v) is a reduced divisor on the curve."""
    F = curve.field
    # checked before trimming, so a trailing False or 0.0 is not dropped as a zero;
    # a bool is an int subclass, but True would print as true in the wire format
    if any(type(c) is not int or not 0 <= c < F.q for c in (*d.u, *d.v)):
        raise InvalidDivisorError("coefficients must be integer encodings below q")
    u, v = poly.trim(d.u), poly.trim(d.v)
    if u != d.u or v != d.v:
        raise InvalidDivisorError("coefficient tuples must be trimmed")
    if not poly.is_monic(u) or poly.degree(u) > 2:
        raise InvalidDivisorError("u must be monic of degree <= 2")
    if poly.degree(v) >= poly.degree(u) and v:
        raise InvalidDivisorError("v must have degree below deg u")
    if poly.mod(F, _norm(curve, v), u):
        raise InvalidDivisorError("u does not divide v^2 + h v - f")


def _norm(curve: CurveModel, v: Sequence[int]) -> tuple[int, ...]:
    """f - h v - v^2, which u divides exactly when (u, v) is a class."""
    F = curve.field
    return poly.sub(F, curve.f, poly.add(F, poly.mul(F, curve.h, v), poly.mul(F, v, v)))


def _require_imaginary(curve: CurveModel) -> None:
    if not curve.is_imaginary:
        raise RealModelUnsupportedError(
            "Mumford arithmetic here needs an imaginary (degree-5) model")


def cantor_add(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor) -> MumfordDivisor:
    """Group law on reduced classes, in closed form for every pair.

    The identity and a class plus its negative are read off directly.  On
    every other pair r = Res(u2, w) decides: r != 0 takes one composition
    and at most one reduction step (Lange 2005, affine, any h;
    ``_explicit_sum``, and ``_point_sum`` for a point); r = 0 means a common
    root a of u1 and u2 in F_q, and the points over a give the sum
    (``_shared_root``), save 2(P + W) = 2P for a Weierstrass point W over a.
    Those forms, the line through two points and the tangent at a point
    skip the exact division of a composition, so they check every point
    they read on the curve; they and an inexact division raise
    InvalidDivisorError.  Inputs are not validated beyond that
    (``check_divisor`` does): the identity returns the other operand as it
    is, and every pair of formal negatives (equal u, v1 + v2 + h = 0 mod
    u) sums to the identity, on the curve or not.
    Cantor's algorithm (Math. Comp. 48, 1987) is the tests' oracle: it
    equals this law on valid classes and rejects no pair that this law
    accepts; on y^2 + x^2 y = x^5 + x^4 + x + 1 over F_2 it rejects the
    off-curve (x^2, x) doubled, which this law sends to the identity.
    """
    _require_imaginary(curve)
    if d1.u == (1,):
        return d2
    if d2.u == (1,):
        return d1
    if len(d1.u) > len(d2.u):
        d1, d2 = d2, d1
    return _explicit_sum(curve, d1, d2)


def _explicit_sum(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor) -> MumfordDivisor:
    """d1 + d2, deg u1 <= deg u2: one composition, at most one reduction step.

    The identity when u1 == u2 and w = (v1 + v2 + h) mod u is 0; else
    w = u1 mod u2 for distinct u, and r = Res(m, w), m = u2.  When r != 0,
    V solves V = v1 mod u1 and, modulo m, V = v2 (add: u2 != u1) or V = v1
    to second order (double: d1 == d2):

    * add: V = v1 + s u1 with s = (v2 - v1) / u1 mod u2;
    * double: V = v + s u with s = k / (2v + h) mod u, k = (f - h v - v^2) / u.

    With U = u1 m of degree 4 the sum is u' = monic((f - h V - V^2) / U)
    and v' = (-h - V) mod u'; u' has degree 1 when s is constant.  With
    r != 0, equal u and v1 != v2 raise InvalidDivisorError: valid classes
    so shaped are opposite over a root of u, where w vanishes.  When
    r = 0, w and m share the root x0: a double of P + W has its
    Weierstrass point W over x0, so the sum is the tangent at P, and any
    other pair has the points over x0 to give the sum (``_shared_root``).

    Every form runs straight-line on scalars, with the field's add, sub,
    mul and inv only and one body for every field.  For two degree-2
    operands the composition and reduction from s on is ``_sum_scalars``,
    whose division by U keeps its remainder check, the only validity
    check of a double.  An operand of degree 1 takes ``_point_sum``: a
    point plus a coprime class reduces the cubic U in ``_cubic_sum``, with
    the same check; two points, or a point doubled, check each point read.
    """
    if len(d1.u) < 3:
        return _point_sum(curve, d1, d2)
    F = curve.field
    add, sub, mul = F.add, F.sub, F.mul
    h0, h1, h2 = curve.h + (0,) * (3 - len(curve.h))
    a0, a1, _ = d1.u
    b0, b1, _ = d2.u
    p0, p1 = (d1.v + (0, 0))[:2]
    q0, q1 = (d2.v + (0, 0))[:2]
    same_u = d1.u == d2.u
    if same_u:
        # w = (v1 + v2 + h) mod u
        w0 = add(add(p0, q0), sub(h0, mul(h2, a0)))
        w1 = add(add(p1, q1), sub(h1, mul(h2, a1)))
        if not (w0 or w1):
            return IDENTITY
    else:
        w0, w1 = sub(a0, b0), sub(a1, b1)  # w = u1 mod u2

    # r = Res(m, w), m = u2, with j0 = w0 - w1 m1
    j0 = sub(w0, mul(w1, b1))
    r = add(mul(w0, j0), mul(mul(w1, w1), b0))
    if not r:  # w1 != 0, or r = w0^2
        x0 = mul(F.neg(w0), F.inv(w1))
        if d1 != d2:
            return _shared_root(curve, d1, d2, x0)
        a = sub(F.neg(a1), x0)
        if a == x0:
            raise InvalidDivisorError("u has a double root at a Weierstrass point")
        _on_curve(curve, x0, add(p0, mul(p1, x0)))  # W
        return _double_point(curve, a, add(p0, mul(p1, a)))
    if not same_u:
        t0, t1 = sub(q0, p0), sub(q1, p1)  # t = v2 - v1
    elif d1.v == d2.v:
        t0, t1 = _quotient_mod_u(curve, d1)  # t = k mod u
    else:
        raise InvalidDivisorError("v1 and v2 are opposite at no root of u but are not negatives")

    # s = t / w mod m = t (j0 - w1 x) / r mod m
    ri = F.inv(r)
    s1 = mul(sub(mul(t1, w0), mul(t0, w1)), ri)
    s0 = mul(add(mul(t0, j0), mul(mul(t1, w1), b0)), ri)
    return _sum_scalars(curve, d1, d2, s0, s1)


def _sum_scalars(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor,
                 s0: int, s1: int) -> MumfordDivisor:
    """The composition V = v1 + s u1, U = u1 u2 of degree 4, s = s0 + s1 x,
    reduced once, on field scalars; deg u1 = deg u2 = 2."""
    F = curve.field
    add, sub, mul = F.add, F.sub, F.mul
    h0, h1, h2 = curve.h + (0,) * (3 - len(curve.h))  # deg h <= 2, deg f = 5
    f0, f1, f2, f3, f4, f5 = curve.f
    a0, a1, _ = d1.u
    b0, b1, _ = d2.u
    p0, p1 = (d1.v + (0, 0))[:2]

    # V = v1 + s u1 and H = V + h; U = u1 u2 is monic of degree 4
    V3, V2 = s1, add(s0, mul(s1, a1))
    V1, V0 = add(p1, add(mul(s0, a1), mul(s1, a0))), add(p0, mul(s0, a0))
    H2, H1, H0 = add(V2, h2), add(V1, h1), add(V0, h0)
    U3, U2 = add(a1, b1), add(add(a0, b0), mul(a1, b1))
    U1, U0 = add(mul(a0, b1), mul(a1, b0)), mul(a0, b0)

    # K = (V H - f) / U = -(f - h V - V^2) / U, n_i the coefficients of
    # V H - f; the division must leave no remainder
    n5 = sub(add(mul(V3, H2), mul(V2, V3)), f5)
    n4 = sub(add(add(mul(V3, H1), mul(V2, H2)), mul(V1, V3)), f4)
    n3 = sub(add(add(mul(V3, H0), mul(V2, H1)), add(mul(V1, H2), mul(V0, V3))), f3)
    n2 = sub(add(add(mul(V2, H0), mul(V1, H1)), mul(V0, H2)), f2)
    n1 = sub(add(mul(V1, H0), mul(V0, H1)), f1)
    n0 = sub(mul(V0, H0), f0)
    K2 = mul(V3, V3)
    K1 = sub(n5, mul(K2, U3))
    K0 = sub(n4, add(mul(K2, U2), mul(K1, U3)))
    if (sub(n3, add(add(mul(K2, U1), mul(K1, U2)), mul(K0, U3)))
            or sub(n2, add(add(mul(K2, U0), mul(K1, U1)), mul(K0, U2)))
            or sub(n1, add(mul(K1, U0), mul(K0, U1))) or sub(n0, mul(K0, U0))):
        raise InvalidDivisorError("(f - h V - V^2) is not divisible by u1 u2")

    if not K2:  # s is constant: u' = x + e with e = K0 / K1, v' = -H(-e)
        e = mul(K0, F.inv(K1))
        v = sub(mul(e, sub(H1, mul(e, H2))), H0)
        return MumfordDivisor((e, 1), (v,) if v else ())
    # u' = x^2 + e1 x + e0 and v' = -H mod u'
    ki = F.inv(K2)
    e1, e0 = mul(K1, ki), mul(K0, ki)
    g2, g1 = sub(H2, mul(V3, e1)), sub(H1, mul(V3, e0))
    return _quadratic_class(e0, e1, sub(mul(g2, e0), H0), sub(mul(g2, e1), g1))


def _quotient_mod_u(curve: CurveModel, d: MumfordDivisor) -> tuple[int, int]:
    """(t0, t1): t = k mod u for the quotient k of f - h v - v^2 (degree 5)
    by u, deg u = 2; the remainder is left to the caller's final division."""
    F = curve.field
    add, sub, mul = F.add, F.sub, F.mul
    _, h1, h2 = curve.h + (0,) * (3 - len(curve.h))
    _, _, f2, f3, f4, f5 = curve.f
    a0, a1, _ = d.u
    p0, p1 = (d.v + (0, 0))[:2]
    k3 = f5
    k2 = sub(f4, mul(k3, a1))
    k1 = sub(sub(f3, mul(h2, p1)), add(mul(k3, a0), mul(k2, a1)))
    k0 = sub(sub(f2, add(add(mul(h2, p0), mul(h1, p1)), mul(p1, p1))),
             add(mul(k2, a0), mul(k1, a1)))
    c2, c1 = sub(k2, mul(k3, a1)), sub(k1, mul(k3, a0))
    return sub(k0, mul(c2, a0)), sub(c1, mul(c2, a1))


def _point_sum(curve: CurveModel, d1: MumfordDivisor,
               d2: MumfordDivisor) -> MumfordDivisor:
    """``_explicit_sum`` for u1 = x - a, on field scalars: (a, y1) plus a
    class through no point over a is ``_cubic_sum``, two points with
    distinct x give the line through both, and the same point twice the
    tangent."""
    F = curve.field
    add, sub, mul = F.add, F.sub, F.mul
    a, y1 = F.neg(d1.u[0]), (d1.v or (0,))[0]
    if len(d2.u) == 3:
        (b0, b1, _), (q0, q1) = d2.u, (d2.v + (0, 0))[:2]
        r = add(mul(add(a, b1), a), b0)  # u2(a) = Res(u1, u2)
        if not r:
            return _shared_root(curve, d1, d2, a)
        return _cubic_sum(curve, d2, a, mul(sub(sub(y1, q0), mul(q1, a)), F.inv(r)))
    b, y2 = F.neg(d2.u[0]), (d2.v or (0,))[0]
    if a != b:
        _on_curve(curve, a, y1)
        _on_curve(curve, b, y2)
        slope = mul(sub(y2, y1), F.inv(sub(b, a)))
        return _quadratic_class(mul(a, b), F.neg(add(a, b)), sub(y1, mul(slope, a)), slope)
    if not add(add(y1, y2), F.values(curve.h, (a,))[0]):
        return IDENTITY
    if y1 != y2:
        raise InvalidDivisorError("two points over one x are neither equal nor opposite")
    return _double_point(curve, a, y1)


def _cubic_sum(curve: CurveModel, d: MumfordDivisor, a: int, c: int) -> MumfordDivisor:
    """The composition V = v + c u, U = (x - a) u of degree 3, reduced once,
    on field scalars; deg u = 2 and V passes through the point over a."""
    F = curve.field
    add, sub, mul = F.add, F.sub, F.mul
    h0, h1, h2 = curve.h + (0,) * (3 - len(curve.h))
    f0, f1, f2, f3, f4, f5 = curve.f
    (b0, b1, _), (q0, q1) = d.u, (d.v + (0, 0))[:2]
    V2, V1, V0 = c, add(q1, mul(c, b1)), add(q0, mul(c, b0))
    H2, H1, H0 = add(V2, h2), add(V1, h1), add(V0, h0)
    U2, U1, U0 = sub(b1, a), sub(b0, mul(a, b1)), F.neg(mul(a, b0))

    # K = (V H - f) / U has degree 2 and K2 = -f5, as deg V H <= 4; the
    # division must leave no remainder
    K2 = F.neg(f5)
    K1 = sub(sub(mul(V2, H2), f4), mul(K2, U2))
    K0 = sub(sub(add(mul(V2, H1), mul(V1, H2)), f3), add(mul(K2, U1), mul(K1, U2)))
    if (sub(sub(add(add(mul(V2, H0), mul(V1, H1)), mul(V0, H2)), f2),
            add(add(mul(K2, U0), mul(K1, U1)), mul(K0, U2)))
            or sub(sub(add(mul(V1, H0), mul(V0, H1)), f1), add(mul(K1, U0), mul(K0, U1)))
            or sub(sub(mul(V0, H0), f0), mul(K0, U0))):
        raise InvalidDivisorError("(f - h V - V^2) is not divisible by u1 u2")
    # u' = monic(K) and v' = -H mod u'
    ki = F.inv(K2)
    e1, e0 = mul(K1, ki), mul(K0, ki)
    return _quadratic_class(e0, e1, sub(mul(H2, e0), H0), sub(mul(H2, e1), H1))


def _shared_root(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor,
                 a: int) -> MumfordDivisor:
    """d1 + d2 for d1 != d2 with the common root a, deg u1 <= deg u2 = 2.

    The classes hold points (a, y1) and (a, y2), and u2 has the other root
    b2 = -u2_1 - a (u1 likewise b1).  Opposite points cancel, which equal u
    always have: the sum is the line through (b1, v1(b1)) and (b2, v2(b2)),
    the tangent at that one point when b1 == b2, or the point (b2, v2(b2))
    when u1 = x - a; each point read, and the slope of a class with a
    double root at a, is checked on the curve.  The same point P twice
    takes one composition V = v1 + s u1, u1 the operand with the higher
    multiplicity at a: s(a) = k1(a) / (2y + h(a)) lifts it to second order
    at a (the double's s) and s(b2) = (v2 - v1)(b2) / u1(b2) passes it
    through v2 (the add's s); for a point plus a class, s is the constant
    lift of the class.  The division by U = u1 u2 checks both.
    """
    F = curve.field
    add, sub, mul, neg, inv, at = F.add, F.sub, F.mul, F.neg, F.inv, F.values
    (y1,), (y2,) = at(d1.v, (a,)), at(d2.v, (a,))
    c = add(add(y1, y1), _on_curve(curve, a, y1))
    b2 = sub(neg(d2.u[1]), a)
    if y2 == sub(y1, c):  # y2 = -y1 - h(a)
        z2 = _remaining_point(curve, d2, a, b2, y2)
        if len(d1.u) == 2:
            return MumfordDivisor((neg(b2), 1), (z2,) if z2 else ())
        b1 = sub(neg(d1.u[1]), a)
        z1 = _remaining_point(curve, d1, a, b1, y1)
        if b1 == b2:  # u1 == u2: z1 == z2, else v1 + v2 + h would vanish at a and b
            return _double_point(curve, b1, z1)
        slope = mul(sub(z1, z2), inv(sub(b1, b2)))
        return _quadratic_class(mul(b1, b2), neg(add(b1, b2)), sub(z1, mul(slope, b1)), slope)
    if y2 != y1:
        raise InvalidDivisorError("a point over a common root of u1 and u2 is off the curve")
    if len(d1.u) == 2 or b2 == a:  # u1 takes the higher multiplicity at a
        d1, d2 = d2, d1
    t0, t1 = _quotient_mod_u(curve, d1)
    sa = mul(add(t0, mul(t1, a)), inv(c))
    if len(d2.u) == 2:  # U = u1 (x - a)
        return _cubic_sum(curve, d1, a, sa)
    b2 = sub(neg(d2.u[1]), a)
    v2b, v1b, u1b = (at(g, (b2,))[0] for g in (d2.v, d1.v, d1.u))
    s1 = mul(sub(mul(sub(v2b, v1b), inv(u1b)), sa), inv(sub(b2, a)))
    return _sum_scalars(curve, d1, d2, sub(sa, mul(s1, a)), s1)


def _remaining_point(curve: CurveModel, d: MumfordDivisor, a: int, b: int, y: int) -> int:
    """v(b) for a class d with u = (x - a)(x - b) and its point (a, y) on
    the curve, once the rest of d is checked: the point (b, v(b)) on the
    curve when b != a, and d the tangent class 2(a, y) when b == a."""
    z = curve.field.values(d.v, (b,))[0]
    if b != a:
        _on_curve(curve, b, z)
    elif d != _double_point(curve, a, y):
        raise InvalidDivisorError("v does not follow the curve to second order at a double root of u")
    return z


def _double_point(curve: CurveModel, a: int, y: int) -> MumfordDivisor:
    """2P for P = (a, y) on the curve, the enumeration's double-root lift:
    u = (x - a)^2, v = y + l (x - a) with (2y + h(a)) l = f'(a) - h'(a) y;
    the identity at a Weierstrass point, where 2y + h(a) = 0."""
    F = curve.field
    c = F.add(F.add(y, y), _on_curve(curve, a, y))
    if not c:
        return IDENTITY
    (dh,), (df,) = (F.values(poly.derivative(F, g), (a,)) for g in (curve.h, curve.f))
    slope = F.mul(F.sub(df, F.mul(dh, y)), F.inv(c))
    return _quadratic_class(F.mul(a, a), F.neg(F.add(a, a)), F.sub(y, F.mul(slope, a)), slope)


def _on_curve(curve: CurveModel, x: int, y: int) -> int:
    """h(x), once y^2 + h(x) y = f(x) is checked; InvalidDivisorError if not."""
    F = curve.field
    (hx,), (fx,) = F.values(curve.h, (x,)), F.values(curve.f, (x,))
    if F.add(F.mul(y, y), F.mul(hx, y)) != fx:
        raise InvalidDivisorError(f"({x}, {y}) is not a point of the curve")
    return hx


def _quadratic_class(u0: int, u1: int, v0: int, v1: int) -> MumfordDivisor:
    """The class (x^2 + u1 x + u0, v0 + v1 x), v trimmed."""
    return MumfordDivisor((u0, u1, 1), (v0, v1) if v1 else ((v0,) if v0 else ()))


def negate(curve: CurveModel, d: MumfordDivisor) -> MumfordDivisor:
    """Hyperelliptic involution on classes: (u, (-v - h) mod u)."""
    _require_imaginary(curve)
    F = curve.field
    v = poly.mod(F, poly.neg(F, poly.add(F, d.v, curve.h)), d.u)
    return MumfordDivisor(d.u, v)


def scalar_mul(curve: CurveModel, n: int, d: MumfordDivisor) -> MumfordDivisor:
    """n-fold sum by double-and-add; negative n through the involution.
    ValueError unless n is an int."""
    _require_imaginary(curve)
    if type(n) is not int:
        raise ValueError(f"need an int n, got {n!r}")
    if n < 0:
        return scalar_mul(curve, -n, negate(curve, d))
    acc = IDENTITY
    base = d
    while n:
        if n & 1:
            acc = cantor_add(curve, acc, base)
        n >>= 1
        if n:
            base = cantor_add(curve, base, base)
    return acc


def in_theta(d: MumfordDivisor) -> bool:
    """Whether the class lies on the embedded curve (deg u <= 1)."""
    return len(d.u) <= 2


@lru_cache(maxsize=64)
def _quadratic_tables(field: FiniteField) -> tuple[tuple, tuple, tuple]:
    """The curve-free tables of ``_reduced_divisors`` over F_q: (us, vs, pairs).

    ``us[u0 q + u1]`` is the u tuple (u0, u1, 1) and ``vs[v0 q + v1]`` the
    trimmed v tuple of v0 + v1 x, so a degree-2 class keyed
    (u0 q + u1) q^2 + v0 q + v1 decodes, by quotient and remainder mod q^2,
    into two lookups.  ``pairs`` holds, for each x of ``frobenius_pairs``
    in F_{q^2}, (log x, q^2 times the key of u = (X - x)(X - x^q),
    log 1/(x - x^q)), with the norm and trace of x mapped back to F_q as
    u0 and -u1.  Built by the first enumeration over a field and kept for
    64 fields, the bound of the embedding cache.
    """
    q = field.q
    emb = extend_field(field, 2, allow_large=True)
    E, back = emb.ext, emb.preimage
    elog, eexp2, en = E.log, E.exp2, E.q - 1
    us = tuple((u0, u1, 1) for u0 in range(q) for u1 in range(q))
    vs = tuple((v0, v1) if v1 else ((v0,) if v0 else ())
               for v0 in range(q) for v1 in range(q))
    pairs = []
    for x in emb.frobenius_pairs:
        lx = elog[x]
        lxq = lx * q % en
        xq = eexp2[lxq]
        u = back[eexp2[lx + lxq]] * q + back[E.neg(E.add(x, xq))]
        pairs.append((lx, u * q * q, en - elog[E.sub(x, xq)]))
    return us, vs, tuple(pairs)


def _reduced_divisors(curve: CurveModel) -> list[MumfordDivisor]:
    """Every (u, v) with u monic, deg v < deg u <= 2 and u | v^2 + h v - f,
    sorted by (deg u, u, v).

    Solved per u from the roots y of y^2 + h(x) y = f(x) at the roots x of
    u; exact for any model, validated or not.  A point, u = x + u0 and
    v = y, is collected as the int pair (u0, y); a degree-2 class,
    u = x^2 + u1 x + u0 and v = v0 + v1 x, as the single int
    ((u0 q + u1) q + v0) q + v1.  Its digits base q are (u0, u1, v0, v1), so
    the int order is the order of those 4-tuples, which is the (u, v) order
    of the trimmed coefficient tuples since trimming v only drops trailing
    zeros: both lists sort with no key function.  Each key decodes into the
    shared u and v tuples of ``_quadratic_tables``, which also holds the
    curve-free data of each Frobenius pair.  Products and quotients run on
    the log tables of F_q and F_{q^2}.
    """
    F = curve.field
    q, n, q2 = F.q, F.q - 1, F.q * F.q
    h, f = curve.h, curve.f
    log, exp2 = F.log, F.exp2
    add, sub, neg = F.add, F.sub, F.neg
    solve = F.quadratic_roots
    us, vs, frobenius = _quadratic_tables(F)

    # u = x - a: v is a root y over a
    hs, fs = F.values(h, F.elements()), F.values(f, F.elements())
    roots = [solve(hs[a], fs[a]) for a in range(q)]
    points = [(neg(a), y) for a, ys in enumerate(roots) for y in ys]

    # u = (x - a)(x - b), a < b: v is the line through (a, y_a) and (b, y_b),
    # v1 = (y_a - y_b) / (a - b) and v0 = y_a - v1 a
    keys = []
    above = [(a, log[a], ys) for a, ys in enumerate(roots) if ys]
    for i, (a, la, ya_s) in enumerate(above):
        for b, lb, yb_s in above[i + 1:]:
            u = (exp2[la + lb] * q + neg(add(a, b))) * q2
            lw = n - log[sub(a, b)]
            for ya in ya_s:
                for yb in yb_s:
                    v1 = exp2[log[sub(ya, yb)] + lw]
                    keys.append(u + sub(ya, exp2[log[v1] + la]) * q + v1)

    # u = (x - a)^2: v = y + v1 (x - a) with (2y + h(a)) v1 = f'(a) - h'(a) y
    mul, inv = F.mul, F.inv
    at = [a for a, _, _ in above]
    dhs = F.values(poly.derivative(F, h), at)
    dfs = F.values(poly.derivative(F, f), at)
    for (a, _, ys), dha, dfa in zip(above, dhs, dfs):
        u = (mul(a, a) * q + neg(add(a, a))) * q2
        for y in ys:
            coef = add(add(y, y), hs[a])
            rhs = sub(dfa, mul(dha, y))
            if coef:
                lifts = (mul(rhs, inv(coef)),)
            elif rhs == 0:  # singular point: every slope fits
                lifts = range(q)
            else:
                lifts = ()
            for v1 in lifts:
                keys.append(u + sub(y, mul(v1, a)) * q + v1)

    # u irreducible: one root x of u in F_{q^2} per Frobenius pair {x, x^q}
    # (the pair list point counting uses); v is the F_q-line through (x, y)
    # and (x^q, y^q), v1 = (y - y^q) / (x - x^q) and v0 = y - v1 x.  log x,
    # the key of u and log 1/(x - x^q) come from the per-field table.
    emb = extend_field(F, 2, allow_large=True)
    E = emb.ext
    back = emb.preimage
    elog, eexp2, en = E.log, E.exp2, E.q - 1
    esub = E.sub
    esolve = E.quadratic_roots
    xs = emb.frobenius_pairs
    hxs = E.values(emb.map_poly(h), xs) if h else repeat(0)  # h = () in odd characteristic
    for (lx, u, lw), hx, fx in zip(frobenius, hxs, E.values(emb.map_poly(f), xs)):
        for y in esolve(hx, fx):
            d = esub(y, eexp2[elog[y] * q % en]) if y else 0  # y^q: an index mod en needs y != 0
            v1 = eexp2[elog[d] + lw]
            keys.append(u + back[esub(y, eexp2[elog[v1] + lx])] * q + back[v1])

    points.sort()
    keys.sort()
    new = tuple.__new__  # a C call, without the keyword-aware constructor
    return [IDENTITY,
            *[new(MumfordDivisor, ((u0, 1), (y,) if y else ())) for u0, y in points],
            *[new(MumfordDivisor, (us[key // q2], vs[key % q2])) for key in keys]]


@lru_cache(maxsize=256)
def enumerate_jacobian(curve: CurveModel) -> tuple[MumfordDivisor, ...]:
    """All reduced divisors, solved per u, sorted by wire encoding.

    For monic u of degree <= 2, u | v^2 + h v - f says that v takes a root
    y of y^2 + h(x) y = f(x) at every root x of u, to second order at a
    double root.  A squarefree u has its roots in F_q or a Frobenius pair
    in F_{q^2}, and v is the unique line through the chosen points; at a
    double root a the slope v1 solves (2y + h(a)) v1 = f'(a) - h'(a) y.
    Every solution is produced exactly once, so the list equals the
    exhaustive (u, v) scan.  A conjugate pair {P, iota(P)} admits no
    interpolating v and a doubled Weierstrass point has no slope, so each
    class of a smooth model appears once.  The classes come out as plain
    ints and int pairs, sorted by (deg u, u, v) with no key function, and
    are wrapped as MumfordDivisor records once; the cardinality is checked
    against the zeta-side order.
    """
    _require_imaginary(curve)
    F = curve.field
    q = F.q
    if q > JACOBIAN_Q_CAP:
        raise BudgetExceededError(f"jacobian enumeration capped at q <= {JACOBIAN_Q_CAP}")

    out = _reduced_divisors(curve)

    # counts a caller has just taken come from count_points' cache
    n1 = count_points(curve, 1).count
    n2 = count_points(curve, 2).count
    expected = jacobian_order(weil_from_counts(q, n1, n2))
    if len(out) != expected:
        raise OrderMismatchError(
            f"enumeration found {len(out)} classes but the Weil polynomial "
            f"predicts {expected}")
    return tuple(out)


def theta_set(curve: CurveModel) -> tuple[MumfordDivisor, ...]:
    """The embedded curve inside the enumerated Jacobian."""
    return tuple(d for d in enumerate_jacobian(curve) if in_theta(d))


def zero_sum_tuples(curve: CurveModel, r: int, limit: int | None = None,
                    stride: int = 1) -> Iterator[tuple[MumfordDivisor, ...]]:
    """Tuples (P_1, ..., P_r) summing to the identity.

    The first r-1 entries run lexicographically over the sorted group (so
    the all-identity tuple comes first) and the last entry is determined;
    ``stride`` keeps every stride-th tuple of that order, ``limit`` caps
    how many are yielded.  ValueError unless r, stride and limit are ints
    with r >= 2, stride >= 1 and limit None or >= 0.
    """
    if type(r) is not int or r < 2:
        raise ValueError(f"need an int r >= 2, got {r!r}")
    if type(stride) is not int or stride < 1:
        raise ValueError(f"need an int stride >= 1, got {stride!r}")
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError(f"need limit None or an int >= 0, got {limit!r}")

    group = enumerate_jacobian(curve)
    return _zero_sum_tuples(curve, group, r, limit, stride)


def _zero_sum_tuples(curve: CurveModel, group: tuple[MumfordDivisor, ...], r: int,
                     limit: int | None, stride: int) -> Iterator[tuple[MumfordDivisor, ...]]:
    """The generator of ``zero_sum_tuples``, once its arguments are checked;
    each kept index is decoded by divmod, so the work grows with the tuples
    yielded, not with the stride."""
    n = len(group)
    for index in islice(range(0, n ** (r - 1), stride), limit):
        picks = []
        for _ in range(r - 1):
            index, i = divmod(index, n)
            picks.append(group[i])
        picks.reverse()  # lexicographic: leftmost entry moves slowest
        acc = IDENTITY
        for d in picks:
            acc = cantor_add(curve, acc, d)
        picks.append(negate(curve, acc))
        yield tuple(picks)


class TranslateExperiment(NamedTuple):
    """Support count of a sum of curve translates attached to a zero-sum tuple."""

    points: tuple[MumfordDivisor, ...]
    support_count: int
    attained: bool
    weight_surrogate: int

    def to_dict(self) -> dict:
        return {"points": [d.to_dict() for d in self.points],
                "support_count": self.support_count, "attained": self.attained,
                "weight_surrogate": self.weight_surrogate}


def translate_support_count(curve: CurveModel,
                            points: Sequence[MumfordDivisor]) -> TranslateExperiment:
    """Count group elements lying on some translate of the embedded curve.

    The tuple must sum to the identity.  ``attained`` means the translates
    are pairwise disjoint on rational points, equivalently the support
    reaches r * N1; the weight surrogate is the group order minus the
    support size.
    """
    group = enumerate_jacobian(curve)
    acc = IDENTITY
    for d in points:
        check_divisor(curve, d)
        acc = cantor_add(curve, acc, d)
    if acc != IDENTITY:
        raise NonZeroSumError("the tuple does not sum to the identity")
    theta = theta_set(curve)
    support: set[MumfordDivisor] = set()
    for p in points:
        for t in theta:
            support.add(cantor_add(curve, t, p))
    n_support = len(support)
    return TranslateExperiment(
        points=tuple(points),
        support_count=n_support,
        attained=n_support == len(points) * len(theta),
        weight_surrogate=len(group) - n_support,
    )
