"""Jacobian group oracle for imaginary genus-2 models.

Divisor classes are held in Mumford form (u, v): u monic of degree at most
2, deg v < deg u, and u dividing v^2 + h v - f.  The group law adds two
classes with coprime u, and doubles a class whose u is coprime to
2v + h, by explicit formulas whatever the degrees: straight-line on
field scalars when both classes have degree 2, on coefficient tuples
when one is a point.  It falls back to Cantor's composition-and-reduction
for the rest: u with a common root, and doubles at a Weierstrass point;
Cantor's algorithm is also the tests' oracle for the formulas.

The whole group is enumerated by solving the divisibility condition per
u: v must take a root y of y^2 + h(x) y = f(x) at each root x of u
(Cantor 1987), so the classes come from the points over F_q (split u,
including a double root lifted to second order) and over F_{q^2}
(irreducible u, one point per Frobenius pair) in O(q^2) field
operations, with products and quotients on the discrete-log tables.  The
classes are made once, as flat int tuples that sort in the wire order
with no key function, and wrapped once as MumfordDivisor records, a
NamedTuple of the coefficient tuples u and v.  The resulting cardinality
is cross-checked against the order predicted by the Weil polynomial -- a
mismatch raises the OrderMismatch tripwire, it can only mean an
implementation bug or a corrupt model.

The curve sits inside its Jacobian through the base point at infinity:
an affine point (x0, y0) maps to (x - x0, y0) and infinity to the
identity.  The image is the theta set, the degree <= 1 classes.
"""

from __future__ import annotations

from functools import lru_cache
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

    @property
    def degree(self) -> int:
        return len(self.u) - 1

    def to_dict(self) -> dict:
        return {"u": list(self.u), "v": list(self.v)}


IDENTITY = MumfordDivisor((1,), ())


def check_divisor(curve: CurveModel, d: MumfordDivisor) -> None:
    """Raise InvalidDivisor unless (u, v) is a reduced divisor on the curve."""
    F = curve.field
    u, v = poly.trim(d.u), poly.trim(d.v)
    if u != d.u or v != d.v:
        raise InvalidDivisorError("coefficient tuples must be trimmed")
    if not poly.is_monic(u) or poly.degree(u) > 2:
        raise InvalidDivisorError("u must be monic of degree <= 2")
    if poly.degree(v) >= poly.degree(u) and v:
        raise InvalidDivisorError("v must have degree below deg u")
    if any(not 0 <= c < F.q for c in u + v):
        raise InvalidDivisorError("coefficients must be encodings below q")
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
    """Group law: explicit formulas where they apply, Cantor's algorithm otherwise.

    The identity and a class plus its negative are read off directly.  The
    sum of two classes with coprime u, and the double of a class whose u is
    coprime to 2v + h, take one composition and one reduction step (Lange
    2005, affine, any h), whatever the degrees: straight-line on scalars
    when both operands have degree 2, on coefficient tuples when one has
    degree 1 (``_explicit_sum``).  The rest -- u1 and u2 with a common
    root, equal u with unrelated v, a double whose u shares a root with
    2v + h -- goes through Cantor's composition and reduction.  A pair
    whose sum would need an inexact division raises InvalidDivisorError on
    either path.  Inputs are not validated beyond that (``check_divisor``
    does): the identity returns the other operand as it is, and a class
    plus its formal negative (equal u, v1 + v2 + h = 0 mod u) is the
    identity, on the curve or not -- (x, 0) + (x, 0) when h(0) = 0.
    """
    _require_imaginary(curve)
    if d1.u == (1,):
        return d2
    if d2.u == (1,):
        return d1
    if len(d1.u) > len(d2.u):
        d1, d2 = d2, d1
    out = _explicit_sum(curve, d1, d2)
    return _cantor(curve, d1, d2) if out is None else out


def _explicit_sum(curve: CurveModel, d1: MumfordDivisor,
                  d2: MumfordDivisor) -> MumfordDivisor | None:
    """d1 + d2, deg u1 <= deg u2: one composition, at most one reduction step.

    The identity when u1 == u2 and v1 + v2 + h = 0 mod u.  Otherwise V
    solves V = v1 mod u1 and, modulo m, V = v2 (add: m = u2 != u1) or
    V = v1 to second order (double: v1 == v2, m = u):

    * add: V = v1 + s u1 with s = (v2 - v1) / u1 mod u2;
    * double: V = v + s u with s = k / (2v + h) mod u, k = (f - h v - v^2) / u.

    With U = u1 m, a composition of degree 2 (two points with distinct x,
    or a point doubled) is already reduced and (U, V) is the sum.
    Otherwise the sum is u' = monic((f - h V - V^2) / U) and
    v' = (-h - V) mod u'; u' has degree 1 when deg U = 4 and s is
    constant.  Returns None when the divisor w of s shares a root with m
    (their resultant is 0), and when u1 == u2 with unrelated v1 and v2:
    Cantor's algorithm takes those.

    Two degree-2 operands -- a sum with coprime u, a double with u prime
    to 2v + h -- run straight-line on scalars, with the field's add, sub,
    mul and inv only and one body for every field; the division by U keeps
    its remainder check, which is the only validity check of a double.
    An operand of degree 1 (a point plus a class, two points) runs the
    same steps on coefficient tuples, ``_point_sum``.  A straight-line
    version of those waits on a benchmark whose peak memory does not grow
    with its op count (ROADMAP item 2).
    """
    if len(d1.u) < 3:
        return _point_sum(curve, d1, d2)
    F = curve.field
    add, sub, mul = F.add, F.sub, F.mul
    h0, h1, h2 = curve.h + (0,) * (3 - len(curve.h))  # deg h <= 2, deg f = 5
    f0, f1, f2, f3, f4, f5 = curve.f
    a0, a1, _ = d1.u
    b0, b1, _ = d2.u
    p0, p1 = (d1.v + (0, 0))[:2]
    q0, q1 = (d2.v + (0, 0))[:2]
    if d1.u == d2.u:
        # w = (v1 + v2 + h) mod u
        w0 = add(add(p0, q0), sub(h0, mul(h2, a0)))
        w1 = add(add(p1, q1), sub(h1, mul(h2, a1)))
        if not (w0 or w1):
            return IDENTITY
        if d1.v != d2.v:
            return None
        # t = k mod u, k the quotient of f - h v - v^2 (degree 5) by u; its
        # remainder is checked by the division by U = u^2 below
        k3 = f5
        k2 = sub(f4, mul(k3, a1))
        k1 = sub(sub(f3, mul(h2, p1)), add(mul(k3, a0), mul(k2, a1)))
        k0 = sub(sub(f2, add(add(mul(h2, p0), mul(h1, p1)), mul(p1, p1))),
                 add(mul(k2, a0), mul(k1, a1)))
        c2, c1 = sub(k2, mul(k3, a1)), sub(k1, mul(k3, a0))
        t0, t1 = sub(k0, mul(c2, a0)), sub(c1, mul(c2, a1))
    else:
        w0, w1 = sub(a0, b0), sub(a1, b1)  # w = u1 mod u2
        t0, t1 = sub(q0, p0), sub(q1, p1)  # t = v2 - v1

    # s = t / w mod m = t (j0 - w1 x) / r mod m, j0 = w0 - w1 m1, r = Res(m, w)
    j0 = sub(w0, mul(w1, b1))
    r = add(mul(w0, j0), mul(mul(w1, w1), b0))
    if not r:
        return None
    ri = F.inv(r)
    s1 = mul(sub(mul(t1, w0), mul(t0, w1)), ri)
    s0 = mul(add(mul(t0, j0), mul(mul(t1, w1), b0)), ri)

    # V = v1 + s u1 and H = V + h; U = u1 m is monic of degree 4
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
    o1, o0 = sub(mul(g2, e1), g1), sub(mul(g2, e0), H0)
    return MumfordDivisor((e0, e1, 1), (o0, o1) if o1 else ((o0,) if o0 else ()))


def _point_sum(curve: CurveModel, d1: MumfordDivisor,
               d2: MumfordDivisor) -> MumfordDivisor | None:
    """``_explicit_sum`` on coefficient tuples, for a u1 of degree 1."""
    F = curve.field
    h = curve.h
    u1, v1, m = d1.u, d1.v, d2.u
    if u1 == m:
        w = poly.mod(F, poly.add(F, poly.add(F, v1, d2.v), h), m)
        if not w:
            return IDENTITY
        if v1 != d2.v:
            return None
        t = poly.divmod_(F, _norm(curve, v1), m)[0]  # the remainder is checked below
    else:
        w, t = poly.mod(F, u1, m), poly.sub(F, d2.v, v1)

    # 1/w mod m = (-w1 x + w0 - w1 m1) / r, with r = Res(m, w) for deg m = 2;
    # for deg m = 1, w is a constant w0 and the formula gives w0 / w0^2 = 1/w0
    add, sub, mul = F.add, F.sub, F.mul
    w0, w1 = poly.coefficient(w, 0), poly.coefficient(w, 1)
    m0, m1 = m[0], m[1]
    r = add(sub(mul(mul(w1, w1), m0), mul(mul(w1, w0), m1)), mul(w0, w0))
    if not r:
        return None
    adj = poly.trim((sub(w0, mul(w1, m1)), F.neg(w1)))
    s = poly.scale(F, poly.mod(F, poly.mul(F, t, adj), m), F.inv(r))

    V = poly.add(F, v1, poly.mul(F, s, u1))
    U = poly.mul(F, u1, m)
    u, rem = poly.divmod_(F, _norm(curve, V), U)
    if rem:
        raise InvalidDivisorError("(f - h V - V^2) is not divisible by u1 u2")
    if len(U) == 3:
        return MumfordDivisor(U, V)
    u = poly.monic(F, u)
    return MumfordDivisor(u, poly.mod(F, poly.neg(F, poly.add(F, h, V)), u))


def _cantor(curve: CurveModel, d1: MumfordDivisor, d2: MumfordDivisor) -> MumfordDivisor:
    """Cantor's group law: compose through the three-term gcd, then reduce
    to degree <= 2.

    Coprime u1 and u2 compose by the Chinese remainder theorem alone, v =
    e1 u1 v2 + e2 u2 v1 with e1 u1 + e2 u2 = 1, so the composition reads
    both v1 and v2; otherwise the gcd d0 of u1 and u2 meets v1 + v2 + h
    in a second extended gcd.  Each reduction step divides f - h v - v^2
    by u exactly, which checks the inputs; a composition of degree <= 2
    takes no step, so u | f - h v - v^2 is checked on it directly, and
    either failure raises InvalidDivisorError.  A composition u = 1 passes
    trivially: a class plus its formal negative, such as (x, 0) + (x, 0)
    when h(0) = 0, is the identity whether or not it lies on the curve
    (``check_divisor`` validates inputs).
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
        u = poly.exact_div(F, poly.mul(F, u1, u2), poly.mul(F, d, d))
        num = poly.add(
            F,
            poly.add(F, poly.mul(F, poly.mul(F, s1, u1), v2),
                     poly.mul(F, poly.mul(F, s2, u2), v1)),
            poly.mul(F, s3, poly.add(F, poly.mul(F, v1, v2), f)),
        )
        v = poly.mod(F, poly.exact_div(F, num, d), u)
        if poly.degree(u) <= 2 and poly.mod(F, _norm(curve, v), u):
            raise InvalidDivisorError("u does not divide f - h v - v^2")
        while poly.degree(u) > 2:
            u_next = poly.exact_div(F, _norm(curve, v), u)
            v = poly.mod(F, poly.neg(F, poly.add(F, h, v)), u_next)
            u = u_next
        u = poly.monic(F, u)
        v = poly.mod(F, v, u)
    except ValueError as exc:  # an inexact division means a bad input divisor
        raise InvalidDivisorError(str(exc)) from exc
    return MumfordDivisor(u, v)


def negate(curve: CurveModel, d: MumfordDivisor) -> MumfordDivisor:
    """Hyperelliptic involution on classes: (u, (-v - h) mod u)."""
    _require_imaginary(curve)
    F = curve.field
    v = poly.mod(F, poly.neg(F, poly.add(F, d.v, curve.h)), d.u)
    return MumfordDivisor(d.u, v)


def scalar_mul(curve: CurveModel, n: int, d: MumfordDivisor) -> MumfordDivisor:
    """n-fold sum by double-and-add; negative n through the involution."""
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


def _horner(E: FiniteField, coeffs: Sequence[int], xs: Sequence[int]) -> list[int]:
    """The values of a polynomial at the nonzero xs, by Horner on the log
    tables of E (XOR in characteristic 2)."""
    log, exp2, add = E.log, E.exp2, E.add
    desc = coeffs[::-1]
    out = []
    if E.p == 2:
        for x in xs:
            lx, acc = log[x], 0
            for c in desc:
                acc = (exp2[log[acc] + lx] ^ c) if acc else c
            out.append(acc)
    else:
        for x in xs:
            lx, acc = log[x], 0
            for c in desc:
                acc = add(exp2[log[acc] + lx], c) if acc else c
            out.append(acc)
    return out


def _reduced_divisors(curve: CurveModel) -> list[MumfordDivisor]:
    """Every (u, v) with u monic, deg v < deg u <= 2 and u | v^2 + h v - f,
    sorted by (deg u, u, v).

    Solved per u from the roots y of y^2 + h(x) y = f(x) at the roots x of
    u; exact for any model, validated or not.  The classes are collected as
    flat int tuples, (u0, y) for u = x + u0 and v = y, and (u0, u1, v0, v1)
    for u = x^2 + u1 x + u0 and v = v0 + v1 x: trimming v only drops
    trailing zeros, so the natural order of these tuples is the (u, v) order
    of the trimmed coefficient tuples, and they sort with no key function.
    Products and quotients run on the log tables of F_q and F_{q^2}.
    """
    F = curve.field
    q, n = F.q, F.q - 1
    h, f = curve.h, curve.f
    log, exp2 = F.log, F.exp2
    add, sub, neg = F.add, F.sub, F.neg
    solve = F.quadratic_roots

    # u = x - a: v is a root y over a
    xs = range(1, q)
    hs = [poly.coefficient(h, 0)] + _horner(F, h, xs)
    fs = [poly.coefficient(f, 0)] + _horner(F, f, xs)
    roots = [solve(hs[a], fs[a]) for a in range(q)]
    points = [(neg(a), y) for a, ys in enumerate(roots) for y in ys]

    # u = (x - a)(x - b), a < b: v is the line through (a, y_a) and (b, y_b),
    # v1 = (y_a - y_b) / (a - b) and v0 = y_a - v1 a
    pairs = []
    above = [(a, log[a], ys) for a, ys in enumerate(roots) if ys]
    for i, (a, la, ya_s) in enumerate(above):
        for b, lb, yb_s in above[i + 1:]:  # b > a >= 0, so only a can be 0
            u0 = exp2[la + lb] if a else 0
            u1 = neg(add(a, b))
            lw = n - log[sub(a, b)]
            for ya in ya_s:
                for yb in yb_s:
                    d = sub(ya, yb)
                    v1 = exp2[log[d] + lw] if d else 0
                    pairs.append((u0, u1, sub(ya, exp2[log[v1] + la]) if v1 and a else ya, v1))

    # u = (x - a)^2: v = y + v1 (x - a) with (2y + h(a)) v1 = f'(a) - h'(a) y
    mul, inv = F.mul, F.inv
    dh, df = poly.derivative(F, h), poly.derivative(F, f)
    for a, ys in enumerate(roots):
        if not ys:
            continue
        u0, u1 = mul(a, a), neg(add(a, a))
        dha, dfa = poly.evaluate(F, dh, a), poly.evaluate(F, df, a)
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
                pairs.append((u0, u1, sub(y, mul(v1, a)), v1))

    # u irreducible: one root x of u in F_{q^2} per Frobenius pair {x, x^q}
    # (the pair list point counting uses); v is the F_q-line through (x, y)
    # and (x^q, y^q), v1 = (y - y^q) / (x - x^q) and v0 = y - v1 x.  x^q,
    # the norm x^(q+1) and 1/(x - x^q) come off the log tables of F_{q^2}.
    emb = extend_field(F, 2, allow_large=True)
    E = emb.ext
    back = emb.preimage
    elog, eexp2, en = E.log, E.exp2, E.q - 1
    eadd, esub, eneg = E.add, E.sub, E.neg
    esolve = E.quadratic_roots
    xs = emb.frobenius_pairs
    for x, hx, fx in zip(xs, _horner(E, emb.map_poly(h), xs), _horner(E, emb.map_poly(f), xs)):
        ys = esolve(hx, fx)
        if not ys:
            continue
        lx = elog[x]
        lxq = lx * q % en
        xq = eexp2[lxq]
        u0, u1 = back[eexp2[lx + lxq]], back[eneg(eadd(x, xq))]
        lw = en - elog[esub(x, xq)]
        for y in ys:
            d = esub(y, eexp2[elog[y] * q % en]) if y else 0
            v1 = eexp2[elog[d] + lw] if d else 0
            v0 = esub(y, eexp2[elog[v1] + lx]) if v1 else y
            pairs.append((u0, u1, back[v0], back[v1]))

    points.sort()
    pairs.sort()
    wrap = MumfordDivisor._make  # tuple.__new__, without the keyword-aware constructor
    return [IDENTITY,
            *[wrap(((u0, 1), (y,) if y else ())) for u0, y in points],
            *[wrap(((u0, u1, 1), (v0, v1) if v1 else ((v0,) if v0 else ())))
              for u0, u1, v0, v1 in pairs]]


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
    int tuples, sorted by (deg u, u, v) with no key function, and are
    wrapped as MumfordDivisor records once; the cardinality is checked
    against the zeta-side order.
    """
    _require_imaginary(curve)
    F = curve.field
    q = F.q
    if q > JACOBIAN_Q_CAP:
        raise BudgetExceededError(f"jacobian enumeration capped at q <= {JACOBIAN_Q_CAP}")

    out = _reduced_divisors(curve)

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
    how many are yielded.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    group = enumerate_jacobian(curve)
    yielded = 0
    index = 0
    total = len(group) ** (r - 1)
    while index < total and (limit is None or yielded < limit):
        rest = index
        picks = []
        for _ in range(r - 1):
            rest, i = divmod(rest, len(group))
            picks.append(group[i])
        picks.reverse()  # lexicographic: leftmost entry moves slowest
        acc = IDENTITY
        for d in picks:
            acc = cantor_add(curve, acc, d)
        picks.append(negate(curve, acc))
        yield tuple(picks)
        yielded += 1
        index += stride


class TranslateExperiment(NamedTuple):
    """Support count of a sum of curve translates attached to a zero-sum tuple."""

    points: tuple[MumfordDivisor, ...]
    support_count: int
    attained: bool
    weight_surrogate: int


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
