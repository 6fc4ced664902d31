"""Genus-2 curve models y^2 + h(x)y = f(x) over small finite fields.

Validation accepts exactly the nonsingular genus-2 models and normalizes
odd-characteristic input to h = 0 by completing the square, so a single
smoothness criterion applies per characteristic:

* odd characteristic: the folded right-hand side g = f + h^2/4 must keep
  degree 5 or 6 and be squarefree;
* characteristic 2: h must be nonzero with gcd(h, h'^2 f + f'^2) constant
  (no affine singular point over the algebraic closure), plus an explicit
  smoothness check on the chart at infinity for degree-6 models.

Counting is exhaustive: for each x in F_{q^k}, 0 included, the number of
y-solutions is read off the quadratic in y on the discrete-log tables of
F_{q^k} (square test in odd characteristic, trace test in characteristic
2).  ``_x_classes`` groups the x by weight: over F_{q^2} the image of F_q
once and one x per Frobenius pair {x, x^q} outside F_q twice, since x^q
has as many points above it as x; otherwise every x once.  In
characteristic 2 it keeps each x as its row of power logs (log x, ...,
log x^6), so a term c x^i is one lookup; odd characteristic evaluates f by
Horner.  A real model's points at infinity (z^2 + h3 z = f6) are read off
``quadratic_roots``; an imaginary model has one.

``count_points`` is memoized on (curve, k) in an LRU cache of 256
entries, the bound of the group enumeration's cache, so a pipeline that
counts a curve and then enumerates its Jacobian runs the counting loop
once per k.  The cached ``PointCount`` is immutable.  An exception (the
point budget) is never cached, so a rejected call raises on every call.
``_x_classes`` caches the x-classes, rows included, per (field, k) in 64
entries, the bound of the embedding cache; the first count builds them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from . import poly
from .errors import (
    BudgetExceededError,
    GenusNotTwoError,
    MalformedCurveError,
    SingularModelError,
    WrongDegreeError,
)
from .fields import FiniteField, extend_field

POINT_BUDGET = 1 << 20

IMAGINARY = "imaginary"
REAL = "real"


class CurveModel(NamedTuple):
    """A validated, normalized genus-2 model.

    ``h`` and ``f`` are coefficient tuples (low degree first, integer
    encodings).  Odd-characteristic models always have ``h == ()``; their
    ``f`` may be non-monic when folding h into the square cancelled part of
    the leading term of a degree-6 input.  ``kind`` is read off the
    normalized degree of ``f``: 5 is imaginary (one rational point at
    infinity), 6 is real.  Construct through :func:`validate_curve`.
    """

    field: FiniteField
    h: tuple[int, ...]
    f: tuple[int, ...]

    @property
    def kind(self) -> str:
        return IMAGINARY if len(self.f) == 6 else REAL

    @property
    def is_imaginary(self) -> bool:
        return len(self.f) == 6

    def to_dict(self) -> dict:
        return {"field": self.field.to_dict(), "h": list(self.h), "f": list(self.f)}

    @classmethod
    def from_dict(cls, d: dict) -> "CurveModel":
        try:
            field = FiniteField.from_dict(d["field"])
            h, f = list(d["h"]), list(d["f"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCurveError(
                f"curve data needs field {{p, a[, modulus]}}, h and f: {exc!r}") from None
        return validate_curve(field, h, f)

    def __repr__(self) -> str:
        return (f"CurveModel(q={self.field.q}, h={poly.to_string(self.h)}, "
                f"f={poly.to_string(self.f)}, {self.kind})")


class PointCount(NamedTuple):
    k: int
    count: int


def validate_curve(field: FiniteField, h: Sequence[int], f: Sequence[int]) -> CurveModel:
    """Check degrees, smoothness and genus; return the normalized model."""
    q = field.q
    # checked before trimming, so a trailing False or 0.0 is not dropped as a zero;
    # a bool is an int subclass, but True would print as true in the wire format
    if any(type(c) is not int or not 0 <= c < q for c in (*h, *f)):
        raise MalformedCurveError("coefficients must be integer encodings below q")
    h = poly.trim(h)
    f = poly.trim(f)
    df = poly.degree(f)
    if df not in (5, 6):
        raise WrongDegreeError(f"deg f must be 5 or 6, got {df}")
    if not poly.is_monic(f):
        raise WrongDegreeError("f must be monic")
    h_cap = 2 if df == 5 else 3
    if poly.degree(h) > h_cap:
        raise WrongDegreeError(f"deg h must be <= {h_cap} for deg f = {df}")

    if field.p == 2:
        if not h:
            raise SingularModelError(
                "characteristic 2 needs h != 0 (h = 0 kills the y-derivative)")
        hp = poly.derivative(field, h)
        fp = poly.derivative(field, f)
        crit = poly.add(field, poly.mul(field, poly.mul(field, hp, hp), f),
                        poly.mul(field, fp, fp))
        if poly.degree(poly.gcd(field, h, crit)) >= 1:
            raise SingularModelError("affine singular point (gcd criterion)")
        if df == 6:
            h3 = poly.coefficient(h, 3)
            if h3 == 0:
                # ramified point at infinity; smooth iff h2^2 f6 != f5^2
                h2 = poly.coefficient(h, 2)
                f5 = poly.coefficient(f, 5)
                lhs = field.mul(field.mul(h2, h2), poly.coefficient(f, 6))
                if lhs == field.mul(f5, f5):
                    raise SingularModelError("singular point at infinity")
        return CurveModel(field, h, f)

    # odd characteristic: fold h away via y -> y + h/2
    if h:
        inv4 = field.inv(4 % field.p)
        g = poly.add(field, f, poly.scale(field, poly.mul(field, h, h), inv4))
    else:
        g = f
    if poly.degree(g) < 5:
        raise GenusNotTwoError(
            "completing the square left degree < 5; the model has genus < 2")
    gp = poly.derivative(field, g)
    if poly.degree(poly.gcd(field, g, gp)) >= 1:
        raise SingularModelError("right-hand side is not squarefree")
    return CurveModel(field, (), g)


def _check_budget(curve: CurveModel, k: int) -> None:
    if curve.field.q ** k > POINT_BUDGET:
        raise BudgetExceededError(
            f"q^k = {curve.field.q ** k} exceeds the enumeration budget {POINT_BUDGET}")


@lru_cache(maxsize=64)
def _x_classes(field: FiniteField, k: int):
    """(embedding of F_q into E = F_{q^k}, ((weight, xs), ...), neg2).

    An x of weight w stands for itself and its conjugates x^q, ..., up to
    w in all, and these cover E once: over F_{q^2} the image of F_q has
    weight 1 and one x per Frobenius pair {x, x^q} outside F_q weight 2;
    over any other E every x has weight 1.  In characteristic 2 each x is
    replaced by its row (log x, ..., log x^6), 2n for x = 0, n = #E - 1,
    and ``exp2[neg2[h]] == 1 / h^2`` for h != 0 (neg2 is empty otherwise).
    Both hold the int objects of ``log``: above #E = 2^8 six new ints would
    take more memory than the tuple.
    """
    emb = extend_field(field, k, allow_large=True)
    E = emb.ext
    classes = ((1, emb.image), (2, emb.frobenius_pairs)) if k == 2 else ((1, E.elements()),)
    if E.p != 2:
        return emb, classes, ()
    log, exp2, n = E.log, E.exp2, E.q - 1

    def rows(xs):
        out = []
        for x in xs:
            l1 = log[x]
            l2 = log[exp2[l1 + l1]]
            l3 = log[exp2[l2 + l1]]
            l4 = log[exp2[l2 + l2]]
            l5 = log[exp2[l4 + l1]]
            l6 = log[exp2[l3 + l3]]
            out.append((l1, l2, l3, l4, l5, l6))
        return tuple(out)

    neg2 = tuple(log[exp2[-2 * lh % n]] for lh in log)
    return emb, tuple((weight, rows(xs)) for weight, xs in classes), neg2


@lru_cache(maxsize=256)
def count_points(curve: CurveModel, k: int = 1) -> PointCount:
    """Exhaustive number of points of the smooth model over F_{q^k}, k an int
    >= 1 (ValueError otherwise: True and 1.0 would share k = 1's cache entry)."""
    if type(k) is not int or k < 1:
        raise ValueError(f"need an int k >= 1, got {k!r}")
    _check_budget(curve, k)
    emb, classes, neg2 = _x_classes(curve.field, k)
    E, hh, ff = emb.ext, emb.map_poly(curve.h), emb.map_poly(curve.f)
    # a real model has the roots z of z^2 + h3 z = f6 on the chart at infinity
    total = 1 if curve.is_imaginary else len(E.quadratic_roots(poly.coefficient(hh, 3), ff[6]))
    return PointCount(k, total + _roots_above(E, hh, ff, classes, neg2))


def _roots_above(E: FiniteField, hh, ff, classes, neg2) -> int:
    """Number of roots y in E of y^2 + h(x)y = f(x), summed over the x of
    each class, times its weight.

    classes and neg2 come from ``_x_classes(field, k)``, which caches them
    per (field, k).  An x of weight w stands for w conjugates, and the curve
    is defined over F_q, so each has as many roots above it as x.  In
    characteristic 2, a class holds the power-log row of each x: r_i = log
    x^i, 2n for x = 0, n = #E - 1.  A term c x^i is then
    ``exp2[log[c] + r_i]``, one lookup whose index is at most 4n, inside
    the zero tail even when c or x is 0.  Two roots lie above x iff
    z^2 + z = f(x)/h(x)^2 is solvable, read as
    ``solvable[exp2[log[fx] + neg2[hx]]]``; fx = 0 lands in the zero tail,
    where z = 0 solves it.  Imaginary models (f monic of degree 5,
    deg h <= 2) run an unrolled loop; real ones the same loop padded to
    degrees 6 and 3.

    In odd characteristic a class holds the x themselves, h = 0, and f is
    evaluated by Horner on the log tables, each step t + c by the Zech rule
    of ``FiniteField.add``.
    """
    log, exp2 = E.log, E.exp2
    total = 0
    if E.p == 2:
        solvable = E.artin_schreier_roots
        h0, h1, h2, h3 = (hh + (0, 0, 0))[:4]
        f0, f1, f2, f3, f4, f5 = ff[:6]
        lh1, lh2, lh3 = log[h1], log[h2], log[h3]
        lf1, lf2, lf3, lf4, lf5 = log[f1], log[f2], log[f3], log[f4], log[f5]
        for weight, xs in classes:
            twice = 2 * weight
            if len(ff) == 6:  # imaginary: x^5 is exp2[r5]
                for r1, r2, r3, r4, r5, _ in xs:
                    hx = h0 ^ exp2[lh1 + r1] ^ exp2[lh2 + r2]
                    if hx == 0:  # y^2 = f(x): squaring is bijective
                        total += weight
                        continue
                    fx = (f0 ^ exp2[lf1 + r1] ^ exp2[lf2 + r2] ^ exp2[lf3 + r3]
                          ^ exp2[lf4 + r4] ^ exp2[r5])
                    if solvable[exp2[log[fx] + neg2[hx]]] >= 0:
                        total += twice
            else:  # real: f is monic of degree 6, so x^6 is exp2[r6]
                for r1, r2, r3, r4, r5, r6 in xs:
                    hx = h0 ^ exp2[lh1 + r1] ^ exp2[lh2 + r2] ^ exp2[lh3 + r3]
                    if hx == 0:
                        total += weight
                        continue
                    fx = (f0 ^ exp2[lf1 + r1] ^ exp2[lf2 + r2] ^ exp2[lf3 + r3]
                          ^ exp2[lf4 + r4] ^ exp2[lf5 + r5] ^ exp2[r6])
                    if solvable[exp2[log[fx] + neg2[hx]]] >= 0:
                        total += twice
    else:
        zech, two_n = E.zech, 2 * (E.q - 1)
        f_lead, f_rest = ff[-1], [log[c] + two_n for c in ff[-2::-1]]
        for weight, xs in classes:
            twice = 2 * weight
            for x in xs:
                lx = log[x]
                fx = f_lead
                for c2 in f_rest:
                    lt = log[exp2[log[fx] + lx]]
                    fx = exp2[lt + zech[c2 - lt]]
                if fx == 0:
                    total += weight
                elif log[fx] & 1 == 0:  # even power of the generator: a square
                    total += twice
    return total
