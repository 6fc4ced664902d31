"""Genus-2 curve models y^2 + h(x)y = f(x) over small finite fields.

Validation accepts exactly the nonsingular genus-2 models and normalizes
odd-characteristic input to h = 0 by completing the square, so a single
smoothness criterion applies per characteristic:

* odd characteristic: the folded right-hand side g = f + h^2/4 must keep
  degree 5 or 6 and be squarefree;
* characteristic 2: h must be nonzero with gcd(h, h'^2 f + f'^2) constant
  (no affine singular point over the algebraic closure), plus an explicit
  smoothness check on the chart at infinity for degree-6 models.

Counting is exhaustive: for each x in F_{q^k} the number of y-solutions is
read off the quadratic in y (square test in odd characteristic, trace test
in characteristic 2).  One loop, Horner on the discrete-log tables of
F_{q^k}, covers the nonzero x; x = 0 and the points at infinity of a real
model (z^2 + h3 z = f6 on the chart at infinity) are read off
``quadratic_roots``, and an imaginary model has one point at infinity.  Over
F_{q^2} the loop visits the image of F_q once and one x per Frobenius pair
{x, x^q} outside F_q twice, since x^q has as many points above it as x.
"""

from __future__ import annotations

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
    the leading term of a degree-6 input.  ``kind`` reflects the normalized
    degree of ``f``: 5 is imaginary (one rational point at infinity),
    6 is real.  Construct through :func:`validate_curve`.
    """

    field: FiniteField
    h: tuple[int, ...]
    f: tuple[int, ...]
    kind: str

    @property
    def is_imaginary(self) -> bool:
        return self.kind == IMAGINARY

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
    h = poly.trim(h)
    f = poly.trim(f)
    q = field.q
    if any(not isinstance(c, int) or not 0 <= c < q for c in h + f):
        raise MalformedCurveError("coefficients must be integer encodings below q")
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
        kind = IMAGINARY if df == 5 else REAL
        return CurveModel(field, h, f, kind)

    # odd characteristic: fold h away via y -> y + h/2
    if h:
        inv4 = field.inv(4 % field.p)
        g = poly.add(field, f, poly.scale(field, poly.mul(field, h, h), inv4))
    else:
        g = f
    dg = poly.degree(g)
    if dg < 5:
        raise GenusNotTwoError(
            "completing the square left degree < 5; the model has genus < 2")
    gp = poly.derivative(field, g)
    if poly.degree(poly.gcd(field, g, gp)) >= 1:
        raise SingularModelError("right-hand side is not squarefree")
    kind = IMAGINARY if dg == 5 else REAL
    return CurveModel(field, (), g, kind)


def _check_budget(curve: CurveModel, k: int) -> None:
    if curve.field.q ** k > POINT_BUDGET:
        raise BudgetExceededError(
            f"q^k = {curve.field.q ** k} exceeds the enumeration budget {POINT_BUDGET}")


def _lifted(curve: CurveModel, k: int) -> tuple[FiniteField, tuple[int, ...], tuple[int, ...]]:
    if k == 1:
        return curve.field, curve.h, curve.f
    emb = extend_field(curve.field, k, allow_large=True)
    return emb.ext, emb.map_poly(curve.h), emb.map_poly(curve.f)


def count_points(curve: CurveModel, k: int = 1) -> PointCount:
    """Exhaustive number of points of the smooth model over F_{q^k}."""
    _check_budget(curve, k)
    E, hh, ff = _lifted(curve, k)
    # a real model has the roots z of z^2 + h3 z = f6 on the chart at infinity
    total = 1 if curve.is_imaginary else len(E.quadratic_roots(poly.coefficient(hh, 3), ff[6]))
    total += len(E.quadratic_roots(poly.coefficient(hh, 0), poly.coefficient(ff, 0)))
    if k == 2:
        emb = extend_field(curve.field, 2, allow_large=True)
        total += (_roots_above(E, hh, ff, emb.nonzero_image)
                  + 2 * _roots_above(E, hh, ff, emb.frobenius_pairs))
    else:
        total += _roots_above(E, hh, ff, range(1, E.q))
    return PointCount(k, total)


def _roots_above(E: FiniteField, hh, ff, xs) -> int:
    """Number of roots y in E of y^2 + h(x)y = f(x), summed over nonzero xs.

    h and f are evaluated by Horner on the discrete-log tables of E; h is
    read only in characteristic 2, as odd-characteristic models have h = 0.
    """
    log, exp2, n = E.log, E.exp2, E.q - 1
    f_lead, f_rest = ff[-1], ff[-2::-1]  # Horner from the nonzero leading term
    total = 0
    if E.p == 2:
        h_lead, h_rest = hh[-1], hh[-2::-1]
        solvable = E.artin_schreier_roots
        for x in xs:
            lx = log[x]
            hx = h_lead
            for c in h_rest:
                hx = (exp2[log[hx] + lx] ^ c) if hx else c
            if hx == 0:  # y^2 = f(x): squaring is bijective
                total += 1
                continue
            fx = f_lead
            for c in f_rest:
                fx = (exp2[log[fx] + lx] ^ c) if fx else c
            # two roots iff z^2 + z = f(x) / h(x)^2 is solvable (trace 0)
            if fx == 0 or solvable[exp2[(log[fx] - 2 * log[hx]) % n]] >= 0:
                total += 2
    else:
        add = E.add
        for x in xs:
            lx = log[x]
            fx = f_lead
            for c in f_rest:
                fx = add(exp2[log[fx] + lx], c) if fx else c
            if fx == 0:
                total += 1
            elif log[fx] & 1 == 0:  # even power of the generator: a square
                total += 2
    return total
