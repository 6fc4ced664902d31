"""Polynomial arithmetic over finite fields, against naive reimplementations."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from jacobicode import poly
from jacobicode.fields import field_from_order
from conftest import exact_div

FIELDS = [2, 3, 4, 5, 9]

polys = st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=7)


def reduce_coeffs(F, c):
    return poly.trim(x % F.q for x in c)


@given(st.sampled_from(FIELDS), polys, polys)
@settings(max_examples=150, deadline=None)
def test_divmod_identity(q, a, b):
    F = field_from_order(q)
    a = reduce_coeffs(F, a)
    b = reduce_coeffs(F, b)
    if not b:
        return
    quot, rem = poly.divmod_(F, a, b)
    assert poly.degree(rem) < poly.degree(b)
    assert poly.add(F, poly.mul(F, quot, b), rem) == a


@given(st.sampled_from(FIELDS), polys, polys)
@settings(max_examples=150, deadline=None)
def test_ext_gcd_bezout(q, a, b):
    F = field_from_order(q)
    a = reduce_coeffs(F, a)
    b = reduce_coeffs(F, b)
    g, s, t = poly.ext_gcd(F, a, b)
    assert poly.add(F, poly.mul(F, s, a), poly.mul(F, t, b)) == g
    if g:
        assert poly.is_monic(g)
        assert not poly.mod(F, a, g) and not poly.mod(F, b, g)


@given(st.sampled_from(FIELDS), polys, polys)
@settings(max_examples=100, deadline=None)
def test_product_rule(q, a, b):
    F = field_from_order(q)
    a = reduce_coeffs(F, a)
    b = reduce_coeffs(F, b)
    lhs = poly.derivative(F, poly.mul(F, a, b))
    rhs = poly.add(F, poly.mul(F, poly.derivative(F, a), b),
                   poly.mul(F, a, poly.derivative(F, b)))
    assert lhs == rhs


def test_monic_and_gcd_basics():
    F = field_from_order(5)
    a = (1, 0, 2)  # 2x^2 + 1
    assert poly.monic(F, a) == (3, 0, 1)  # scale by inv(2) = 3
    # gcd with zero is the monic version of the other argument
    assert poly.gcd(F, a, ()) == (3, 0, 1)
    assert poly.gcd(F, (), ()) == ()


def test_exact_div_raises_on_remainder():
    F = field_from_order(2)
    try:
        exact_div(F, (1, 1, 1), (1, 1))
    except ValueError:
        pass
    else:
        raise AssertionError("expected inexact division to raise")
