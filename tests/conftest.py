"""Shared fixtures: anchor curves and the deterministic test corpus.

The corpus is every valid imaginary model over F_2 and F_3 plus the first
curves (in enumeration order) over F_4 and F_5; the acceptance sweep over
the *full* F_4/F_5 census has its own session fixture so unit-test runs
stay quick.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest

from jacobicode import poly
from jacobicode.curves import CurveModel, validate_curve
from jacobicode.explore import SearchSpace, _curves, _unique
from jacobicode.fields import field_from_order, make_field

CORPUS_SLICE = {2: None, 3: None, 4: 12, 5: 12}


def evaluate(F, a, x):
    """a(x) by Horner on ``F.add`` and ``F.mul``: the oracles' evaluator,
    kept apart from the library's ``FiniteField.values``."""
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def power(F, x, e):
    """x^e for e >= 0 by square-and-multiply on ``F.mul``; 0^0 = 1."""
    acc = 1
    while e:
        if e & 1:
            acc = F.mul(acc, x)
        x = F.mul(x, x)
        e >>= 1
    return acc


def exact_div(F, a, b):
    """a / b, ValueError on a remainder: the division of Cantor's oracle."""
    q, r = poly.divmod_(F, a, b)
    if r:
        raise ValueError("division was expected to be exact")
    return q


@pytest.fixture(scope="session")
def f2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def curve_e1(f2) -> CurveModel:
    """y^2 + y = x^5 over F_2."""
    return validate_curve(f2, (1,), (0, 0, 0, 0, 0, 1))


@pytest.fixture(scope="session")
def curve_e2(f2) -> CurveModel:
    """y^2 + y = x^5 + x^3 over F_2."""
    return validate_curve(f2, (1,), (0, 0, 0, 1, 0, 1))


def enumerate_curves(space: SearchSpace) -> Iterator[CurveModel]:
    """Validated models of the space, in candidate order, without repeats:
    the search's own candidate stream, without the pipeline."""
    return _curves(space, _unique(space))


def corpus_for(q: int) -> list[CurveModel]:
    space = SearchSpace(field=field_from_order(q))
    limit = CORPUS_SLICE[q]
    stream = enumerate_curves(space)
    if limit is None:
        return list(stream)
    return list(itertools.islice(stream, limit))


@pytest.fixture(scope="session")
def corpus() -> dict[int, list[CurveModel]]:
    return {q: corpus_for(q) for q in (2, 3, 4, 5)}
