"""Built-in invariant suites runnable without pytest (the `selftest` subcommand).

A distilled mirror of the property tests: field axioms, curve census
cross-checks, zeta round trips, group-law axioms with the order
cross-validation, and the support-bound oracle grid, over q in {2, 3, 4, 5}
by default.  Returns a list of violation messages; empty means healthy.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Sequence

from .bounds import support_bound, support_bound_bruteforce, weil_type_point_bound
from .curves import count_points, curve_points
from .errors import JacobicodeError
from .explore import SearchSpace, enumerate_curves
from .fields import field_from_order, lift_quadratic
from .mumford import (
    IDENTITY,
    cantor_add,
    enumerate_jacobian,
    negate,
    scalar_mul,
    theta_set,
)
from .weil import (
    extension_count,
    jacobian_order,
    serre_constant,
    weil_from_counts,
)

DEFAULT_QS = (2, 3, 4, 5)

# deterministic per-field slice sizes keeping the run at desk scale
CENSUS_LIMITS = {2: None, 3: None, 4: 40, 5: 40}
GROUP_SAMPLES = 60


def _corpus(q: int):
    field = field_from_order(q)
    space = SearchSpace(field=field)
    limit = CENSUS_LIMITS.get(q)
    out = []
    for curve in enumerate_curves(space):
        out.append(curve)
        if limit is not None and len(out) >= limit:
            break
    return out


def _check_fields(q: int, fail: Callable[[str], None]) -> None:
    F = field_from_order(q)
    add, mul, inv, neg = F.add, F.mul, F.inv, F.neg
    for x in range(q):
        for y in range(q):
            if add(x, y) != add(y, x) or mul(x, y) != mul(y, x):
                fail(f"F_{q}: commutativity fails at ({x}, {y})")
                return
        if x and mul(x, inv(x)) != 1:
            fail(f"F_{q}: inverse fails at {x}")
            return
        if add(x, neg(x)) != 0:
            fail(f"F_{q}: negation fails at {x}")
            return
    rng = Random(q)
    for _ in range(200):
        x, y, z = (rng.randrange(q) for _ in range(3))
        if mul(x, add(y, z)) != add(mul(x, y), mul(x, z)):
            fail(f"F_{q}: distributivity fails at ({x}, {y}, {z})")
            return
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            fail(f"F_{q}: associativity fails at ({x}, {y}, {z})")
            return
    emb = lift_quadratic(F)
    for x in range(q):
        for y in range(q):
            if emb(F.add(x, y)) != emb.ext.add(emb(x), emb(y)):
                fail(f"F_{q}: embedding is not additive at ({x}, {y})")
                return
            if emb(F.mul(x, y)) != emb.ext.mul(emb(x), emb(y)):
                fail(f"F_{q}: embedding is not multiplicative at ({x}, {y})")
                return


def _check_curves(q: int, curves, fail: Callable[[str], None]) -> None:
    for curve in curves:
        for k in (1, 2):
            nk = count_points(curve, k).count
            qk = curve.field.q ** k
            if abs(nk - (qk + 1)) > 2 * serre_constant(qk):
                fail(f"{curve!r}: N_{k} = {nk} violates the Serre bound")
            if nk != len(curve_points(curve, k)):
                fail(f"{curve!r}: count and explicit point set disagree at k={k}")


def _check_zeta(q: int, curves, fail: Callable[[str], None]) -> None:
    for curve in curves:
        n1 = count_points(curve, 1).count
        n2 = count_points(curve, 2).count
        w = weil_from_counts(q, n1, n2)
        if extension_count(w, 1) != n1 or extension_count(w, 2) != n2:
            fail(f"{curve!r}: Newton identities do not round-trip the counts")
        if jacobian_order(w) != (n2 + n1 * n1) // 2 - q:
            fail(f"{curve!r}: the two order formulas disagree")
        if weil_type_point_bound(q, w.c1, 2) != n1:
            fail(f"{curve!r}: genus-2 specialization of the point bound misses N1")


def _check_jacobians(q: int, curves, fail: Callable[[str], None]) -> None:
    for curve in curves:
        try:
            group = enumerate_jacobian(curve)
        except JacobicodeError as exc:
            fail(f"{curve!r}: enumeration failed: {exc}")
            continue
        n = len(group)
        rng = Random(n)
        for _ in range(GROUP_SAMPLES):
            a, b, c = (group[rng.randrange(n)] for _ in range(3))
            left = cantor_add(curve, cantor_add(curve, a, b), c)
            right = cantor_add(curve, a, cantor_add(curve, b, c))
            if left != right:
                fail(f"{curve!r}: associativity fails")
                break
            if cantor_add(curve, a, IDENTITY) != a:
                fail(f"{curve!r}: identity fails")
                break
            if cantor_add(curve, a, negate(curve, a)) != IDENTITY:
                fail(f"{curve!r}: inverses fail")
                break
        for d in group:
            if scalar_mul(curve, n, d) != IDENTITY:
                fail(f"{curve!r}: n*D != identity for {d}")
                break
        if len(theta_set(curve)) != count_points(curve, 1).count:
            fail(f"{curve!r}: theta membership count differs from N1")


def _check_bounds(q: int, fail: Callable[[str], None]) -> None:
    m = serre_constant(q)
    for n1 in range(max(0, q + 1 - 2 * m), q + 2 + 2 * m):
        for r in range(1, 6):
            if support_bound_bruteforce(q, n1, r) != support_bound(q, n1, r):
                fail(f"support bound oracle mismatch at (q={q}, N1={n1}, r={r})")
                return


def run_selftest(qs: Sequence[int] = DEFAULT_QS, verbose: bool = True) -> list[str]:
    failures: list[str] = []

    def fail(msg: str) -> None:
        failures.append(msg)

    for q in qs:
        curves = _corpus(q)
        for name, check in (
            ("fields", lambda: _check_fields(q, fail)),
            ("curves", lambda: _check_curves(q, curves, fail)),
            ("zeta", lambda: _check_zeta(q, curves, fail)),
            ("jacobian", lambda: _check_jacobians(q, curves, fail)),
            ("codes", lambda: _check_bounds(q, fail)),
        ):
            before = len(failures)
            check()
            if verbose:
                status = "ok" if len(failures) == before else "FAIL"
                print(f"selftest q={q} {name}: {status} ({len(curves)} curves)")
    return failures
