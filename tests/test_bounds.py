"""Point bounds, exact radical budget, support-bound oracle, code reports."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt as mpsqrt

from jacobicode.bounds import (
    R_MAX,
    Branch,
    check_radii,
    code_params,
    distance_threshold,
    support_bound,
    weil_type_point_bound,
)
from jacobicode.curves import _x_classes, count_points
from jacobicode.errors import InvalidRError, TraceHypothesisViolatedError
from jacobicode.mumford import _quadratic_tables
from jacobicode.weil import Verdict, WeilData, classify_simplicity, serre_constant, \
    weil_from_counts
from test_weil import weil_grid

GRID_QS = (2, 3, 4, 5, 7, 8, 9, 16)
BRUTEFORCE_R_CAP = 6


# -- the brute-force support-bound oracle -------------------------------------
#
# All radical comparisons are exact: perfect-square parts are summed as
# integers and the leftover irrational sum is compared to the remaining
# integer budget by scaled-isqrt interval refinement, which terminates
# because a nonempty sum of irrational square roots is never an integer.

@lru_cache(maxsize=None)
def _radical_sum_le(ms: tuple[int, ...], bound: int) -> bool:
    """Exact test sum(sqrt(m) for m in ms) <= bound for non-negative ints."""
    rational = 0
    irrational: list[int] = []
    for m in ms:
        s = isqrt(m)
        if s * s == m:
            rational += s
        else:
            irrational.append(m)
    if not irrational:
        return rational <= bound
    rem = bound - rational
    if rem <= 0:
        return False
    shift = 8
    while True:
        lower = 0
        upper = 0
        for m in irrational:
            s = isqrt(m << (2 * shift))
            lower += s
            upper += s + 1
        target = rem << shift
        if upper <= target:
            return True
        if lower >= target:
            return False  # strict: the sum is irrational, never equal to rem
        shift += 16


def within_genus_budget(components: Sequence[tuple[int, int]], r: int) -> bool:
    """Exact check of sum(n_i * sqrt(pi_i - 1)) <= r; genera must be >= 2."""
    ms = []
    for n_i, pi_i in components:
        if n_i < 1 or pi_i < 2:
            raise ValueError(
                f"component (n={n_i}, pi={pi_i}) needs n >= 1 and pi >= 2")
        ms.append(n_i * n_i * (pi_i - 1))  # n*sqrt(m) == sqrt(n^2 m)
    return _radical_sum_le(tuple(sorted(ms)), r)


@lru_cache(maxsize=None)
def _max_genus_total(r: int, k: int) -> int:
    """Largest sum of k integer genera >= 2 whose radical budget fits r."""
    best = 0

    def rec(slots: int, cap: int, ms: tuple[int, ...], total: int) -> None:
        nonlocal best
        if slots == 0:
            best = max(best, total)
            return
        for pi in range(cap, 1, -1):
            trial = ms + (pi - 1,) + (1,) * (slots - 1)  # pad remaining at genus 2
            if _radical_sum_le(tuple(sorted(trial)), r):
                rec(slots - 1, pi, ms + (pi - 1,), total + pi)

    rec(k, r * r + 1, (), 0)
    return best


def support_bound_bruteforce(q: int, n1: int, r: int) -> int:
    """Exhaustive maximum of k*(N1 - 2m) + m*sum(pi_i) over all component
    counts k <= r and integer genera pi_i >= 2 within the radical budget.

    Multiplicities are fixed at 1: raising one only shrinks the feasible
    genus set without changing the objective.  This is the independent
    oracle for the closed-form support bound.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if r > BRUTEFORCE_R_CAP:
        raise ValueError(f"brute-force search capped at r <= {BRUTEFORCE_R_CAP}")
    m = serre_constant(q)
    return max(k * (n1 - 2 * m) + m * _max_genus_total(r, k) for k in range(1, r + 1))


class TestPointBound:
    def test_examples(self):
        assert weil_type_point_bound(2, 2, 2) == 5
        assert weil_type_point_bound(2, 2, 3) == 7

    def test_trace_hypothesis(self):
        with pytest.raises(TraceHypothesisViolatedError):
            weil_type_point_bound(2, -3, 2)
        assert weil_type_point_bound(2, -2, 2) == 1  # boundary tau = -q is fine

    def test_genus_two_specialization_hits_n1(self, corpus):
        for q, curves in corpus.items():
            for curve in curves:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                assert weil_type_point_bound(q, w.c1, 2) == n1


class TestGenusBudget:
    def test_examples(self):
        assert within_genus_budget([(1, 10)], 3)       # sqrt(9) = 3 exactly
        assert within_genus_budget([(1, 2)] * 3, 3)
        assert not within_genus_budget([(2, 5)], 3)    # 2*sqrt(4) = 4 > 3

    def test_bad_components(self):
        with pytest.raises(ValueError, match=r"component \(n=0, pi=3\) needs n >= 1"):
            within_genus_budget([(0, 3)], 3)
        with pytest.raises(ValueError, match=r"component \(n=1, pi=1\) needs n >= 1"):
            within_genus_budget([(1, 1)], 3)

    def test_boundary_equalities_are_exact(self):
        assert within_genus_budget([(1, 5), (1, 2)], 3)       # 2 + 1 = 3
        assert not within_genus_budget([(1, 5), (1, 2)], 2)
        assert within_genus_budget([(3, 2)], 3)               # 3 * 1 = 3
        assert not within_genus_budget([(3, 2), (1, 2)], 3)

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(2, 30)),
                    min_size=1, max_size=4), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_against_high_precision_floats(self, comps, r):
        mp.dps = 60
        total = sum(n * mpsqrt(pi - 1) for n, pi in comps)
        exact = within_genus_budget(comps, r)
        if abs(total - r) > mpf("1e-40"):
            assert exact == (total <= r)
        else:
            # boundary cases must come from perfect squares and stay exact
            assert all(isqrt(n * n * (pi - 1)) ** 2 == n * n * (pi - 1)
                       for n, pi in comps)
            assert exact


class TestSupportBoundOracle:
    def test_examples(self):
        assert support_bound_bruteforce(2, 5, 3) == 21
        assert support_bound_bruteforce(16, 33, 3) == 99
        assert support_bound_bruteforce(7, 12, 1) == 12

    def test_closed_form_examples(self):
        assert support_bound(2, 5, 3) == max(5 + 8 * 2, 15) == 21
        assert support_bound(16, 33, 3) == max(33 + 8 * 8, 99) == 99

    def test_oracle_equals_closed_form_on_grid(self):
        for q in GRID_QS:
            m = serre_constant(q)
            for n1 in range(max(0, q + 1 - 2 * m), q + 2 + 2 * m):
                for r in range(1, 6):
                    assert support_bound_bruteforce(q, n1, r) == \
                        support_bound(q, n1, r), (q, n1, r)

    def test_r_limits(self):
        with pytest.raises(ValueError, match=r"need r >= 1"):
            support_bound_bruteforce(2, 5, 0)
        with pytest.raises(ValueError, match=r"brute-force search capped at r <= 6"):
            support_bound_bruteforce(2, 5, 7)


class TestCodeParams:
    def test_e2_report(self):
        w = weil_from_counts(2, 5, 5)
        rep = code_params(w, 3)
        assert (rep.n, rep.k, rep.d_lb) == (13, 9, -8)
        assert rep.branch is Branch.PHI_1
        assert not rep.certified
        assert "distance-bound-nonpositive" in rep.warnings

    def test_e1_report_carries_not_simple_warning(self):
        w = weil_from_counts(2, 3, 5)
        rep = code_params(w, 3)
        assert rep.simplicity.verdict is Verdict.NOT_SIMPLE
        assert "jacobian-not-simple" in rep.warnings
        assert not rep.certified

    def test_synthetic_f16_maximal(self):
        w = WeilData(q=16, p=2, c1=16, c2=96)
        rep = code_params(w, 3)
        assert rep.n == 625
        assert rep.d_lb == 625 - 99
        assert rep.branch is Branch.PHI_R
        assert rep.threshold_r == Fraction(25, 8)
        assert not rep.certified  # not simple

    def test_branch_threshold_equivalence(self):
        for q in GRID_QS:
            m = serre_constant(q)
            for n1 in range(max(0, q + 1 - 2 * m), q + 2 + 2 * m):
                for r in range(2, 6):
                    phi1 = n1 + (r * r - 1) * m
                    phir = r * n1
                    threshold_ok = r <= distance_threshold(n1, q)
                    assert threshold_ok == ((r + 1) * m <= n1)
                    assert threshold_ok == (phi1 <= phir)
                # at r = 1 both branches collapse to the same value
                assert n1 + 0 * m == 1 * n1

    def test_monotone_in_r(self, corpus):
        for q, curves in corpus.items():
            for curve in curves[:6]:
                n1 = count_points(curve, 1).count
                n2 = count_points(curve, 2).count
                w = weil_from_counts(q, n1, n2)
                bounds = [code_params(w, r).d_lb for r in range(1, 6)]
                assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_small_r_policy(self):
        w = weil_from_counts(2, 5, 5)
        # the policy covers exactly the radii the brute-force oracle checks
        assert R_MAX == BRUTEFORCE_R_CAP
        for r in (0, R_MAX + 1):
            for _ in range(2):  # an exception is never cached
                with pytest.raises(InvalidRError):
                    code_params(w, r)
        assert code_params(w, R_MAX).k == R_MAX ** 2
        rep = code_params(w, 2)
        assert "very-ample-not-guaranteed" in rep.warnings

    @pytest.mark.parametrize("r", [True, 1.0, 2.5, "3"])
    def test_non_int_radius_rejected(self, r):
        # 1, 1.0 and True are one cache key: a bool or float radius would poison
        # the entry of an int one, and 2.5 would give k = 6.25
        w = weil_from_counts(2, 5, 5)
        code_params.cache_clear()
        with pytest.raises(InvalidRError):
            code_params(w, r)
        with pytest.raises(InvalidRError):
            check_radii([3, r])
        rep = code_params(w, 1)
        assert type(rep.r) is int and rep.to_dict()["r"] == 1 and type(rep.k) is int

    def test_certified_requires_simple_and_positive(self):
        # a certified example found over F_16 by random search
        w = weil_from_counts(16, 29, 243)
        rep = code_params(w, 3)
        if rep.simplicity.is_simple and rep.d_lb > 0:
            assert rep.certified
        assert rep.k == 9

    def test_cached_equals_fresh(self):
        classes = [w for w in weil_grid(16) if w.q in GRID_QS]
        radii = range(1, R_MAX + 1)
        for w in classes:  # warm the cache
            for r in radii:
                code_params(w, r)
        for w in classes:
            for r in radii:
                assert code_params(w, r) == code_params.__wrapped__(w, r)

    def test_caches_are_bounded(self):
        # an unbounded cache would grow with every class a long search meets
        for fn in (count_points, _x_classes, _quadratic_tables, weil_from_counts,
                   classify_simplicity, code_params):
            assert fn.cache_parameters()["maxsize"] is not None, fn.__name__
