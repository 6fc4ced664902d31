"""Point bounds and code-parameter calculators for Jacobian surfaces.

Given the Weil data of a genus-2 Jacobian and a translate multiple r, the
evaluation code on the surface has length the group order, dimension r^2
(claimed only while the distance bound is positive), and minimum distance
at least n - max{N1 + (r^2-1)m, r N1} with m = [2 sqrt(q)].  The same
maximum is recomputed here by an independent exhaustive search over
component decompositions (integer genera under the exact radical budget),
which is the oracle the closed form is tested against.

All radical comparisons are exact: perfect-square parts are summed as
integers and the leftover irrational sum is compared to the remaining
integer budget by scaled-isqrt interval refinement, which terminates
because a nonempty sum of irrational square roots is never an integer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Sequence

from .errors import (
    BadComponentError,
    BudgetExceededError,
    InvalidGenusError,
    InvalidRError,
    TraceHypothesisViolatedError,
)
from .weil import SimplicityVerdict, Verdict, WeilData, classify_simplicity, \
    jacobian_order, serre_constant

BRUTEFORCE_R_CAP = 6


def self_intersection_from_genus(pi: int) -> int:
    """Self-intersection 2*pi - 2 of a curve of arithmetic genus pi on an
    abelian surface (trivial canonical divisor)."""
    if pi < 0:
        raise InvalidGenusError("arithmetic genus must be non-negative")
    return 2 * pi - 2


def weil_type_point_bound(q: int, tau: int, pi: int) -> int:
    """Upper bound q + 1 + tau + |pi - 2| * [2 sqrt(q)] for the rational
    points of an irreducible curve of arithmetic genus pi on an abelian
    surface of trace term tau; requires tau >= -q."""
    if pi < 1:
        raise InvalidGenusError("arithmetic genus must be at least 1")
    if tau < -q:
        raise TraceHypothesisViolatedError(f"tau = {tau} is below -q = {-q}")
    return q + 1 + tau + abs(pi - 2) * serre_constant(q)


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
            raise BadComponentError(
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
        raise InvalidRError("need r >= 1")
    if r > BRUTEFORCE_R_CAP:
        raise BudgetExceededError(f"brute-force search capped at r <= {BRUTEFORCE_R_CAP}")
    m = serre_constant(q)
    return max(k * (n1 - 2 * m) + m * _max_genus_total(r, k) for k in range(1, r + 1))


def support_bound(q: int, n1: int, r: int) -> int:
    """Closed form max{N1 + (r^2 - 1) m, r N1}."""
    m = serre_constant(q)
    return max(n1 + (r * r - 1) * m, r * n1)


def distance_threshold(n1: int, q: int) -> Fraction:
    """The r-threshold N1 / m - 1 below which the r*N1 branch is active."""
    return Fraction(n1, serre_constant(q)) - 1


class Branch(enum.Enum):
    PHI_1 = "phi1"
    PHI_R = "phir"


@dataclass(frozen=True)
class CodeReport:
    """Certified parameters of the evaluation code attached to (curve, r)."""

    q: int
    r: int
    n: int
    k: int
    d_lb: int
    branch: Branch
    threshold_r: Fraction
    simplicity: SimplicityVerdict
    certified: bool
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "r": self.r,
            "n": self.n,
            "k": self.k,
            "d_lb": self.d_lb,
            "branch": self.branch.value,
            "threshold_r": str(self.threshold_r),
            "simplicity": self.simplicity.verdict.value,
            "simplicity_reason": self.simplicity.reason,
            "certified": self.certified,
            "warnings": list(self.warnings),
        }


def code_params(w: WeilData, n1: int, r: int, *, allow_small_r: bool = False) -> CodeReport:
    """Length, dimension and distance lower bound of the code for radius r.

    The translate system is only known to embed the surface for r >= 3;
    r in {1, 2} is allowed with ``allow_small_r`` and flagged.  The report
    is certified exactly when the Jacobian is simple and the bound is
    positive; everything else still gets the arithmetic, with warnings.
    """
    if r < 1:
        raise InvalidRError("need r >= 1")
    if r < 3 and not allow_small_r:
        raise InvalidRError(
            f"r = {r} < 3 does not guarantee an embedding; pass allow_small_r=True")
    m = serre_constant(w.q)
    n = jacobian_order(w)
    k = r * r
    d_lb = n - support_bound(w.q, n1, r)
    threshold = distance_threshold(n1, w.q)
    branch = Branch.PHI_R if r <= threshold else Branch.PHI_1
    if r >= 2:
        # threshold condition and branch-argmax comparison must agree
        assert ((r + 1) * m <= n1) == (n1 + (k - 1) * m <= r * n1)
    simplicity = classify_simplicity(w)

    warnings: list[str] = []
    if r < 3:
        warnings.append("very-ample-not-guaranteed")
    if simplicity.verdict is Verdict.NOT_SIMPLE:
        warnings.append("jacobian-not-simple")
    elif simplicity.verdict is Verdict.UNKNOWN:
        warnings.append("simplicity-unknown")
    if d_lb <= 0:
        warnings.append("distance-bound-nonpositive")

    certified = simplicity.is_simple and d_lb > 0
    return CodeReport(
        q=w.q, r=r, n=n, k=k, d_lb=d_lb, branch=branch, threshold_r=threshold,
        simplicity=simplicity, certified=certified, warnings=tuple(warnings),
    )
