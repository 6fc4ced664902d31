"""Point bounds and code-parameter calculators for Jacobian surfaces.

Given the Weil data of a genus-2 Jacobian and a translate multiple r, the
evaluation code on the surface has length the group order, dimension r^2
(claimed only while the distance bound is positive), and minimum distance
at least n - max{N1 + (r^2-1)m, r N1} with m = [2 sqrt(q)].  That
maximum over the ways a curve can split into components is computed in
closed form; the exhaustive search over component decompositions that it
is tested against lives in the tests.  Every entry point accepts only the
integer radii of that test, 1 <= r <= R_MAX (``check_radii``).

``code_params`` depends on the isogeny class and r alone, so it is
memoized on (Weil data, r) in an LRU cache of ``CLASS_CACHE_SIZE``
entries, the bound of the Weil caches.  The cached ``CodeReport`` is an
immutable NamedTuple.  An exception is never cached, so a radius outside
1..R_MAX raises on every call.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import InvalidGenusError, InvalidRError, TraceHypothesisViolatedError
from .weil import CLASS_CACHE_SIZE, SimplicityVerdict, WeilData, classify_simplicity, \
    jacobian_order, serre_constant


R_MAX = 6  # the closed form is tested against the brute-force maximizer up to here


def check_radii(r_values: Sequence[int]) -> tuple[int, ...]:
    """The radii, repeats dropped in first-seen order (one row per (curve, r));
    InvalidRError unless they are a nonempty list of ints in 1..R_MAX."""
    if not r_values:
        raise InvalidRError("need at least one radius")
    for r in r_values:
        # 1, 1.0 and True are one key of the class caches, so only an int passes
        if type(r) is not int or not 1 <= r <= R_MAX:
            raise InvalidRError(f"r must be in 1..{R_MAX}, got {r!r}")
    return tuple(dict.fromkeys(r_values))


def weil_type_point_bound(q: int, tau: int, pi: int) -> int:
    """Upper bound q + 1 + tau + |pi - 2| * [2 sqrt(q)] for the rational
    points of an irreducible curve of arithmetic genus pi on an abelian
    surface of trace term tau; requires tau >= -q."""
    if pi < 1:
        raise InvalidGenusError("arithmetic genus must be at least 1")
    if tau < -q:
        raise TraceHypothesisViolatedError(f"tau = {tau} is below -q = {-q}")
    return q + 1 + tau + abs(pi - 2) * serre_constant(q)


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


class CodeReport(NamedTuple):
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


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def code_params(w: WeilData, r: int) -> CodeReport:
    """Length, dimension and distance lower bound of the code for radius r.

    N1 = q + 1 + c1 is read off the Weil data.  r must lie in 1..R_MAX.
    The translate system is only known to embed the surface for r >= 3;
    r in {1, 2} is allowed and flagged.  The report is certified exactly
    when the Jacobian is simple and the bound is positive; everything else
    still gets the arithmetic, with warnings.
    """
    check_radii((r,))
    n1 = w.q + 1 + w.c1
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
    if not simplicity.is_simple:
        warnings.append("jacobian-not-simple")
    if d_lb <= 0:
        warnings.append("distance-bound-nonpositive")

    certified = simplicity.is_simple and d_lb > 0
    return CodeReport(
        q=w.q, r=r, n=n, k=k, d_lb=d_lb, branch=branch, threshold_r=threshold,
        simplicity=simplicity, certified=certified, warnings=tuple(warnings),
    )
