"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every criterion prints one pass line on success (run with ``pytest -v -s``
to see them); a failure shows up as an ordinary pytest failure.  Stated
runtime budgets are asserted with ``time.monotonic``.  All comparisons are
exact unless a tolerance is written into the criterion.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from random import Random

import pytest

from jacobicode.bounds import (
    Branch,
    code_params,
    distance_threshold,
    support_bound,
    weil_type_point_bound,
)
from jacobicode.cli import run_cli
from jacobicode.curves import count_points, validate_curve
from jacobicode.explore import RANDOM, SearchSpace, best_codes
from jacobicode.fields import field_from_order, make_field
from jacobicode.mumford import (
    IDENTITY,
    cantor_add,
    enumerate_jacobian,
    negate,
    scalar_mul,
    theta_set,
    translate_support_count,
    zero_sum_tuples,
)
from jacobicode.weil import (
    Verdict,
    classify_simplicity,
    jacobian_order,
    serre_constant,
    weil_from_counts,
)

from conftest import enumerate_curves
from test_bounds import support_bound_bruteforce
from test_weil import (
    FactorShape,
    elliptic_product_classes,
    extension_count,
    factor_weil_search,
    quartic,
)

# documented search configuration for the F_16 regime demonstration:
# seed 2024 finds an N1 = 33 model within the first 5000 draws
F16_SEED = 2024
F16_TRIALS = 5000
F16_FALLBACK_TRIALS = 60000


@dataclass(frozen=True)
class SweepRecord:
    q: int
    h: tuple
    f: tuple
    n1: int
    n2: int
    c1: int
    c2: int
    order: int
    enumerated: int


@dataclass(frozen=True)
class SweepResult:
    records: list
    elapsed: float


@pytest.fixture(scope="module")
def exhaustive_sweep() -> SweepResult:
    """Full pipeline over every valid imaginary model for q in {2, 3, 4, 5}."""
    t0 = time.monotonic()
    records = []
    for q in (2, 3, 4, 5):
        space = SearchSpace(field=field_from_order(q))
        for curve in enumerate_curves(space):
            n1 = count_points(curve, 1).count
            n2 = count_points(curve, 2).count
            w = weil_from_counts(q, n1, n2)
            group = enumerate_jacobian.__wrapped__(curve)  # skip the cache
            records.append(SweepRecord(
                q=q, h=curve.h, f=curve.f, n1=n1, n2=n2,
                c1=w.c1, c2=w.c2, order=jacobian_order(w),
                enumerated=len(group)))
    return SweepResult(records=records, elapsed=time.monotonic() - t0)


def test_c01_e1_anchor(curve_e1):
    t0 = time.monotonic()
    assert count_points(curve_e1, 1).count == 3
    assert count_points(curve_e1, 2).count == 5
    w = weil_from_counts(2, 3, 5)
    assert quartic(w) == (4, 0, 0, 0, 1)  # t^4 + 4
    assert jacobian_order(w) == 5
    fac = factor_weil_search(w)
    assert set(f for f, _ in fac.factors) == {(2, -2, 1), (2, 2, 1)}
    assert fac.shape is FactorShape.TWO_QUADRATICS
    assert classify_simplicity(w).verdict is Verdict.NOT_SIMPLE
    assert len(enumerate_jacobian(curve_e1)) == 5
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE C1 pass: first anchor curve checks out ({elapsed:.3f} s)")


def test_c02_e2_anchor(curve_e2):
    t0 = time.monotonic()
    assert count_points(curve_e2, 1).count == 5
    assert count_points(curve_e2, 2).count == 5
    w = weil_from_counts(2, 5, 5)
    assert quartic(w) == (4, 4, 2, 2, 1)
    assert factor_weil_search(w).shape is FactorShape.IRREDUCIBLE_QUARTIC
    assert classify_simplicity(w).verdict is Verdict.SIMPLE
    assert jacobian_order(w) == 13 == (5 + 25) // 2 - 2
    assert len(enumerate_jacobian(curve_e2)) == 13
    assert extension_count(w, 3) == 17 == count_points(curve_e2, 3).count
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE C2 pass: second anchor curve checks out ({elapsed:.3f} s)")


def test_c03_length_formula_identity(exhaustive_sweep):
    records = exhaustive_sweep.records
    by_q = {q: 0 for q in (2, 3, 4, 5)}
    for rec in records:
        order = (rec.n2 + rec.n1 * rec.n1) // 2 - rec.q
        assert rec.order == order == rec.enumerated, rec
        by_q[rec.q] += 1
    assert by_q[2] == 128 and by_q[3] == 162
    assert by_q[4] > 10000 and by_q[5] == 2500
    assert exhaustive_sweep.elapsed < 600.0
    print(f"ACCEPTANCE C3 pass: length formula exact on {len(records)} curves "
          f"{dict(by_q)} ({exhaustive_sweep.elapsed:.1f} s < 600 s)")


def test_c04_serre_bound(exhaustive_sweep):
    for rec in exhaustive_sweep.records:
        assert abs(rec.c1) <= 2 * serre_constant(rec.q), rec
    print(f"ACCEPTANCE C4 pass: |trace| within 2*[2*sqrt(q)] on "
          f"{len(exhaustive_sweep.records)} curves")


def test_c05_support_bound_oracle_equivalence():
    t0 = time.monotonic()
    points = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        m = serre_constant(q)
        for n1 in range(max(0, q + 1 - 2 * m), q + 2 + 2 * m):
            threshold = distance_threshold(n1, q)
            for r in range(1, 6):
                assert support_bound_bruteforce(q, n1, r) == support_bound(q, n1, r)
                assert (r <= threshold) == ((r + 1) * m <= n1)
                points += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE C5 pass: oracle equals closed form on {points} grid "
          f"points ({elapsed:.2f} s < 60 s)")


def test_c06_point_bound_specialization(exhaustive_sweep):
    for rec in exhaustive_sweep.records:
        assert weil_type_point_bound(rec.q, rec.c1, 2) == rec.n1, rec
    print(f"ACCEPTANCE C6 pass: genus-2 specialization equals N1 on "
          f"{len(exhaustive_sweep.records)} curves")


def test_c07_translate_experiment_consistency(corpus):
    t0 = time.monotonic()
    n_curves = 0
    n_tuples = 0
    for q in (2, 3):
        for curve in corpus[q]:
            n1 = count_points(curve, 1).count
            n2 = count_points(curve, 2).count
            w = weil_from_counts(q, n1, n2)
            if not classify_simplicity(w).is_simple:
                continue
            n_curves += 1
            group = enumerate_jacobian(curve)
            n = len(group)
            report = code_params(w, 3)
            theta = theta_set(curve)
            translate_of = {p: frozenset(cantor_add(curve, t, p) for t in theta)
                            for p in group}
            total = n * n
            stride = max(1, total // 200)
            for tup in zero_sum_tuples(curve, 3, limit=200, stride=stride):
                exp = translate_support_count(curve, tup)
                assert exp.support_count <= min(n, 3 * n1)
                if report.d_lb > 0:
                    assert n - exp.support_count >= report.d_lb
                sets = [translate_of[p] for p in tup]
                assert exp.support_count == len(sets[0] | sets[1] | sets[2])
                disjoint = (sets[0].isdisjoint(sets[1])
                            and sets[0].isdisjoint(sets[2])
                            and sets[1].isdisjoint(sets[2]))
                assert exp.attained == disjoint
                n_tuples += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE C7 pass: {n_tuples} tuples over {n_curves} simple "
          f"curves ({elapsed:.1f} s < 300 s)")


def test_c08_group_law_suite(corpus):
    t0 = time.monotonic()
    n_checks = 0
    for q, curves in corpus.items():
        for curve in curves:
            group = enumerate_jacobian(curve)
            n = len(group)
            rng = Random(hash((q, curve.h, curve.f)) & 0xFFFFFFFF)
            for _ in range(1000):
                a, b, c = (group[rng.randrange(n)] for _ in range(3))
                ab = cantor_add(curve, a, b)
                assert cantor_add(curve, ab, c) == \
                    cantor_add(curve, a, cantor_add(curve, b, c))
                assert cantor_add(curve, a, IDENTITY) == a
                assert cantor_add(curve, a, negate(curve, a)) == IDENTITY
                n_checks += 1
            for d in group:
                assert scalar_mul(curve, n, d) == IDENTITY
    elapsed = time.monotonic() - t0
    total_curves = sum(len(c) for c in corpus.values())
    print(f"ACCEPTANCE C8 pass: {n_checks} random group-law checks and full "
          f"Lagrange on {total_curves} curves ({elapsed:.1f} s)")


def _run_f16_search(trials: int):
    field = make_field(2, 4)
    space = SearchSpace(field=field, mode=RANDOM, seed=F16_SEED, trials=trials)
    return best_codes(space, [3])


def test_c09_f16_regime_demonstration():
    t0 = time.monotonic()
    rows = _run_f16_search(F16_TRIALS)
    hits = [row for row in rows if row.n1 >= 32]
    if not hits:
        max_n1 = max(row.n1 for row in rows)
        print(f"ACCEPTANCE C9: no N1 >= 32 in {F16_TRIALS} trials "
              f"(max N1 = {max_n1}); re-running with a larger budget")
        rows = _run_f16_search(F16_FALLBACK_TRIALS)
        hits = [row for row in rows if row.n1 >= 32]
    assert hits, "no curve with N1 >= 32 found over F_16"
    row = hits[0]
    n1 = row.n1
    assert 3 <= distance_threshold(n1, 16)  # r = 3 <= N1/8 - 1
    rep = row.report
    assert rep.branch is Branch.PHI_R
    assert rep.d_lb == rep.n - 3 * n1 > 0
    assert rep.certified == (row.simplicity.is_simple and rep.d_lb > 0)
    # independently re-validate the found curve end to end
    curve = validate_curve(row.curve.field, row.curve.h, row.curve.f)
    assert count_points(curve, 1).count == n1
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    print(f"ACCEPTANCE C9 pass: seed {F16_SEED} finds N1 = {n1} over F_16, "
          f"branch phir, d_lb = {rep.d_lb} > 0, certified = {rep.certified} "
          f"({elapsed:.1f} s < 1800 s)")


def test_c10_search_determinism(tmp_path):
    args = ["search", "--q", "16", "--r", "3", "--random", "--trials", "800",
            "--seed", str(F16_SEED), "--format", "json"]
    outputs = []
    for parallel in (1, 8):
        path = tmp_path / f"search_p{parallel}.json"
        code = run_cli(args + ["--parallel", str(parallel), "--output", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    assert data["seed"] == F16_SEED
    print(f"ACCEPTANCE C10 pass: byte-identical search output at parallelism "
          f"1 and 8 ({len(outputs[0])} bytes)")


def test_c11_simplicity_equals_elliptic_product_oracle(exhaustive_sweep):
    # a surface is not simple iff its quartic is a product of two elliptic
    # Frobenius polynomials, with the traces taken from a census of all
    # elliptic curves; each isogeny class of the sweep is checked once
    classes = {weil_from_counts(rec.q, rec.n1, rec.n2) for rec in exhaustive_sweep.records}
    assert len(classes) == 172
    simple = 0
    for w in classes:
        product = (w.c1, w.c2) in elliptic_product_classes(w.q)
        assert classify_simplicity(w).is_simple == (not product), w
        simple += not product
    print(f"ACCEPTANCE C11 pass: simplicity equals the elliptic-product oracle on "
          f"{len(classes)} classes ({simple} simple) of the q <= 5 censuses")


def test_c12_non_elliptic_square_certifies_over_f8():
    # (t^2 - 8)^2: a simple surface, as sqrt(8) is real, so the r = 2 bound
    # certifies; every zero-sum pair (P, -P) keeps at least d_lb positions
    t0 = time.monotonic()
    curve = validate_curve(make_field(2, 3), (2,), (2, 5, 2, 7, 2, 1))
    w = weil_from_counts(8, count_points(curve, 1).count, count_points(curve, 2).count)
    assert (w.c1, w.c2) == (0, -16)
    assert factor_weil_search(w).factors == (((-8, 0, 1), 2),)
    report = code_params(w, 2)
    assert report.simplicity == (Verdict.SIMPLE, "non-elliptic-square")
    assert (report.n, report.d_lb, report.certified) == (49, 25, True)
    group = enumerate_jacobian(curve)
    theta = theta_set(curve)
    weights = []
    for pair in zero_sum_tuples(curve, 2):
        exp = translate_support_count(curve, pair)
        translates = [{cantor_add(curve, t, p) for t in theta} for p in pair]
        assert exp.support_count == len(translates[0] | translates[1])
        weights.append(len(group) - exp.support_count)
    assert len(weights) == report.n and min(weights) >= report.d_lb
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE C12 pass: a non-elliptic square over F_8 certifies d_lb = "
          f"{report.d_lb} <= {min(weights)} on {len(weights)} pairs ({elapsed:.1f} s)")
