#!/usr/bin/env python3
"""Benchmark of the jacobicode pipeline and its Jacobian group oracle.

Run from the repository root; jacobicode is imported from ``src``:

    python3 perfbench/run.py --workload f16_search --seed 2024 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one after another
    python3 perfbench/run.py --seed 7 --seconds 1 # smoke check on a second seed
    python3 perfbench/run.py --trace 1            # per-layer metrics of every workload

One run measures one workload in one process, with no worker pool:

1. Set-up.  ``setup_probe.py`` imports jacobicode and builds every field
   and extension the workload uses, lazy tables included, in a fresh
   interpreter, SETUP_RUNS times; ``setup_s`` is the median.  The run then
   does the same set-up in process and prepares its inputs from ``--seed``
   (untimed warm-up), so the timed region starts with every table filled.
2. Timed region.  ``--trace 0`` runs ops until ``--seconds`` have passed,
   stopping only between rounds (one op per field, where a workload cycles
   over fields) and never before MIN_OPS and ``digest_ops`` ops.
   ``--trace 1`` instead runs the workload's fixed ``trace_ops`` ops three
   times: untraced, with every layer boundary traced (spans.py), untraced
   again; counts repeat exactly, and the traced rate over the untraced
   rates is the tracing overhead.
3. Checks.  Every op's output is checked by invariants that hold for any
   seed; for the default seed the output of the first ``digest_ops`` ops
   must also match the digest recorded at the seed commit.  An op that
   raises anything but a documented validation rejection, or fails a
   check, counts as failed; a digest mismatch counts as one more failure.

A one-workload run ends its stdout with one JSON object: correct,
attempted, failed and metrics (the bounded end-to-end metrics for
``--trace 0``, the per-layer ones for ``--trace 1``).  The line before
it, ``results {...}``, records the run: nproc, Python, commit, seeds, op
counts, why the workload was chosen and which end-to-end metric each
layer metric should move.  Every command exits 0 only when every op of
every workload it ran passed its checks; without ``--workload`` it ends
with a table of all four.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from random import Random
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import jacobicode
except ModuleNotFoundError:
    sys.exit(f"error: jacobicode not found in {SRC}; run from a checkout of the repository")
from jacobicode import bounds, curves, errors, explore, fields, mumford, poly, weil  # noqa: E402

from setup_probe import build_fields  # noqa: E402
from spans import Tracer  # noqa: E402

DEFAULT_SEED = 2024  # the seed of the paper's F_16 search
SETUP_RUNS = 5
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many slower ops
MIN_OPS = TAIL_BEYOND + 1
# A run is cut into windows of whole rounds lasting about WINDOW_S.
# ops_per_s is the 10th percentile of the window rates (the rate the run
# sustained in nine windows of ten) and op_p50_ms the 90th percentile of the
# window median latencies.  A shared machine switches between a slow and a
# fast speed for stretches of 10-60 s; these quantiles keep to the slow
# speed, which nearly every run sees, where the median or the mean over a
# run moves with the share of time the run happened to get the fast one.
WINDOW_S = 1.0
R_VALUES = (3,)

# the documented validation rejections; any other exception fails the op
REJECTIONS = (errors.WrongDegreeError, errors.SingularModelError, errors.GenusNotTwoError)

END_TO_END = {  # name: unit; the metrics BENCHMARK.json bounds
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded with every --trace 0 run, but not bounded: on a shared
# 2-vCPU machine the 11th-slowest op of a run (GC pauses, host preemption)
# spread by 0.1 to 0.8 of its median across runs, and error_rate is 0.
UNBOUNDED = {"op_tail_ms": "ms", "error_rate": "ratio"}

_VALIDATE = "ops_per_s on census_q5 and f16_search"
_PIPELINE = "ops_per_s on f16_search and census_q5"
_WEIL = ("ops_per_s and op_p50_ms on f16_search and census_q5;"
         " no move on jacobian_scan or group_law")
_SCAN = "ops_per_s and op_p50_ms on jacobian_scan"
_SCAN_ALL = "ops_per_s and op_tail_ms on jacobian_scan, op_p50_ms on census_q5"
_GROUP = "ops_per_s on group_law"
_SEARCH = "ops_per_s on f16_search"
LAYER_METRICS = {  # name: (unit, better, the end-to-end metric it should move)
    "setup.import_s": ("s", "lower", "setup_s on every workload"),
    "fields.tables_s": ("s", "lower", "setup_s on every workload, most on jacobian_scan"),
    "curves.validate.calls": ("count", "lower", _VALIDATE),
    "curves.validate.accept_ratio": ("ratio", "higher", _VALIDATE),
    "curves.validate.self_s": ("s", "lower", _VALIDATE),
    "curves.count_k1.us_per_call": ("us", "lower", _PIPELINE),
    "curves.count_k2.us_per_call": ("us", "lower", _PIPELINE),
    "curves.count.calls_per_curve": ("count", "lower", _PIPELINE),
    "curves.self_s": ("s", "lower", _PIPELINE),
    "weil.classify.calls_per_row": ("count", "lower", _WEIL),
    "weil.classify.us_per_call": ("us", "lower", _WEIL),
    "weil.self_s": ("s", "lower", _WEIL),
    "bounds.code_params.self_us_per_call": ("us", "lower", _SEARCH),
    "bounds.self_s": ("s", "lower", _SEARCH),
    "mumford.enumerate.ms_per_call.q5": ("ms", "lower", "op_p50_ms on census_q5"),
    "mumford.enumerate.ms_per_call.q16": ("ms", "lower", _SCAN),
    "mumford.enumerate.ms_per_call.q25": ("ms", "lower", _SCAN),
    "mumford.enumerate.ms_per_call.q27": ("ms", "lower", _SCAN),
    "mumford.enumerate.ms_per_call.q32": ("ms", "lower", _SCAN),
    "mumford.enumerate.classes_per_s": ("1/s", "higher", _SCAN_ALL),
    "mumford.enumerate.hit_ratio": ("ratio", "higher", _SCAN_ALL),
    "mumford.enumerate.cache_hit_ratio": ("ratio", "higher", _SCAN_ALL),
    "mumford.cantor_add.calls": ("count", "lower", _GROUP),
    "mumford.cantor_add.us_per_call": ("us", "lower", _GROUP),
    "poly.ext_gcd.calls_per_add": ("count", "lower", _GROUP),
    "mumford.self_s": ("s", "lower", "ops_per_s on jacobian_scan and group_law"),
    "explore.self_s": ("s", "lower", _SEARCH),
    "explore.unique_ratio": ("ratio", "higher", _SEARCH),
    "bench.self_s": ("s", "lower", "none: the benchmark's own loop and output checks"),
    "trace.region_s": ("s", "lower", "none: the traced timed region"),
    "trace.overhead_ratio": ("ratio", "higher", "none: traced over untraced ops_per_s"),
    "trace.cost_share": ("ratio", "lower", "none: wrapper cost, timed on a no-op, per region"),
    "trace.layer_share": ("ratio", "higher", "none: library self time per traced region"),
}
ENUMERATE_QS = (5, 16, 25, 27, 32)


# -- inputs --------------------------------------------------------------------

def decode(space: explore.SearchSpace, h_enc: int, f_enc: int):
    """Coefficients of a candidate encoding: base-q digits, low degree first,
    f monic of the space's degree (the order ``explore.candidate_encodings``
    documents)."""
    q = space.field.q
    h = []
    while h_enc:
        h_enc, c = divmod(h_enc, q)
        h.append(c)
    f = []
    for _ in range(space.f_degree):
        f_enc, c = divmod(f_enc, q)
        f.append(c)
    f.append(1)
    return h, f


def random_pool(qs: tuple[int, ...], seed: int, rounds: int) -> list:
    """``rounds`` rounds of one new valid imaginary model per q, drawn like a
    random search; a round's curves do not depend on how many rounds follow."""
    rng = Random(seed)
    spaces = [explore.SearchSpace(field=fields.field_from_order(q)) for q in qs]
    pool: list = []
    for _ in range(rounds):
        for space in spaces:
            while True:
                h, f = decode(space, rng.randrange(space.h_size), rng.randrange(space.f_size))
                try:
                    curve = curves.validate_curve(space.field, h, f)
                except REJECTIONS:
                    continue
                if curve.kind == space.kind and curve not in pool:
                    break
            pool.append(curve)
    return pool


def weil_order(curve) -> int:
    q = curve.field.q
    n1 = curves.count_points(curve, 1).count
    n2 = curves.count_points(curve, 2).count
    return weil.jacobian_order(weil.weil_from_counts(q, n1, n2))


# -- output checks -------------------------------------------------------------

def row_ok(row: explore.TableRow) -> bool:
    """Invariants of a table row that hold for every curve."""
    q = row.curve.field.q
    rep = row.report
    twice_n = row.n2 + row.n1 * row.n1 - 2 * q
    return (twice_n % 2 == 0 and rep.n == twice_n // 2
            and abs(row.weil.c1) <= 2 * weil.serre_constant(q)
            and rep.d_lb == rep.n - bounds.support_bound(q, row.n1, rep.r)
            and rep.certified == (row.simplicity.is_simple and rep.d_lb > 0))


def row_record(row: explore.TableRow) -> tuple:
    rep = row.report
    return (row.curve.h, row.curve.f, row.n1, row.n2, row.weil.c1, row.weil.c2,
            row.simplicity.verdict.value, rep.r, rep.n, rep.k, rep.d_lb, rep.certified)


def assemble(rows: list) -> list:
    """The table as ``best_codes`` merges it: exact (h, f, r) duplicates
    dropped, then the canonical sort."""
    seen: set = set()
    unique = []
    for row in rows:
        key = (row.curve.h, row.curve.f, row.report.r)
        if key not in seen:
            seen.add(key)
            unique.append(row)
    unique.sort(key=explore.TableRow.sort_key)
    return unique


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# -- workloads -----------------------------------------------------------------

class Workload:
    """One set of inputs.  ``prepare`` is untimed warm-up; ``reset`` restarts
    the op stream; ``op`` does one op and returns (ok, output)."""

    name = ""
    why = ""
    qs: tuple[int, ...] = ()  # fields built in set-up
    round_size = 1  # a run stops only between rounds
    digest_ops = 0  # ops whose output the default-seed digest covers
    digest = ""  # recorded for DEFAULT_SEED at the seed commit
    trace_ops = 0  # fixed op count of a traced run

    def reset(self) -> None:
        self.n_curves = 0  # curves pushed through a layer
        self.n_rows = 0
        self.n_unique = 0

    def finish(self) -> None:
        """Work done once after the last op, inside the timed region."""

    def digest_of(self, outputs: list) -> str:
        return sha(outputs)


class F16Search(Workload):
    name = "f16_search"
    why = ("seeded random search over F_16, imaginary, r = 3 (the paper's regime demo):"
           " validate, count k = 1 and 2, Weil, simplicity twice, code_params; no group layer")
    qs = (16,)
    digest_ops = 500
    digest = "255cd5c916478d36"
    trace_ops = 1000
    table_draws = 1000  # one table per this many draws, like ``search --trials 1000``

    def prepare(self, seed: int) -> None:
        self.space = explore.SearchSpace(field=fields.field_from_order(16),
                                         mode=explore.RANDOM, seed=seed, trials=10 ** 9)

    def reset(self) -> None:
        super().reset()
        self.candidates = explore.candidate_encodings(self.space)
        self.rows: list = []
        self.draws = 0

    def draw(self):
        h, f = decode(self.space, *next(self.candidates))
        try:
            curve = curves.validate_curve(self.space.field, h, f)
        except REJECTIONS:
            return True, None
        if curve.kind != self.space.kind:
            return True, None
        rows = explore.analyze_curve(curve, R_VALUES)
        self.rows.extend(rows)
        self.n_curves += 1
        self.n_rows += len(rows)
        return all(map(row_ok, rows)), rows

    def op(self):
        ok, out = self.draw()
        self.draws += 1
        if self.draws % self.table_draws == 0:
            self.finish()
        return ok, out

    def finish(self) -> None:
        self.n_unique += len(assemble(self.rows))
        self.rows = []

    def digest_of(self, outputs: list) -> str:
        rows = [row for out in outputs if out for row in out]
        return sha([row_record(row) for row in assemble(rows)])


class CensusQ5(Workload):
    name = "census_q5"
    why = ("exhaustive F_5 census, 3125 candidates to 2500 curves, from a seeded start:"
           " many tiny curves with rejections, full pipeline plus uncached enumeration (C3)")
    qs = (5,)
    digest_ops = 500
    digest = "564e2f536570a9e9"
    trace_ops = 2500  # one whole census

    def prepare(self, seed: int) -> None:
        self.space = explore.SearchSpace(field=fields.field_from_order(5))
        order = list(explore.candidate_encodings(self.space))
        start = Random(seed).randrange(len(order))
        self.order = order[start:] + order[:start]

    def reset(self) -> None:
        super().reset()
        self.candidates = itertools.cycle(self.order)

    def op(self):
        field = self.space.field
        for h_enc, f_enc in self.candidates:
            h, f = decode(self.space, h_enc, f_enc)
            try:
                curve = curves.validate_curve(field, h, f)
            except REJECTIONS:
                continue
            if curve.kind == self.space.kind:
                break
        (row,) = explore.analyze_curve(curve, R_VALUES)
        group = mumford.enumerate_jacobian.__wrapped__(curve)  # bypass the cache
        self.n_curves += 1
        self.n_rows += 1
        self.n_unique += 1  # an exhaustive census has no duplicates
        return row_ok(row) and len(group) == row.report.n, (row_record(row), len(group))


class JacobianScan(Workload):
    name = "jacobian_scan"
    why = ("uncached enumerate_jacobian on seeded curves over q = 16, 25, 27, 32 (char 2"
           " and odd, prime and extension fields): the q^4 (u, v) scan; bypasses weil")
    qs = (16, 25, 27, 32)
    round_size = len(qs)
    digest_ops = len(qs)
    digest = "b1814e9207409af2"
    trace_ops = 2 * len(qs)
    pool_rounds = 24

    def prepare(self, seed: int) -> None:
        self.pool = [(c, weil_order(c)) for c in random_pool(self.qs, seed, self.pool_rounds)]

    def reset(self) -> None:
        super().reset()
        self.items = itertools.cycle(self.pool)

    def op(self):
        curve, order = next(self.items)
        group = mumford.enumerate_jacobian.__wrapped__(curve)  # bypass the cache
        self.n_curves += 1
        ok = len(group) == order and group[0] == mumford.IDENTITY
        return ok, [(d.u, d.v) for d in group]


class GroupLaw(Workload):
    name = "group_law"
    why = ("seeded associativity, identity, inverse and Lagrange checks on cached groups"
           " of seeded curves over q = 4, 5, 16 (C8): Cantor's law; bypasses weil and the scan")
    qs = (4, 5, 16)
    round_size = len(qs)
    digest_ops = 300
    digest = "8984be636f53894c"
    trace_ops = 1500
    pool_rounds = 8

    def prepare(self, seed: int) -> None:
        self.pool = random_pool(self.qs, seed, self.pool_rounds)
        for curve in self.pool:
            mumford.enumerate_jacobian(curve)  # fills the cache the ops read
        self.seed = seed

    def reset(self) -> None:
        super().reset()
        self.curves = itertools.cycle(self.pool)
        self.rng = Random(self.seed)

    def op(self):
        curve = next(self.curves)
        group = mumford.enumerate_jacobian(curve)
        n = len(group)
        a, b, c = (group[self.rng.randrange(n)] for _ in range(3))
        add, identity = mumford.cantor_add, mumford.IDENTITY
        abc = add(curve, add(curve, a, b), c)
        ok = (abc == add(curve, a, add(curve, b, c))
              and add(curve, a, identity) == a
              and add(curve, a, mumford.negate(curve, a)) == identity
              and mumford.scalar_mul(curve, n, a) == identity)
        return ok, (abc.u, abc.v)


WORKLOADS = {w.name: w for w in (F16Search, CensusQ5, JacobianScan, GroupLaw)}


# -- measurement ---------------------------------------------------------------

class Measurement:
    def __init__(self) -> None:
        self.latencies_ns = array("q")
        self.outputs: list = []  # of the first digest_ops ops
        self.failed = 0
        self.failures: list[str] = []
        self.window_rates: list[float] = []  # ops per second in each WINDOW_S of whole rounds
        self.window_p50s: list[float] = []  # median op latency in each window
        self.region_s = 0.0


def measure(work: Workload, *, seconds: float | None = None, n_ops: int | None = None,
            tracer: Tracer | None = None) -> Measurement:
    """Run ops for ``seconds`` (ending between rounds, after at least
    MIN_OPS and digest_ops ops), or exactly ``n_ops`` ops."""
    m = Measurement()
    lat = m.latencies_ns
    floor = max(MIN_OPS, work.digest_ops)
    work.reset()
    gc.collect()
    window_first = 0
    start = window_start = perf_counter_ns()
    deadline = start + int((seconds or 0) * 1e9)
    window_ns = int(WINDOW_S * 1e9)
    while True:
        t0 = perf_counter_ns()
        if tracer:
            tracer.begin("bench.op")
        try:
            ok, out = work.op()
        except Exception as exc:  # an op that raises fails; the run goes on
            ok, out = False, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end()
        t1 = perf_counter_ns()
        lat.append(t1 - t0)
        if not ok:
            m.failed += 1
            if len(m.failures) < 5:
                m.failures.append(f"op {len(lat)}: {out!r:.200}")
        if len(lat) <= work.digest_ops:
            m.outputs.append(out)
        if len(lat) % work.round_size == 0 and t1 - window_start >= window_ns:
            m.window_rates.append((len(lat) - window_first) * 1e9 / (t1 - window_start))
            m.window_p50s.append(statistics.median(lat[window_first:]))
            window_first, window_start = len(lat), t1
        if n_ops is not None:
            if len(lat) >= n_ops:
                break
        elif t1 >= deadline and len(lat) >= floor and len(lat) % work.round_size == 0:
            break
    work.finish()
    m.region_s = (perf_counter_ns() - start) / 1e9
    return m


def measure_setup(qs: tuple[int, ...]) -> dict:
    """Median of SETUP_RUNS cold set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *map(str, qs)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median(s["import_s"] + s["tables_s"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "tables_s": statistics.median(s["tables_s"] for s in samples),
        "samples": samples,
    }


def decile(values: list[float], k: int) -> float:
    """The k-th decile (k in 1..9) of ``values``, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(m: Measurement, setup: dict) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and op_tail_ms with how it was taken."""
    lat = sorted(m.latencies_ns)
    n = len(lat)
    k = n - TAIL_BEYOND
    metrics = {
        "setup_s": setup["setup_s"],
        "ops_per_s": decile(m.window_rates, 1),
        "op_p50_ms": decile(m.window_p50s, 9) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"op_tail_ms": lat[k - 1] / 1e6, "percentile": 100 * k / n, "samples": n,
            "slower_samples": TAIL_BEYOND}
    return metrics, tail


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    def count_name(args, kwargs):
        k = args[1] if len(args) > 1 else kwargs.get("k", 1)
        return f"curves.count_k{k}"

    def accepted(counts, args, result):
        counts["curves.validate.accepted"] += 1

    def enumerated(counts, args, result):
        q = args[0].field.q
        counts["mumford.enumerate.classes"] += len(result)
        counts["mumford.enumerate.candidates"] += q ** 4 + q ** 2  # (u, v) pairs scanned

    tracer.wrap(curves, "validate_curve", "curves.validate", accepted)
    tracer.wrap(explore, "analyze_curve", "explore.analyze_curve")
    tracer.wrap(explore, "code_params", "bounds.code_params")
    for module in (explore, mumford):
        tracer.wrap(module, "count_points", count_name)
        tracer.wrap(module, "weil_from_counts", "weil.from_counts")
    for module in (explore, bounds):
        tracer.wrap(module, "classify_simplicity", "weil.classify")
    for module in (bounds, mumford):
        tracer.wrap(module, "jacobian_order", "weil.order")
    tracer.wrap(mumford, "enumerate_jacobian", "mumford.enumerate_cached")
    tracer.wrap(mumford.enumerate_jacobian, "__wrapped__",
                lambda args, kwargs: f"mumford.enumerate.q{args[0].field.q}", enumerated)
    for attr in ("cantor_add", "negate", "scalar_mul"):
        tracer.wrap(mumford, attr, f"mumford.{attr}")
    tracer.count_calls(poly, "ext_gcd", "poly.ext_gcd")
    # best_codes' merge step, which has no public function of its own
    tracer.wrap(sys.modules[__name__], "assemble", "explore.table")


def per_layer(work: Workload, tracer: Tracer, untraced_s: float, traced: Measurement,
              setup: dict, cache_delta: tuple[int, int]) -> dict:
    calls, total, own, counts = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    k1, k2 = calls["curves.count_k1"], calls["curves.count_k2"]
    adds = calls["mumford.cantor_add"]
    enum_names = [name for name in calls if name.startswith("mumford.enumerate.q")]
    enum_s = sum(total[name] for name in enum_names) / 1e9
    classes = counts["mumford.enumerate.classes"]
    hits, misses = cache_delta
    layers = ("curves", "weil", "bounds", "mumford", "explore")
    metrics = {
        "setup.import_s": setup["import_s"],
        "fields.tables_s": setup["tables_s"],
        "curves.validate.calls": calls["curves.validate"],
        "curves.validate.accept_ratio": ratio(counts["curves.validate.accepted"],
                                              calls["curves.validate"]),
        "curves.validate.self_s": own["curves.validate"] / 1e9,
        "curves.count_k1.us_per_call": ratio(total["curves.count_k1"], k1) / 1e3,
        "curves.count_k2.us_per_call": ratio(total["curves.count_k2"], k2) / 1e3,
        "curves.count.calls_per_curve": ratio(k1 + k2, work.n_curves),
        "curves.self_s": tracer.layer_self_s("curves"),
        "weil.classify.calls_per_row": ratio(calls["weil.classify"], work.n_rows),
        "weil.classify.us_per_call": ratio(total["weil.classify"], calls["weil.classify"]) / 1e3,
        "weil.self_s": tracer.layer_self_s("weil"),
        "bounds.code_params.self_us_per_call":
            ratio(own["bounds.code_params"], calls["bounds.code_params"]) / 1e3,
        "bounds.self_s": tracer.layer_self_s("bounds"),
    }
    for q in ENUMERATE_QS:
        name = f"mumford.enumerate.q{q}"
        metrics[f"mumford.enumerate.ms_per_call.q{q}"] = ratio(total[name], calls[name]) / 1e6
    metrics.update({
        "mumford.enumerate.classes_per_s": ratio(classes, enum_s),
        "mumford.enumerate.hit_ratio": ratio(classes, counts["mumford.enumerate.candidates"]),
        "mumford.enumerate.cache_hit_ratio": ratio(hits, hits + misses),
        "mumford.cantor_add.calls": adds,
        "mumford.cantor_add.us_per_call": ratio(total["mumford.cantor_add"], adds) / 1e3,
        "poly.ext_gcd.calls_per_add": ratio(counts["poly.ext_gcd"], adds),
        "mumford.self_s": tracer.layer_self_s("mumford"),
        "explore.self_s": tracer.layer_self_s("explore"),
        "explore.unique_ratio": ratio(work.n_unique, work.n_rows),
        "bench.self_s": tracer.layer_self_s("bench"),
        "trace.region_s": traced.region_s,
        "trace.overhead_ratio": untraced_s / traced.region_s,
        "trace.cost_share": Tracer.call_cost_s() * len(tracer.spans) / traced.region_s,
        "trace.layer_share": sum(map(tracer.layer_self_s, layers)) / traced.region_s,
    })
    return metrics


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a checkout of its own (for example an exported tree)
    return lines[1]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    work = WORKLOADS[name]()
    setup = measure_setup(work.qs)
    build_fields(work.qs)
    work.prepare(seed)

    if trace:
        # untraced, traced, untraced: the mean of the outer two cancels a
        # steady drift in machine speed out of the overhead ratio
        before = measure(work, n_ops=work.trace_ops)
        tracer = Tracer()
        cache0 = mumford.enumerate_jacobian.cache_info()
        install_tracing(tracer)
        try:
            traced = measure(work, n_ops=work.trace_ops, tracer=tracer)
        finally:
            tracer.restore()
        cache1 = mumford.enumerate_jacobian.cache_info()
        after = measure(work, n_ops=work.trace_ops)
        runs = [before, traced, after]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{name}-seed{seed}.spans.json"
        tracer.write(spans_path)
        metrics = per_layer(work, tracer, (before.region_s + after.region_s) / 2, traced,
                            setup, (cache1.hits - cache0.hits, cache1.misses - cache0.misses))
        units = {key: unit for key, (unit, _, _) in LAYER_METRICS.items()}
        extra = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracer.spans)}
    else:
        main = measure(work, seconds=seconds)
        runs = [main]
        metrics, tail = end_to_end(main, setup)
        units = END_TO_END
        extra = {"tail": tail, "windows": len(main.window_rates)}

    attempted = sum(len(r.latencies_ns) for r in runs)
    failed = sum(r.failed for r in runs)
    failures = [f for r in runs for f in r.failures]
    digest = {"expected": work.digest if seed == DEFAULT_SEED else None,
              "found": [work.digest_of(r.outputs) for r in runs]}
    if digest["expected"] and any(d != digest["expected"] for d in digest["found"]):
        failed += 1
        failures.append(f"output digest {digest['found']} != recorded {digest['expected']}")
    correct = failed == 0
    unbounded = {} if trace else {"op_tail_ms": tail["op_tail_ms"],
                                  "error_rate": failed / attempted}

    print(f"workload {name}  seed {seed}  trace {int(trace)}  ops {attempted}  failed {failed}")
    for key, value in [*metrics.items(), *unbounded.items()]:
        print(f"  {key:38s} {value:14.6f} {units.get(key) or UNBOUNDED[key]}")
    if not trace:
        print(f"  op_tail_ms is p{tail['percentile']:.2f} of {tail['samples']} ops "
              f"({TAIL_BEYOND} slower)")
    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)

    results = {
        "workload": name, "why": work.why, "seed": seed, "default_seed": DEFAULT_SEED,
        "seconds": seconds, "trace": int(trace), "ops": attempted, "failed": failed,
        "error_rate": failed / attempted, "digest": digest, "unbounded": unbounded,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "commit": git_commit(),
        "setup_samples": setup["samples"],
        "layer_metric_moves": {key: moves for key, (_, _, moves) in LAYER_METRICS.items()},
        **extra,
    }
    print("results " + json.dumps(results, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {key: {"value": value, "unit": units[key]}
                                  for key, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh process."""
    status = 0
    table = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or len(lines) < 2:
            status = 1
            continue
        values = {key: val["value"] for key, val in json.loads(lines[-1])["metrics"].items()}
        values.update(json.loads(lines[-2].removeprefix("results "))["unbounded"])
        table.append((name, values))
    if not args.trace:
        columns = {**END_TO_END, **UNBOUNDED}
        print("\n" + f"{'workload':16s}" + "".join(f"{f'{k} ({u})':>22s}"
                                                   for k, u in columns.items()))
        for name, values in table:
            print(f"{name:16s}" + "".join(f"{values[key]:22.4f}" for key in columns))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not Path(jacobicode.__file__).resolve().is_relative_to(SRC):
        print(f"error: jacobicode was imported from {jacobicode.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
