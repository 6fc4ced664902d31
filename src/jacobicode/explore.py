"""Curve search over small fields and best-code table generation.

Spaces are either exhaustive (every coefficient tuple, in ascending
encoding order) or random (a seeded stream of coefficient draws).  Every
consumer runs one path: ``_unique`` skips repeated random draws, ``_curves``
decodes and validates each candidate and keeps those of the space's kind,
and ``analyze_curve`` runs the whole pipeline on each: count over F_q and
F_{q^2}, Weil data, simplicity, and one code report per requested radius.
Tables sort by (certified, distance bound, length) descending with a
coefficient-encoding tie-break, a key that is total over the unique
(h, f, r) rows, so output is a pure function of the space and seeds:
byte-identical across runs and across parallelism degrees.

Odd-characteristic spaces only enumerate h = 0: validation folds any h
into the square term, so other choices of h produce exact duplicates of
models already in the h = 0 slice.  Validation returns every other
candidate unchanged, so distinct encodings give distinct curves.
"""

from __future__ import annotations

import os
from collections import deque
from functools import partial
from itertools import islice
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import poly
from .bounds import CodeReport, check_radii, code_params
from .curves import IMAGINARY, REAL, CurveModel, count_points, validate_curve
from .errors import (
    GenusNotTwoError,
    InvalidSearchSpaceError,
    SingularModelError,
    SpaceTooLargeError,
    WrongDegreeError,
)
from .fields import FiniteField
from .weil import SimplicityVerdict, WeilData, classify_simplicity, weil_from_counts

EXHAUSTIVE_CAP = 10 ** 7
CHUNK_SIZE = 256  # most candidates per pool task
CHUNKS_PER_WORKER = 2  # pool tasks in flight per worker

EXHAUSTIVE = "exhaustive"
RANDOM = "random"


class _SpaceFields(NamedTuple):
    field: FiniteField
    kind: str = IMAGINARY
    mode: str = EXHAUSTIVE
    seed: int | None = None
    trials: int | None = None


class SearchSpace(_SpaceFields):
    """Coefficient space of candidate models over one field; validated on
    construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SearchSpace":
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (IMAGINARY, REAL):
            raise InvalidSearchSpaceError(f"kind must be {IMAGINARY!r} or {REAL!r}")
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise InvalidSearchSpaceError(f"mode must be {EXHAUSTIVE!r} or {RANDOM!r}")
        if self.mode == RANDOM and (self.seed is None or self.trials is None
                                    or self.trials < 1):
            raise InvalidSearchSpaceError("random mode needs a seed and a positive trial count")
        return self

    @property
    def f_degree(self) -> int:
        return 5 if self.kind == IMAGINARY else 6

    @property
    def h_size(self) -> int:
        if self.field.p != 2:
            return 1  # h folds away; only h = 0 yields distinct models
        h_cap = 2 if self.kind == IMAGINARY else 3
        return self.field.q ** (h_cap + 1)

    @property
    def f_size(self) -> int:
        return self.field.q ** self.f_degree  # free coefficients below the monic lead

    @property
    def size(self) -> int:
        return self.h_size * self.f_size


def _decode_candidate(space: SearchSpace, h_enc: int, f_enc: int
                      ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    q = space.field.q
    h = []
    rest = h_enc
    while rest:
        rest, c = divmod(rest, q)
        h.append(c)
    f = []
    rest = f_enc
    for _ in range(space.f_degree):
        rest, c = divmod(rest, q)
        f.append(c)
    f.append(1)
    return tuple(h), tuple(f)


def candidate_encodings(space: SearchSpace) -> Iterator[tuple[int, int]]:
    """The (h, f) encoding stream defining the documented candidate order."""
    if space.mode == EXHAUSTIVE:
        if space.size > EXHAUSTIVE_CAP:
            raise SpaceTooLargeError(
                f"exhaustive space of size {space.size} exceeds {EXHAUSTIVE_CAP}")
        for h_enc in range(space.h_size):
            for f_enc in range(space.f_size):
                yield h_enc, f_enc
    else:
        rng = Random(space.seed)
        h_size, f_size = space.h_size, space.f_size
        for _ in range(space.trials):
            yield rng.randrange(h_size), rng.randrange(f_size)


def _unique(space: SearchSpace) -> Iterator[tuple[int, int]]:
    """The candidate encodings in order, repeated draws skipped.

    Only random draws can repeat, so an exhaustive stream keeps no seen-set.
    """
    encodings = candidate_encodings(space)
    if space.mode == EXHAUSTIVE:
        yield from encodings
        return
    seen: set[tuple[int, int]] = set()
    for enc in encodings:
        if enc not in seen:
            seen.add(enc)
            yield enc


def _curves(space: SearchSpace, encodings: Iterable[tuple[int, int]]
            ) -> Iterator[CurveModel]:
    """The valid models of the space's kind among the encoded candidates."""
    for h_enc, f_enc in encodings:
        h, f = _decode_candidate(space, h_enc, f_enc)
        try:
            curve = validate_curve(space.field, h, f)
        except (WrongDegreeError, SingularModelError, GenusNotTwoError):
            continue
        if curve.kind == space.kind:  # a degree-6 input can normalize to imaginary
            yield curve


def enumerate_curves(space: SearchSpace) -> Iterator[CurveModel]:
    """Validated models of the space, in candidate order, without repeats."""
    return _curves(space, _unique(space))


class TableRow(NamedTuple):
    """One (curve, r) line of a code table, carrying the full pipeline output."""

    curve: CurveModel
    n1: int
    n2: int
    weil: WeilData
    simplicity: SimplicityVerdict
    report: CodeReport

    def sort_key(self) -> tuple:
        return (not self.report.certified, -self.report.d_lb, -self.report.n,
                self.curve.h, self.curve.f, self.report.r)

    def to_dict(self) -> dict:
        return {
            "curve": self.curve.to_dict(),
            "n1": self.n1,
            "n2": self.n2,
            "weil": self.weil.to_dict(),
            "report": self.report.to_dict(),
        }


CSV_COLUMNS = ("q", "h", "f", "N1", "N2", "c1", "c2", "simplicity",
               "r", "n", "k", "d_lb", "certified")


def csv_row(row: TableRow) -> tuple:
    return (
        row.curve.field.q,
        poly.to_string(row.curve.h),
        poly.to_string(row.curve.f),
        row.n1,
        row.n2,
        row.weil.c1,
        row.weil.c2,
        row.simplicity.verdict.value,
        row.report.r,
        row.report.n,
        row.report.k,
        row.report.d_lb,
        row.report.certified,
    )


def analyze_curve(curve: CurveModel, r_values: Sequence[int]) -> list[TableRow]:
    """Full pipeline for one curve: counts, Weil data, one row per radius.

    The radii are checked before anything is counted.
    """
    check_radii(r_values)
    n1 = count_points(curve, 1).count
    n2 = count_points(curve, 2).count
    w = weil_from_counts(curve.field.q, n1, n2)
    verdict = classify_simplicity(w)
    rows = []
    for r in r_values:
        report = code_params(w, n1, r)
        rows.append(TableRow(curve=curve, n1=n1, n2=n2, weil=w,
                             simplicity=verdict, report=report))
    return rows


def _analyze_chunk(space: SearchSpace, r_values: Sequence[int],
                   encodings: Iterable[tuple[int, int]]) -> list[TableRow]:
    """The pipeline over unique candidate encodings; also the pool worker."""
    return [row for curve in _curves(space, encodings)
            for row in analyze_curve(curve, r_values)]


def best_codes(space: SearchSpace, r_values: Sequence[int],
               parallelism: int = 1) -> list[TableRow]:
    """Pipeline every valid curve of the space; canonical deterministic table.

    At most one worker process per CPU is started, whatever ``parallelism``
    asks for; the table does not depend on either.  The pool gets the
    candidates in chunks as the stream yields them, with at most
    ``CHUNKS_PER_WORKER`` chunks per worker in flight, so the candidates held
    at once do not grow with the size of the space.  A chunk holds at most
    ``CHUNK_SIZE`` candidates, and fewer when the stream is short, so that a
    small space still makes about eight chunks per worker.
    """
    r_values = tuple(dict.fromkeys(r_values))
    check_radii(r_values)
    encodings = _unique(space)
    workers = min(parallelism, os.cpu_count() or 1)
    if workers <= 1:
        rows = _analyze_chunk(space, r_values, encodings)
    else:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        analyze = partial(_analyze_chunk, space, r_values)
        length = space.size if space.mode == EXHAUSTIVE else space.trials
        step = min(CHUNK_SIZE, -(-length // (workers * 8)))
        chunks = iter(lambda: list(islice(encodings, step)), [])
        rows = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map would submit every chunk at once
            pending = deque()
            for chunk in chunks:
                if len(pending) == CHUNKS_PER_WORKER * workers:
                    rows.extend(pending.popleft().result())
                pending.append(pool.submit(analyze, chunk))
            for future in pending:
                rows.extend(future.result())
    rows.sort(key=TableRow.sort_key)
    return rows
