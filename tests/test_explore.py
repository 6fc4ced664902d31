"""Search spaces, curve enumeration, table generation, determinism."""

from __future__ import annotations

import concurrent.futures
import os
from types import SimpleNamespace

import pytest

from jacobicode import explore
from jacobicode.curves import validate_curve
from jacobicode.errors import (
    GenusNotTwoError,
    InvalidRError,
    JacobicodeError,
    SingularModelError,
    SpaceTooLargeError,
    WrongDegreeError,
)
from jacobicode.explore import (
    RANDOM,
    SearchSpace,
    TableRow,
    analyze_curve,
    best_codes,
    csv_row,
)
from jacobicode.fields import field_from_order, make_field
from conftest import enumerate_curves


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for the process pool; returns the list of pools started.

    A task runs when its result is read, so a pool's ``peak`` is the most
    chunks ever submitted and not yet consumed; ``sizes`` lists the length
    of every chunk submitted.
    """
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.in_flight = self.peak = 0
            self.sizes = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.sizes.append(len(args[-1]))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            return SimpleNamespace(result=lambda: self._run(fn, args))

        def _run(self, fn, args):
            self.in_flight -= 1
            return fn(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


class TestEnumeration:
    def test_f2_stream_contains_anchors(self, f2, curve_e1, curve_e2):
        space = SearchSpace(field=f2)
        curves = list(enumerate_curves(space))
        assert curve_e1 in curves
        assert curve_e2 in curves
        assert len(curves) == 128  # full F_2 imaginary census

    def test_every_member_revalidates(self, f2):
        for field in (f2, make_field(5, 1)):
            space = SearchSpace(field=field)
            for curve in enumerate_curves(space):
                again = validate_curve(curve.field, curve.h, curve.f)
                assert again == curve

    def test_deterministic_order(self, f2):
        space = SearchSpace(field=f2)
        assert list(enumerate_curves(space)) == list(enumerate_curves(space))

    def test_odd_char_space_skips_redundant_h(self):
        F3 = make_field(3, 1)
        space = SearchSpace(field=F3)
        assert space.h_size == 1
        curves = list(enumerate_curves(space))
        assert len(curves) == 162  # monic squarefree quintics over F_3
        assert all(c.h == () for c in curves)

    def test_space_too_large(self):
        F16 = make_field(2, 4)
        space = SearchSpace(field=F16)  # 16^3 * 16^5 = 2^32 candidates
        with pytest.raises(SpaceTooLargeError):
            next(iter(enumerate_curves(space)))

    def test_random_mode_is_seeded_and_deduped(self, f2):
        space = SearchSpace(field=f2, mode=RANDOM, seed=11, trials=400)
        a = list(enumerate_curves(space))
        b = list(enumerate_curves(space))
        assert a == b
        assert len(set((c.h, c.f) for c in a)) == len(a)

    def test_random_mode_requires_seed(self, f2):
        with pytest.raises(ValueError):
            SearchSpace(field=f2, mode=RANDOM, trials=10)

    def test_real_kind_spaces(self):
        F3 = make_field(3, 1)
        space = SearchSpace(field=F3, kind="real")
        curves = list(enumerate_curves(space))
        assert curves and all(c.kind == "real" for c in curves)

    @pytest.mark.parametrize("kind", ["imaginary", "real"])
    def test_every_accepted_candidate_has_the_space_kind(self, kind):
        # _curves keeps what validates, with no kind filter: a candidate's f
        # is monic of the space's degree and odd spaces draw h = 0, so
        # validation cannot change the kind; every candidate of the
        # exhaustive F_2 and F_3 spaces, and 200 seeded draws per field
        spaces = [SearchSpace(field=field_from_order(q), kind=kind) for q in (2, 3)]
        spaces += [SearchSpace(field=field_from_order(q), kind=kind, mode=RANDOM,
                               seed=500 + q, trials=200)
                   for q in (4, 5, 7, 8, 9, 16, 25, 27)]
        for space in spaces:
            accepted = 0
            for h_enc, f_enc in explore.candidate_encodings(space):
                h, f = explore._decode_candidate(space, h_enc, f_enc)
                try:
                    curve = validate_curve(space.field, h, f)
                except (WrongDegreeError, SingularModelError, GenusNotTwoError):
                    continue
                assert curve.kind == kind, (space, h, f)
                accepted += 1
            assert accepted, space


class TestBestCodes:
    def test_f2_table_is_well_ordered_with_no_certified_rows(self, f2):
        rows = best_codes(SearchSpace(field=f2), [3])
        assert rows
        assert all(not row.report.certified for row in rows)
        assert all(row.report.d_lb <= 0 for row in rows)
        keys = [row.sort_key() for row in rows]
        assert keys == sorted(keys)

    def test_multiple_radii(self, f2):
        rows = best_codes(SearchSpace(field=f2), [1, 3])
        assert {row.report.r for row in rows} == {1, 3}

    def test_csv_row_shape(self, f2):
        rows = best_codes(SearchSpace(field=f2), [3])
        record = csv_row(rows[0])
        assert record[0] == 2
        assert len(record) == 13

    def test_parallel_matches_serial(self, f2):
        space = SearchSpace(field=f2)
        serial = best_codes(space, [3], parallelism=1)
        parallel = best_codes(space, [3], parallelism=2)
        assert serial == parallel

    def test_empty_radius_list(self, f2, monkeypatch):
        validated = []
        monkeypatch.setattr(explore, "validate_curve",
                            lambda *args: validated.append(args) or validate_curve(*args))
        with pytest.raises(JacobicodeError):
            best_codes(SearchSpace(field=f2), [])
        assert validated == []

    def test_non_int_radius_is_rejected_before_counting(self, curve_e2, monkeypatch):
        rows = analyze_curve(curve_e2, [1])  # an int radius caches its report
        monkeypatch.setattr(explore, "count_points", None)
        for r_values in ([1.0], [True], [1, 2.5]):
            with pytest.raises(InvalidRError):
                analyze_curve(curve_e2, r_values)
        assert type(rows[0].report.r) is int

    def test_repeated_draws_and_radii_give_one_table(self, f2):
        # 256 candidates, 2000 draws: almost every candidate repeats
        space = SearchSpace(field=f2, mode=RANDOM, seed=1, trials=2000)
        serial = best_codes(space, [1, 2, 3, 3], parallelism=1)
        assert best_codes(space, [1, 2, 3, 3], parallelism=2) == serial
        expected = [row for curve in enumerate_curves(space)
                    for row in analyze_curve(curve, [1, 2, 3])]
        assert serial == sorted(expected, key=TableRow.sort_key)
        keys = [(row.curve.h, row.curve.f, row.report.r) for row in serial]
        assert len(keys) == len(set(keys))

    def test_worker_count_is_capped_at_cpu_count(self, f2, monkeypatch, in_process_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        space = SearchSpace(field=f2)
        capped = best_codes(space, [3], parallelism=100000)
        assert [pool.max_workers for pool in in_process_pool] == [2]
        assert capped == best_codes(space, [3], parallelism=1)

    def test_chunks_in_flight_are_bounded(self, f2, monkeypatch, in_process_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(explore, "CHUNK_SIZE", 8)
        spaces = [SearchSpace(field=f2),  # 256 candidates, 32 chunks
                  SearchSpace(field=f2, kind="real")]  # 1024 candidates, 128 chunks
        for space in spaces:
            assert best_codes(space, [3], parallelism=2) == best_codes(space, [3])
        assert [pool.peak for pool in in_process_pool] == [
            explore.CHUNKS_PER_WORKER * 2] * 2

    def test_small_space_is_split_for_every_worker(self, f2, monkeypatch,
                                                   in_process_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        exhaustive = SearchSpace(field=f2)  # 256 candidates, under CHUNK_SIZE
        drawn = SearchSpace(field=f2, mode=RANDOM, seed=1, trials=160)
        for space in (exhaustive, drawn):
            assert best_codes(space, [3], parallelism=2) == best_codes(space, [3])
        assert in_process_pool[0].sizes == [16] * 16
        assert max(in_process_pool[1].sizes) == 10  # 160 draws over 16 chunks
        assert len(in_process_pool[1].sizes) >= 2
