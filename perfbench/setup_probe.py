"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py 16 25

imports jacobicode from the checkout's ``src``, then builds F_q and
F_{q^2} for every q given, with every lazy table the workload's timed
region would otherwise fill (operation tables, square or trace tables,
the embedding table), and prints {"import_s": ..., "tables_s": ...}.
run.py runs it several times per benchmark run and reports the median
as ``setup_s``; a CLI user pays this cost on every invocation.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def build_fields(qs) -> None:
    from jacobicode import fields

    for q in qs:
        base = fields.field_from_order(q)
        # the same cached embedding curves.count_points uses for k = 2
        emb = fields.extend_field(base, 2, allow_large=True)
        for field in (base, emb.ext):
            field.mul(0, 0)  # installs the operation tables
            if field.p == 2:
                field.trace_bit(0)
            else:
                field.nonzero_squares
        emb(0)


def main() -> None:
    qs = [int(arg) for arg in sys.argv[1:]]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import jacobicode
    t1 = time.perf_counter()
    build_fields(qs)
    t2 = time.perf_counter()
    if not os.path.abspath(jacobicode.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: jacobicode imported from {jacobicode.__file__}, not {SRC}")
    import json
    print(json.dumps({"import_s": t1 - t0, "tables_s": t2 - t1}))


if __name__ == "__main__":
    main()
