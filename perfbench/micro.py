"""Micro timings for the scalar field and for one RREF insert.

These are per-layer numbers only: each times one operation in a tight loop,
which no user runs, so they explain end-to-end changes but are not one.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REPEATS = 5
FIELD_OPS = 20000
PRIME = 10007
# A sparse RREF fill: more rows than columns, so the later inserts are mostly
# redundant, as in the action-kernel probe.
RREF_COLS = 32
RREF_ROWS = 48


def _per_op_ns(fn, n: int) -> float:
    """Median over repeats of the time per operation, in ns."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


def field_timings(fields) -> dict[str, float]:
    out = {}
    for tag, spec, a, b in (
        ("q", fields.RATIONAL, Fraction(7, 3), Fraction(-5, 11)),
        ("fp", fields.FieldSpec("prime", PRIME), 1234, 5678),
    ):
        x, y = spec.scalar(a), spec.scalar(b)
        rng = range(FIELD_OPS)

        def add():
            for _ in rng:
                x + y

        def mul():
            for _ in rng:
                x * y

        def inv():
            for _ in rng:
                y.inverse()

        out[f"fields.{tag}_add_ns"] = _per_op_ns(add, FIELD_OPS)
        out[f"fields.{tag}_mul_ns"] = _per_op_ns(mul, FIELD_OPS)
        out[f"fields.{tag}_inv_ns"] = _per_op_ns(inv, FIELD_OPS)
    return out


def rref_add_us(fields, linalg, seed: int) -> float:
    """Median time per RowReducer.add over Q on seeded sparse rows, in us."""
    rng = random.Random(seed)
    spec = fields.RATIONAL
    rows = []
    for _ in range(RREF_ROWS):
        cols = rng.sample(range(RREF_COLS), 4)
        rows.append({c: spec.scalar(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))) for c in cols})

    def fill():
        red = linalg.RowReducer(spec)
        for row in rows:
            red.add(row)

    return _per_op_ns(fill, RREF_ROWS) / 1000.0
