"""The benchmark tracer's tables against the package.

perfbench/tracer.py wraps weyltype's layer entry points by module, class and
name, and a traced run fails when one of them is gone.  This test loads the
tracer read only, so that renaming or moving an entry point fails here too,
not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("weyltype_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracer = load_tracer()
    targets = list(tracer.entry_points())
    assert len(targets) > 20
    for target in targets:
        _, fn = tracer.lookup(*target)  # raises MissingEntryPoint when gone
        assert callable(fn), target


def test_derivative_cache_reads_as_the_tracer_counts_it():
    # The tracer counts a derivative-cache call that adds no entry to
    # ctx._dcache as a hit, so a miss must add exactly one entry.
    from weyltype import RATIONAL, Context

    tracer = load_tracer()
    _, derivative = tracer.lookup(*tracer.DCACHE)
    ctx = Context(RATIONAL)
    ctx.add_variable("t")
    d = ctx.add_derivation("d1", images={"t": ctx.one()})
    ctx.freeze()
    assert isinstance(ctx._dcache, dict)
    m = ctx.var("t", 3).single_term()[0]
    before = len(ctx._dcache)
    derivative(ctx, d, m)
    assert len(ctx._dcache) == before + 1
    derivative(ctx, d, m)
    assert len(ctx._dcache) == before + 1
