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
