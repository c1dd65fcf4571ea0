"""Time a fresh import of weyltype, module by module.

    python3 scripts/import_time.py

For each weyltype module, in the order the imports start, the script prints
the median over REPEAT fresh imports of two halves, in milliseconds:

- compile: turning the module into a code object;
- exec: running that code object, less the time spent loading the weyltype
  modules it imports.

It gives both halves twice:

- source: bytecode caching off, so every import compiles the source (as
  with PYTHONDONTWRITEBYTECODE=1 or an unwritable __pycache__);
- cached: code objects held in memory as marshalled bytes, so "compile" is
  the unmarshalling that reading a .pyc file costs, without the file read.

After the import table it prints the median build time of the CLI's
argument parser, in milliseconds: `parser:all` for the parser with every
command (what `weyltype --help` or an unknown command builds), and
`parser:NAME` for the parser of the one command NAME (what each call of that
command builds once after its import).

One untimed import first loads the standard-library modules weyltype uses,
so only weyltype's own modules are counted; a fresh import drops only
weyltype's modules, as `perfbench/run.py` does.  The source comes from this
checkout's `src/`, and nothing is written there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.machinery
import marshal
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEAT = 9


class _Loader(importlib.machinery.SourceFileLoader):
    """Loads a weyltype module from source or from the in-memory cache and
    records its compile and exec times; writes no bytecode."""

    timer = None  # the _Timer of the import in progress

    def exec_module(self, module):
        self.timer.run(self, module)


class _Timer:
    def __init__(self, cached: dict | None):
        self.cached = cached  # module name -> marshalled code, or None for source
        self.times: dict[str, tuple[float, float]] = {}
        self.nested = []  # per module being executed: time spent loading its imports

    def run(self, loader, module):
        name = module.__name__
        self.times[name] = (0.0, 0.0)  # keeps the order in which imports start
        data = self.cached[name] if self.cached is not None else loader.get_data(loader.path)
        t0 = time.perf_counter()
        if self.cached is not None:
            code = marshal.loads(data)
        else:
            code = loader.source_to_code(data, loader.path)
        t1 = time.perf_counter()
        self.nested.append(0.0)
        exec(code, module.__dict__)
        t2 = time.perf_counter()
        inner = self.nested.pop()
        if self.nested:
            self.nested[-1] += t2 - t0
        self.times[name] = (t1 - t0, t2 - t1 - inner)


class _Finder:
    """Gives weyltype and its submodules a _Loader; leaves other modules alone."""

    @staticmethod
    def find_spec(name, path, target=None):
        if name != "weyltype" and not name.startswith("weyltype."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None:
            spec.loader = _Loader(name, spec.origin)
        return spec


def fresh_import(timer: _Timer) -> float:
    """Import weyltype and weyltype.cli afresh; returns the wall time."""
    for name in [m for m in sys.modules if m == "weyltype" or m.startswith("weyltype.")]:
        del sys.modules[name]
    gc.collect()
    _Loader.timer = timer
    t = time.perf_counter()
    importlib.import_module("weyltype")
    importlib.import_module("weyltype.cli")
    return time.perf_counter() - t


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.meta_path.insert(0, _Finder)

    warm = _Timer(None)
    fresh_import(warm)
    order = list(warm.times)
    cache = {}
    for name in order:
        loader = sys.modules[name].__spec__.loader
        cache[name] = marshal.dumps(loader.source_to_code(loader.get_data(loader.path), loader.path))

    results = {}
    for mode, cached in (("source", None), ("cached", cache)):
        runs = []
        for _ in range(REPEAT):
            timer = _Timer(cached)
            wall = fresh_import(timer)
            runs.append((timer.times, wall))
        results[mode] = runs

    def median(mode, name, half):
        return 1e3 * statistics.median(times[name][half] for times, _ in results[mode])

    print(f"weyltype fresh import, median of {REPEAT} (ms), Python {sys.version.split()[0]}")
    print(f"{'module':<24}{'source compile':>16}{'exec':>8}{'cached compile':>16}{'exec':>8}")
    totals = [0.0, 0.0, 0.0, 0.0]
    for name in order:
        row = [median("source", name, 0), median("source", name, 1),
               median("cached", name, 0), median("cached", name, 1)]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{name:<24}{row[0]:>16.2f}{row[1]:>8.2f}{row[2]:>16.2f}{row[3]:>8.2f}")
    print(f"{'sum':<24}{totals[0]:>16.2f}{totals[1]:>8.2f}{totals[2]:>16.2f}{totals[3]:>8.2f}")
    walls = [1e3 * statistics.median(wall for _, wall in results[mode]) for mode in ("source", "cached")]
    print(f"{'whole import (wall)':<24}{walls[0]:>24.2f}{walls[1]:>24.2f}")

    cli = sys.modules["weyltype.cli"]
    build = cli._build_argparser.__wrapped__  # the uncached builder
    print(f"CLI parser build, median of {REPEAT} (ms)")
    for command in (None, *cli._COMMANDS):
        runs = []
        for _ in range(REPEAT):
            t = time.perf_counter()
            build(command)
            runs.append(time.perf_counter() - t)
        print(f"{'parser:' + (command or 'all'):<24}{1e3 * statistics.median(runs):>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
