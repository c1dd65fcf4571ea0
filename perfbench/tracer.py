"""Per-layer tracing from outside the package.

The tracer replaces weyltype's layer entry points with wrappers.  A module
function is replaced in every weyltype module that holds it, because each
caller resolves the name in its own module (``probes.w_mul``,
``parser.w_mul``, ``operators.w_mul``, ...); a method is replaced on its
class.  A timed entry point records a span (name, parent, start, end, flag)
in memory; a counted entry point only bumps a counter, because it runs
millions of times and a span each would swamp what it measures.

Self time is a span's duration minus the durations of its child spans.  A
layer's time is the summed duration of its outermost spans, so nested calls
within one layer are not counted twice.

Closure steps are classified from the direct children of each closure-probe
span, in call order: a step call (product, derivation or bracket) is tried;
a following coordinates call that returns None means the step left the
window and was discarded; an add to the probe's own reducer (the one that
received the seed) returns whether the step was accepted or already in the
span.  Steps with no coordinates call were zero.

Every entry point in the tables must exist: install() raises
MissingEntryPoint otherwise, so that an entry point renamed or moved by a
change to weyltype fails the traced run instead of reading as zero calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, function, span name): timed module functions.
SPAN_FUNCTIONS = (
    ("weyltype.cli", "main", "cli.main"),
    ("weyltype.scenario", "load_scenario", "scenario.load"),
    ("weyltype.reports", "build_report", "reports.build"),
    ("weyltype.reports", "report_bytes", "reports.format"),
    ("weyltype.parser", "evaluate", "parser.evaluate"),
    ("weyltype.checks", "run_all_checks", "checks.run"),
    ("weyltype.operators", "w_mul", "operators.w_mul"),
    ("weyltype.operators", "lie_bracket", "operators.bracket"),
    ("weyltype.operators", "act", "operators.act"),
    ("weyltype.multiindex", "lower_set", "multiindex.lower_set"),
    ("weyltype.multiindex", "binom_product", "multiindex.binom"),
    ("weyltype.linalg", "nullspace", "linalg.nullspace"),
    ("weyltype.probes", "compute_f1", "probes.compute_f1"),
    ("weyltype.probes", "theta_kernel", "probes.theta_kernel"),
    ("weyltype.probes", "d_simplicity_probe", "probes.d_simplicity"),
    ("weyltype.probes", "assoc_ideal_closure_probe", "probes.assoc_closure"),
    ("weyltype.probes", "lie_ideal_closure_probe", "probes.lie_closure"),
    ("weyltype.probes", "a_coords", "probes.coords"),
    ("weyltype.probes", "weyl_coords", "probes.coords"),
)
# (module, class, method, span name): timed methods.
SPAN_METHODS = (
    ("weyltype.linalg", "RowReducer", "add", "linalg.add"),
    ("weyltype.linalg", "RowReducer", "contains", "linalg.contains"),
    ("weyltype.coefficients", "Context", "apply_derivation", "coefficients.derive"),
)
# (module, class or None, attribute, counter name): counted, not timed.
COUNTED = (
    ("weyltype.fields", "Scalar", "__add__", "fields.ops"),
    ("weyltype.fields", "Scalar", "__radd__", "fields.ops"),
    ("weyltype.fields", "Scalar", "__sub__", "fields.ops"),
    ("weyltype.fields", "Scalar", "__rsub__", "fields.ops"),
    ("weyltype.fields", "Scalar", "__mul__", "fields.ops"),
    ("weyltype.fields", "Scalar", "__rmul__", "fields.ops"),
    ("weyltype.fields", "Scalar", "__neg__", "fields.ops"),
    ("weyltype.fields", "Scalar", "inverse", "fields.ops"),
    ("weyltype.coefficients", "AElement", "__mul__", "coefficients.mul"),
    ("weyltype.coefficients", "AElement", "__rmul__", "coefficients.mul"),
    ("weyltype.operators", None, "apply_multi", "operators.apply_multi"),
)

# (module, class, method): the derivative-cache lookup, for its hit ratio.
DCACHE = ("weyltype.coefficients", "Context", "_monomial_derivative")
# (module, class or None, function): the runner of one check's trials.
TRIALS = ("weyltype.checks", None, "_run")

CLOSURE_PROBES = frozenset({"probes.d_simplicity", "probes.assoc_closure", "probes.lie_closure"})
STEP_CALLS = frozenset(
    {"coefficients.mul", "coefficients.derive", "operators.w_mul", "operators.bracket"}
)
STEP_KINDS = ("tried", "zero", "discarded", "in_span", "accepted")


class MissingEntryPoint(RuntimeError):
    """An entry point the tracer wraps is no longer where the tables say."""


def lookup(modname: str, cname: str | None, attr: str):
    """The owner (module or class) of an entry point and the entry point itself.

    Raises MissingEntryPoint when it is gone, so that a renamed or moved entry
    point fails the traced run instead of reading as zero calls.
    """
    where = f"{modname}.{cname}.{attr}" if cname else f"{modname}.{attr}"
    try:
        owner = importlib.import_module(modname)
    except ImportError as exc:
        raise MissingEntryPoint(f"{where}: {exc}") from exc
    if cname is not None:
        owner = vars(owner).get(cname)
    if owner is None or attr not in vars(owner):
        raise MissingEntryPoint(f"{where} is gone; update the tables in perfbench/tracer.py")
    return owner, vars(owner)[attr]


def entry_points():
    """(module, class or None, attribute) of every entry point the tracer wraps."""
    for modname, fname, _ in SPAN_FUNCTIONS:
        yield modname, None, fname
    for modname, cname, mname, _ in SPAN_METHODS:
        yield modname, cname, mname
    for modname, cname, attr, _ in COUNTED:
        yield modname, cname, attr
    yield DCACHE
    yield TRIALS


def _flag(name: str, args: tuple, result):
    """What a span must remember of its call to classify closure steps."""
    if name == "probes.coords":
        return result is not None
    if name == "linalg.add":
        return (id(args[0]), bool(result))
    return None


class Tracer:
    """Wraps the entry points while installed; spans live in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.flags: list = []
        self.stack = [-1]
        self._cells: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "weyltype" or modname.startswith("weyltype.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _set(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every entry point, or none: a missing one raises MissingEntryPoint."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for modname, fname, span in SPAN_FUNCTIONS:
            _, original = lookup(modname, None, fname)
            self._replace_everywhere(original, self._span_wrapper(span, original))
        for modname, cname, mname, span in SPAN_METHODS:
            cls, original = lookup(modname, cname, mname)
            self._set(cls, mname, self._span_wrapper(span, original))
        for modname, cname, attr, counter in COUNTED:
            owner, original = lookup(modname, cname, attr)
            wrapper = self._count_wrapper(counter, original)
            if cname is None:
                self._replace_everywhere(original, wrapper)
            else:
                self._set(owner, attr, wrapper)
        ctx_cls, derivative = lookup(*DCACHE)
        self._set(ctx_cls, DCACHE[2], self._dcache_wrapper(derivative))
        _, run = lookup(*TRIALS)
        self._replace_everywhere(run, self._trial_wrapper(run))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        for lst in (self.names, self.parents, self.starts, self.ends, self.flags):
            lst.clear()
        self.stack[:] = [-1]
        for cell in self._cells.values():
            cell[0] = 0

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        names, parents, starts, ends, flags, stack = (
            self.names, self.parents, self.starts, self.ends, self.flags, self.stack,
        )
        clock = time.perf_counter_ns
        flagged = name in ("probes.coords", "linalg.add")

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            flags.append(None)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if flagged:
                flags[sid] = _flag(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cell(self, name: str) -> list[int]:
        return self._cells.setdefault(name, [0])

    def _count_wrapper(self, name: str, fn):
        cell = self._cell(name)
        if name != "coefficients.mul":

            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper
        # A coefficient product called by a closure probe is a closure step,
        # so it gets a span there (and only there).
        span = self._span_wrapper(name, fn)
        names, stack = self.names, self.stack

        def step_wrapper(*args, **kwargs):
            cell[0] += 1
            top = stack[-1]
            if top >= 0 and names[top] in CLOSURE_PROBES:
                return span(*args, **kwargs)
            return fn(*args, **kwargs)

        step_wrapper.__wrapped__ = fn
        return step_wrapper

    def _dcache_wrapper(self, fn):
        lookups, hits = self._cell("coefficients.dcache_lookups"), self._cell("coefficients.dcache_hits")

        def wrapper(ctx, d, m):
            lookups[0] += 1
            cache = ctx._dcache
            before = len(cache)
            result = fn(ctx, d, m)
            if len(cache) == before:
                hits[0] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _trial_wrapper(self, fn):
        trials = self._cell("checks.trials")

        def wrapper(name, n, one_trial):
            def counted(k):
                trials[0] += 1
                return one_trial(k)

            return fn(name, n, counted)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Every call and closure-step count; identical inputs must repeat them."""
        out = {f"calls.{k}": v for k, v in sorted(Counter(self.names).items())}
        out.update({f"count.{k}": c[0] for k, c in sorted(self._cells.items())})
        out.update({f"steps.{k}": v for k, v in self.closure_steps().items()})
        return out

    def closure_steps(self) -> dict[str, int]:
        names, flags = self.names, self.flags
        kids: dict[int, list[int]] = {}
        for sid, parent in enumerate(self.parents):
            if parent >= 0 and names[parent] in CLOSURE_PROBES:
                kids.setdefault(parent, []).append(sid)
        steps = dict.fromkeys(STEP_KINDS, 0)
        nonzero = 0
        for children in kids.values():
            stepping = False
            reducer = None
            for sid in children:
                name = names[sid]
                if name in STEP_CALLS:
                    steps["tried"] += 1
                    stepping = True
                elif name == "probes.coords" and stepping:
                    nonzero += 1
                    if not flags[sid]:
                        steps["discarded"] += 1
                elif name == "linalg.add":
                    rid, accepted = flags[sid]
                    if reducer is None:
                        reducer = rid
                    elif stepping and rid == reducer:
                        steps["accepted" if accepted else "in_span"] += 1
        steps["zero"] = steps["tried"] - nonzero
        return steps

    def span_table(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, time (non-recursive) and self time, in ns."""
        names, parents = self.names, self.parents
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_ns = [0] * len(names)
        for sid, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += durations[sid]
        table: dict[str, dict[str, int]] = {}
        for sid, name in enumerate(names):
            row = table.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += durations[sid] - child_ns[sid]
            parent = parents[sid]
            if parent < 0 or names[parent] != name:
                row["ns"] += durations[sid]
        return table

    def layer_ns(self) -> dict[str, int]:
        """Per layer (span-name prefix): summed duration of outermost spans."""
        layers: dict[str, int] = {}
        bit: dict[str, int] = {}
        names, parents = self.names, self.parents
        ancestors = [0] * len(names)  # bitmask of layers among strict ancestors
        for sid, name in enumerate(names):
            layer = name.split(".", 1)[0]
            b = bit.setdefault(layer, 1 << len(bit))
            parent = parents[sid]
            if parent >= 0:
                ancestors[sid] = ancestors[parent] | bit[names[parent].split(".", 1)[0]]
            if not ancestors[sid] & b:
                layers[layer] = layers.get(layer, 0) + self.ends[sid] - self.starts[sid]
        return layers

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in ns."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, name in enumerate(self.names):
                fh.write(
                    f"{sid}\t{self.parents[sid]}\t{name}\t"
                    f"{self.starts[sid] - t0}\t{self.ends[sid] - t0}\n"
                )
