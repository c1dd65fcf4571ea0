"""Truncated-window structure probes.

All probes work on a finite window: per-variable exponent bounds for the
coefficient part plus a level bound for the derivation part.  Closure probes
use discard semantics: any closure step whose result leaves the window is
dropped entirely (never projected), so every element of a reported span
genuinely belongs to the corresponding ideal of the full, untruncated
algebra.  Positive certificates ("the identity was reached") are therefore
sound; completeness is sacrificed and reported honestly as a coverage
fraction.

A closure walk stops once its span holds the identity (for the probes that
look for it), once the span fills the whole window (no later step can then
be accepted, so the result is that of the exhaustive walk), or when a
breadth-first round accepts nothing.  Each walk records what it did in a
ProbeStats on its verdict: steps tried, zero, discarded, in the span and
accepted, the rank after each round and the stop reason.

assoc_closure decides most of its discards before forming any product.  A
is a polynomial or Laurent ring over a field, hence a domain, so the
principal symbol of A[D] (the top level of the order filtration) is
multiplicative.  Each generator is one term g = m*d^beta, so the top level
of both g*e and e*g is exactly m*u_alpha at alpha + beta, over the
|alpha| = lev(e) terms of e, with no cancellation.  Both products therefore
leave the window when lev(e) + |beta| exceeds max_level, or when m*mu leaves
the box for some monomial mu of a top-level u_alpha; the box is a product
of intervals, so the second test only needs, per variable, the least and
greatest exponent over those mu.  Such a step yields None for both results
and the walk counts two discards, exactly as it would for the products.
The test is not used for brackets: the top level of [e, g] cancels, and the
next one down (the Poisson bracket of the symbols) can vanish.

Probes are pure functions of (context, seed, window); independent probes can
run concurrently.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .coefficients import (
    AElement,
    Context,
    LAURENT,
    Monomial,
    ONE_MONOMIAL,
    POLYNOMIAL,
    add_terms,
    format_monomial,
    monomial_sort_key,
)
from .errors import BasisCapError, UsageError, ValidationError
from .linalg import RowReducer, nullspace
from .multiindex import MultiIndex, ZERO_INDEX
from .operators import (
    WeylElement,
    _from_buckets,
    act,
    format_weyl,
    lie_bracket,
    w_mul,
    wbasis,
)

DEFAULT_BASIS_CAP = 5000
# Largest basis_cap a window accepts: every enumerated basis stays in memory.
MAX_BASIS_CAP = 20_000
DEFAULT_MARGIN = Fraction(1, 2)

REACHES_IDENTITY = "reaches_identity"
FULL_SPAN_MOD_F1 = "full_span_mod_f1"
PROPER_INVARIANT_SUBSPACE = "proper_invariant_subspace"
KERNEL_NONZERO = "kernel_nonzero"
KERNEL_ZERO = "kernel_zero"

WINDOW_EVIDENCE_NOTE = "window-restricted evidence"

# Why a closure walk stopped (ProbeVerdict.stop; never serialized).
STOP_IDENTITY = "identity"
STOP_SATURATED = "saturated"
STOP_EXHAUSTED = "exhausted"


class Window(NamedTuple):
    """Finite truncation: exponent bounds per variable plus a level bound."""

    bounds: tuple[tuple[int, int, int], ...]  # (variable index, lo, hi)
    max_level: int
    basis_cap: int = DEFAULT_BASIS_CAP

    @staticmethod
    def for_context(
        ctx: Context,
        bounds_by_name: dict[str, tuple[int, int]],
        max_level: int,
        basis_cap: int = DEFAULT_BASIS_CAP,
    ) -> "Window":
        violations = []
        if max_level < 0:
            violations.append("max_level must be nonnegative")
        if not 1 <= basis_cap <= MAX_BASIS_CAP:
            violations.append(f"basis_cap must be in [1, {MAX_BASIS_CAP}], got {basis_cap}")
        seen = set()
        entries = []
        for name, (lo, hi) in bounds_by_name.items():
            try:
                var = ctx.variable(name)
            except UsageError:
                violations.append(f"window bounds name an unknown variable {name!r}")
                continue
            seen.add(var.index)
            if hi < 0:
                violations.append(f"upper bound for {name} must be >= 0")
            if var.kind == POLYNOMIAL and lo != 0:
                violations.append(f"polynomial variable {name} requires lower bound 0")
            if var.kind == LAURENT and lo > 0:
                violations.append(f"laurent variable {name} requires lower bound <= 0")
            if lo > hi:
                violations.append(f"empty bound range for {name}")
            entries.append((var.index, lo, hi))
        for var in ctx.variables:
            if var.declared and var.index not in seen:
                violations.append(f"window gives no bounds for variable {var.name}")
        if violations:
            raise ValidationError(violations)
        entries.sort()
        return Window(bounds=tuple(entries), max_level=max_level, basis_cap=basis_cap)

    def bound_for(self, index: int) -> tuple[int, int]:
        for i, lo, hi in self.bounds:
            if i == index:
                return lo, hi
        return (0, 0)  # variables created after the window was built

    def guard(self, ctx: Context) -> tuple[int, frozenset]:
        """The (max_level, monomials) guard under which lie_bracket is None for
        a bracket that leaves the window; it agrees with weyl_coords over
        ad_basis, so a variable created after the window falls outside."""
        return self.max_level, frozenset(self.a_basis(ctx))

    def a_basis_size(self) -> int:
        n = 1
        for _, lo, hi in self.bounds:
            n *= hi - lo + 1
        return n

    def a_basis(self, ctx: Context) -> list[Monomial]:
        """Window coefficient monomials, ascending in the graded print order."""
        if self.a_basis_size() > self.basis_cap:
            raise BasisCapError(
                f"window coefficient basis has {self.a_basis_size()} elements, cap {self.basis_cap}"
            )
        idxs = [i for i, _, _ in self.bounds]
        ranges = [range(lo, hi + 1) for _, lo, hi in self.bounds]
        out = [
            Monomial.make(dict(zip(idxs, choice)))
            for choice in itertools.product(*ranges)
        ]
        out.sort(key=monomial_sort_key)
        return out

    def multi_indices(self, ctx: Context) -> list[MultiIndex]:
        """All derivation multi-indices up to the level bound, ascending; their
        count is checked against the cap before any is listed."""
        n = len(ctx.derivations)
        count = math.comb(self.max_level + n, n)
        if count > self.basis_cap:
            raise BasisCapError(f"window has {count} derivation multi-indices, cap {self.basis_cap}")
        out = []
        for total in range(self.max_level + 1):
            for combo in _compositions(total, n):
                out.append(MultiIndex.make(dict(enumerate(combo))))
        return out

    def ad_basis(self, ctx: Context) -> list[tuple[MultiIndex, Monomial]]:
        multis = self.multi_indices(ctx)
        a_count = self.a_basis_size()
        if a_count * len(multis) > self.basis_cap:
            raise BasisCapError(
                f"window operator basis has {a_count * len(multis)} elements, cap {self.basis_cap}"
            )
        mons = self.a_basis(ctx)
        return [(alpha, m) for alpha in multis for m in mons]

    def interior(self, margin: Fraction) -> "Window":
        """Shrink every bound by the margin fraction, truncating toward zero."""
        if not (0 <= margin < 1):
            raise UsageError("margin must satisfy 0 <= margin < 1")
        keep = 1 - margin
        shrink = lambda b: int(b * keep)
        return self._replace(
            bounds=tuple((i, shrink(lo), shrink(hi)) for i, lo, hi in self.bounds),
            max_level=shrink(self.max_level),
        )


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class SubspaceBasis:
    """Row-reduced basis of a subspace over an enumerated window basis."""

    def __init__(self, labels: list, reducer: RowReducer):
        self.labels = list(labels)
        self.reducer = reducer
        self.index = {label: j for j, label in enumerate(self.labels)}

    @staticmethod
    def from_vectors(labels: list, vectors, spec) -> "SubspaceBasis":
        red = RowReducer(spec)
        for vec in vectors:
            red.add(vec)
        return SubspaceBasis(labels, red)

    @property
    def dim(self) -> int:
        return self.reducer.rank

    def vectors(self) -> list[dict]:
        return self.reducer.vectors()

    def contains(self, vec: dict) -> bool:
        return self.reducer.contains(vec)


def _a_element(ctx: Context, m: Monomial) -> AElement:
    return AElement(ctx, {m: 1})


def a_coords(u: AElement, index: dict[Monomial, int]) -> dict | None:
    """Coordinates over the window basis, or None if any monomial leaves it."""
    vec = {}
    for m, c in u.terms.items():
        col = index.get(m)
        if col is None:
            return None
        vec[col] = c
    return vec


def a_from_coords(ctx: Context, labels: list[Monomial], vec: dict) -> AElement:
    return AElement(ctx, {labels[j]: c for j, c in vec.items()})


def weyl_coords(x: WeylElement, index: dict) -> dict | None:
    vec = {}
    for alpha, u in x.terms.items():
        for m, c in u.terms.items():
            col = index.get((alpha, m))
            if col is None:
                return None
            vec[col] = c
    return vec


def weyl_from_coords(ctx: Context, labels: list, vec: dict) -> WeylElement:
    buckets: dict[MultiIndex, dict] = {}
    for j, c in vec.items():
        alpha, m = labels[j]
        buckets.setdefault(alpha, {})[m] = c
    return _from_buckets(ctx, buckets)


class ClosureStep(NamedTuple):
    """One accepted closure step, kept so tests can replay it untruncated."""

    op: str
    generator: str
    parent: int  # index into the accepted list; -1 means the seed
    element: object


class ProbeStats:
    """What one closure walk did; reports never serialize it.

    Every step result is counted once as tried and then as exactly one of
    zero, discarded (it left the window), in_span or accepted.  `ranks` holds
    the span's rank after seeding and after each breadth-first round, the
    last entry taken where the walk stopped.
    """

    def __init__(self, ranks: list | None = None, stop: str = ""):
        self.tried = self.zero = self.discarded = self.in_span = self.accepted = 0
        self.ranks = [] if ranks is None else ranks
        self.stop = stop


class ProbeVerdict:
    def __init__(self, kind: str, coverage: Fraction, witness: list, unreached: list | None = None,
                 note: str = "", steps: list | None = None, stats: ProbeStats | None = None):
        self.kind = kind
        self.coverage = coverage
        self.witness = witness
        self.unreached = [] if unreached is None else unreached
        self.note = note
        self.steps = [] if steps is None else steps
        self.stats = stats  # closures only
        self.stop = stats.stop if stats is not None else ""  # "" for any other probe


# -- joint kernel of the derivations -----------------------------------------


def compute_f1(ctx: Context, window: Window) -> SubspaceBasis:
    """Exact joint kernel of all derivations on the window coefficient basis.

    Images are computed exactly in the full algebra, so membership in the
    result is a genuine statement about the untruncated algebra.
    """
    labels = window.a_basis(ctx)
    rows: dict[tuple[int, Monomial], dict] = {}
    for d_idx, d in enumerate(ctx.derivations):
        for j, m in enumerate(labels):
            img = ctx.apply_derivation(d, _a_element(ctx, m))
            for rm, c in img.terms.items():
                rows.setdefault((d_idx, rm), {})[j] = c
    ordered = [rows[k] for k in sorted(rows, key=lambda t: (t[0], monomial_sort_key(t[1])))]
    kernel = nullspace(ordered, len(labels), ctx.spec)
    return SubspaceBasis.from_vectors(labels, kernel, ctx.spec)


# -- faithfulness -------------------------------------------------------------


def _outside_products(ctx: Context, window: Window, box: set):
    """Products of at most max_level generators (the variables, and the
    inverses of the Laurent ones) that lie outside the window box, each once."""
    gens = []
    for i, _, _ in window.bounds:
        gens.append((i, 1))
        if ctx.variables[i].kind == LAURENT:
            gens.append((i, -1))
    for k in range(1, window.max_level + 1):
        for combo in itertools.combinations_with_replacement(gens, k):
            exps: dict[int, int] = {}
            for i, e in combo:
                exps[i] = exps.get(i, 0) + e
            m = Monomial.make(exps)
            # A combination holding both x and 1/x is a shorter product, met before.
            if m.degree() == k and m not in box:
                yield m


def theta_kernel(
    ctx: Context,
    window: Window,
    restrict_to_f1: bool = False,
    f1: SubspaceBasis | None = None,
) -> ProbeVerdict:
    """Kernel of the action map on the window operators.

    Columns are the window operator basis (or, in the restricted variant,
    kernel-coefficient multiples of the derivation monomials).  The
    constraint rows say that a column combination kills every window
    coefficient monomial and then every product of at most max_level
    generators (the variables, and the inverses of the Laurent ones) that
    lies outside the window box.  An operator W of level <= L kills all of A
    iff it kills every product of at most L generators, since
    W(g*f) = g*W(f) + [W, g](f) and bracketing with a coefficient lowers the
    level (Grothendieck's inductive definition of differential operators).
    The action is evaluated exactly, so a kernel element is a nonzero window
    operator acting as zero on all of A.  A shift derivation has infinitely
    many generators and gives no finite row set, so there kernel_nonzero
    carries the window-restricted note; an empty kernel is evidence
    restricted to the window and is always labeled so.

    Constraint rows are produced lazily, one monomial at a time, and row
    reduction stops as soon as they reach full column rank: a full-rank
    constraint matrix has kernel {0}, and adding rows cannot enlarge a
    kernel, so the monomials after that point cannot change the verdict and
    are never acted on.  A nonzero kernel consumes every row, so its
    witnesses are those of the full matrix.
    """
    a_labels = window.a_basis(ctx)
    multis = window.multi_indices(ctx)
    columns: list[WeylElement] = []
    if restrict_to_f1:
        base = f1 if f1 is not None else compute_f1(ctx, window)
        coeffs = [a_from_coords(ctx, base.labels, vec) for vec in base.vectors()]
        for alpha in multis:
            for u in coeffs:
                columns.append(WeylElement(ctx, {alpha: u}))
    else:
        for alpha in multis:
            for m in a_labels:
                columns.append(wbasis(ctx, alpha, _a_element(ctx, m)))
    if len(columns) > window.basis_cap:
        raise BasisCapError(f"{len(columns)} operator basis elements, cap {window.basis_cap}")

    def constraint_rows():
        for am in itertools.chain(a_labels, _outside_products(ctx, window, set(a_labels))):
            elem = _a_element(ctx, am)
            block: dict[Monomial, dict] = {}
            for col, b in enumerate(columns):
                for rm, c in act(b, elem).terms.items():
                    block.setdefault(rm, {})[col] = c
            for rm in sorted(block, key=monomial_sort_key):
                yield block[rm]

    kernel = nullspace(constraint_rows(), len(columns), ctx.spec)
    ncols = len(columns)
    coverage = Fraction(ncols - len(kernel), ncols) if ncols else Fraction(1)
    if kernel:
        witness = []
        for vec in kernel:
            buckets: dict[MultiIndex, dict] = {}
            for j, c in vec.items():
                (alpha, u), = columns[j].terms.items()
                add_terms(buckets.setdefault(alpha, {}), u.terms, ctx.spec.p, c)
            witness.append(_from_buckets(ctx, buckets))
        shift = any(d.shift_prefix is not None for d in ctx.derivations)
        note = WINDOW_EVIDENCE_NOTE if shift else ""
        return ProbeVerdict(kind=KERNEL_NONZERO, coverage=coverage, witness=witness, note=note)
    return ProbeVerdict(kind=KERNEL_ZERO, coverage=coverage, witness=[], note=WINDOW_EVIDENCE_NOTE)


# -- ideal-closure probes ------------------------------------------------------


def _closure(ctx: Context, seed, labels: list, coords, expand, stop=None, central=None):
    """Breadth-first closure of the seed inside a window, with discard semantics.

    `labels` enumerate the window basis and `coords(z, index)` gives an
    element's coordinates over it, or None when the element leaves the window.
    `expand(elem)` yields the `(op, generator name, result)` of every closure
    step from one accepted element, in a fixed order; a result of None says
    the step left the window.
    Results that are zero or leave the window are dropped, never projected.
    A seed lying in `central` (a SubspaceBasis) is refused.

    The walk stops for one of three reasons, checked in this order after
    seeding and after each accepted step:
    - "identity": the `stop` label entered the span;
    - "saturated": the span holds every label, so no later step can be
      accepted, and the accepted steps and the span are those of the
      exhaustive walk;
    - "exhausted": a round accepted nothing.
    A full span holds the `stop` label, so a probe with one never saturates.

    Returns the reducer holding the span, the label index, the accepted
    steps and the walk's ProbeStats.
    """
    if seed.is_zero():
        raise UsageError("seed must be nonzero")
    index = {lab: j for j, lab in enumerate(labels)}
    seed_vec = coords(seed, index)
    if seed_vec is None:
        raise UsageError("seed does not fit inside the window")
    if central is not None and seed.is_a_only():
        avec = a_coords(seed.a_part(), central.index)
        if avec is not None and central.contains(avec):
            raise UsageError("seed is central (inside the derivation kernel)")

    red = RowReducer(ctx.spec)
    red.add(seed_vec)
    accepted = [seed]
    steps: list[ClosureStep] = []
    stats = ProbeStats(ranks=[red.rank])

    def done(reason: str):
        if stats.ranks[-1] != red.rank:
            stats.ranks.append(red.rank)
        stats.stop = reason
        return red, index, steps, stats

    stop_vec = None if stop is None else {index[stop]: 1}
    if stop_vec is not None and red.contains(stop_vec):
        return done(STOP_IDENTITY)
    if red.rank == len(labels):
        return done(STOP_SATURATED)
    frontier = [0]
    while frontier:
        next_frontier = []
        for pi in frontier:
            for op, gname, z in expand(accepted[pi]):
                stats.tried += 1
                if z is not None and z.is_zero():
                    stats.zero += 1
                    continue
                vec = None if z is None else coords(z, index)
                if vec is None:
                    stats.discarded += 1  # the step left the window
                    continue
                if not red.add(vec):
                    stats.in_span += 1
                    continue
                stats.accepted += 1
                accepted.append(z)
                steps.append(ClosureStep(op, gname, pi, z))
                next_frontier.append(len(accepted) - 1)
                if stop_vec is not None and red.contains(stop_vec):
                    return done(STOP_IDENTITY)
                if red.rank == len(labels):
                    return done(STOP_SATURATED)
        frontier = next_frontier
        stats.ranks.append(red.rank)
    return done(STOP_EXHAUSTED)


def d_simplicity_probe(ctx: Context, seed: AElement, window: Window) -> ProbeVerdict:
    """Closure of the seed under window-monomial multiplication and all
    derivations, with discard semantics.

    Reaching the identity certifies that the derivation-stable ideal
    generated by the seed is the whole coefficient algebra.
    """
    labels = window.a_basis(ctx)
    gens = [(format_monomial(ctx, m), _a_element(ctx, m)) for m in labels if not m.is_one()]

    def expand(e):
        for name, g in gens:
            yield "mul", name, e * g
        for d in ctx.derivations:
            yield "derive", d.name, ctx.apply_derivation(d, e)

    red, _, steps, stats = _closure(ctx, seed, labels, a_coords, expand, stop=ONE_MONOMIAL)
    return ProbeVerdict(
        kind=REACHES_IDENTITY if stats.stop == STOP_IDENTITY else PROPER_INVARIANT_SUBSPACE,
        coverage=Fraction(red.rank, len(labels)),
        witness=[a_from_coords(ctx, labels, vec) for vec in red.vectors()],
        steps=steps,
        stats=stats,
    )


def _window_generators(ctx: Context, window: Window) -> list[tuple[str, WeylElement]]:
    out = []
    for alpha, m in window.ad_basis(ctx):
        if alpha.is_zero() and m.is_one():
            continue
        g = wbasis(ctx, alpha, _a_element(ctx, m))
        out.append((format_weyl(g), g))
    return out


def _symbol_room(e: WeylElement, window: Window) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The room max_level - lev(e) for |beta|, and per window variable the
    interval [lo - min, hi - max] for m's exponent, with min and max taken
    over the monomials of e's top-level coefficients."""
    lev = max(alpha.level() for alpha in e.terms)
    tops = [m for alpha, u in e.terms.items() if alpha.level() == lev for m in u.terms]
    room = []
    for i, lo, hi in window.bounds:
        exps = [m.exponent(i) for m in tops]
        room.append((lo - min(exps), hi - max(exps)))
    return window.max_level - lev, tuple(room)


def _generator_shift(g: WeylElement, window: Window) -> tuple[int, tuple[int, ...]]:
    """|beta| and the window-variable exponents of m, for g = m*d^beta."""
    (beta, u), = g.terms.items()
    m, = u.terms
    return beta.level(), tuple(m.exponent(i) for i, _, _ in window.bounds)


def _symbol_leaves(room: tuple, shift: tuple) -> bool:
    """Whether both products leave the window (see the module docstring)."""
    level_room, intervals = room
    level, exps = shift
    if level > level_room:
        return True
    for x, (lo, hi) in zip(exps, intervals):
        if not lo <= x <= hi:
            return True
    return False


def assoc_ideal_closure_probe(ctx: Context, seed: WeylElement, window: Window) -> ProbeVerdict:
    """Two-sided multiplicative closure of the seed, with discard semantics.

    Reaching the identity certifies that the two-sided ideal generated by
    the seed is the whole operator algebra.  A step whose products the
    principal symbol shows to leave the window forms neither of them.
    """
    labels = window.ad_basis(ctx)
    gens = [(name, g, _generator_shift(g, window)) for name, g in _window_generators(ctx, window)]

    def expand(e):
        room = _symbol_room(e, window)
        for name, g, shift in gens:
            lmul = rmul = None
            if not _symbol_leaves(room, shift):
                # Both products are formed before either is looked at: on a
                # shift family a product registers variables.
                lmul, rmul = w_mul(g, e), w_mul(e, g)
            yield "lmul", name, lmul
            yield "rmul", name, rmul

    stop = (ZERO_INDEX, ONE_MONOMIAL)
    red, _, steps, stats = _closure(ctx, seed, labels, weyl_coords, expand, stop=stop)
    return ProbeVerdict(
        kind=REACHES_IDENTITY if stats.stop == STOP_IDENTITY else PROPER_INVARIANT_SUBSPACE,
        coverage=Fraction(red.rank, len(labels)),
        witness=[weyl_from_coords(ctx, labels, vec) for vec in red.vectors()],
        steps=steps,
        stats=stats,
    )


def lie_ideal_closure_probe(
    ctx: Context,
    seed: WeylElement,
    window: Window,
    f1: SubspaceBasis,
    margin: Fraction = DEFAULT_MARGIN,
) -> ProbeVerdict:
    """Bracket closure of the seed, judged modulo the central kernel on an
    interior sub-window.

    The interior margin compensates for boundary loss from discarding;
    the verdict is positive only if every interior basis monomial lies in
    the closure span plus the central kernel.  A sub-window whose targets all
    lie in the kernel would make that verdict vacuous, so it is refused.
    """
    inner = window.interior(margin)
    targets = inner.ad_basis(ctx)
    # A target above level 0 is never in f1, so only a level-0 interior can be vacuous.
    if inner.max_level == 0 and all(
        m in f1.index and f1.contains({f1.index[m]: 1}) for _, m in targets
    ):
        raise UsageError("interior sub-window holds no target outside the derivation kernel")
    labels = window.ad_basis(ctx)
    guard = window.guard(ctx)
    gens = _window_generators(ctx, window)

    def expand(e):
        for name, g in gens:
            yield "bracket", name, lie_bracket(e, g, guard)

    red, index, steps, stats = _closure(ctx, seed, labels, weyl_coords, expand, central=f1)

    # A fresh reducer, so that the closure's own one never holds the f1 rows.
    combined = RowReducer(ctx.spec)
    for vec in red.vectors():
        combined.add(vec)
    for vec in f1.vectors():
        embedded = {}
        for j, c in vec.items():
            col = index.get((ZERO_INDEX, f1.labels[j]))
            if col is None:
                raise UsageError("kernel basis was computed on a different window")
            embedded[col] = c
        combined.add(embedded)

    unreached = []
    hit = 0
    for alpha, m in targets:
        vec = {index[(alpha, m)]: 1}
        if combined.contains(vec):
            hit += 1
        else:
            unreached.append(format_weyl(wbasis(ctx, alpha, _a_element(ctx, m))))
    coverage = Fraction(hit, len(targets))  # the refusal above leaves targets nonempty
    witness = [weyl_from_coords(ctx, labels, vec) for vec in red.vectors()]
    kind = FULL_SPAN_MOD_F1 if hit == len(targets) else PROPER_INVARIANT_SUBSPACE
    return ProbeVerdict(
        kind=kind, coverage=coverage, witness=witness, unreached=unreached, steps=steps, stats=stats
    )
