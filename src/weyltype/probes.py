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
ProbeStats on its verdict: steps tried, zero, discarded, in the span,
accepted and skipped, the rank after each round and the stop reason.

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

Every closure walk (_closure) skips the steps that the graded pieces of its
window cannot take.  For lie_closure and assoc_closure, every context grades
A[D] by the coarsest exponent grading its derivations respect (Context.grading):
each term of an image d_j(x_i) gives a candidate shift, its exponent vector
minus e_i, and l is an integer basis of the functionals that vanish on the
differences between the candidate shifts of each single derivation.  Then
m*d^alpha has degree l(m) + sum alpha_j*l(delta_j), products and brackets of
homogeneous operators are homogeneous of the summed degree, and the window
labels fall into graded pieces (Window.pieces).  When l is empty, as for a
shift rule, the window is one piece, which skips no step that the saturation
stop would not.  Each generator g is one term, so g*e, e*g and [e, g] lie in
the pieces at the degrees of e plus that of g. When each of those pieces is
empty (it holds no window label), the step is zero or leaves the window.
When the seed is homogeneous, so is every accepted element, the span is the
sum of its graded parts, and a piece whose rank equals its size already
spans every step landing in it.  Either way the step could only end in zero,
a discard or the span, none of which changes the walk, so it is not formed:
it counts as tried and skipped (both products of an assoc_closure generator,
as two steps), and the accepted steps, span and stop are those of the walk
that forms it.  The saturation stop is the case in which every piece is
full.  With an inhomogeneous seed only the empty pieces are skipped.  The
symbol test runs on every generator that is formed.  The skip runs on
integer piece ids (closure_tables): a walk reads an element's pieces from
the columns of its coordinates and computes no degree, and the plans of
which generators can land where are shared by every walk on the same tables.
d_simplicity walks A on one piece holding every label, which has room until
the span holds the identity, so that walk skips nothing.

Probes are pure functions of (context, seed, window); independent probes can
run concurrently.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
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
    memo_product,
    mul_terms,
    nonzero,
)
from .errors import BasisCapError, UsageError, ValidationError
from .linalg import RowReducer, kernel_reducer, nullspace
from .multiindex import MultiIndex, ZERO_INDEX
from .operators import (
    WeylElement,
    _from_buckets,
    _partial,
    format_multi_index,
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
        # A variable a shift rule registered stays at exponent 0 (bound_for).
        unbounded = {var.name: var for var in ctx.variables if var.declared}
        entries = []
        for name, (lo, hi) in bounds_by_name.items():
            var = unbounded.pop(name, None)
            if var is None:
                violations.append(f"window bounds name an unknown variable {name!r}")
                continue
            if hi < 0:
                violations.append(f"upper bound for {name} must be >= 0")
            if var.kind == POLYNOMIAL and lo != 0:
                violations.append(f"polynomial variable {name} requires lower bound 0")
            if var.kind == LAURENT and lo > 0:
                violations.append(f"laurent variable {name} requires lower bound <= 0")
            if lo > hi:
                violations.append(f"empty bound range for {name}")
            entries.append((var.index, lo, hi))
        for name in unbounded:
            violations.append(f"window gives no bounds for variable {name}")
        if violations:
            raise ValidationError(violations)
        entries.sort()
        return Window(bounds=tuple(entries), max_level=max_level, basis_cap=basis_cap)

    def bound_for(self, index: int) -> tuple[int, int]:
        for i, lo, hi in self.bounds:
            if i == index:
                return lo, hi
        return (0, 0)  # variables created after the window was built

    def guard(self, ctx: Context, mons: list | None = None) -> tuple[int, frozenset]:
        """The (max_level, monomials) guard under which lie_bracket is None for
        a bracket that leaves the window; it agrees with weyl_coords over
        ad_basis, so a variable created after the window falls outside."""
        return self.max_level, frozenset(self.a_basis(ctx) if mons is None else mons)

    def a_basis_size(self) -> int:
        return math.prod(hi - lo + 1 for _, lo, hi in self.bounds)

    def _check_cap(self, count: int, what: str) -> None:
        """Refuse to enumerate more than basis_cap elements of one basis."""
        if count > self.basis_cap:
            raise BasisCapError(f"window has {count} {what}, cap {self.basis_cap}")

    def a_basis(self, ctx: Context) -> list[Monomial]:
        """Window coefficient monomials, ascending in the graded print order."""
        self._check_cap(self.a_basis_size(), "coefficient monomials")
        # The bounds ascend by variable index, so each exps tuple is sorted,
        # and (degree, exps) is monomial_sort_key.
        ranges = [[((i, e),) if e else () for e in range(lo, hi + 1)] for i, lo, hi in self.bounds]
        keyed = [(sum(abs(e) for _, e in exps), exps)
                 for exps in (sum(choice, ()) for choice in itertools.product(*ranges))]
        return [Monomial(exps) for _, exps in sorted(keyed)]

    def multi_indices(self, ctx: Context) -> list[MultiIndex]:
        """All derivation multi-indices up to the level bound, ascending; their
        count is checked against the cap before any is listed."""
        n = len(ctx.derivations)
        self._check_cap(math.comb(self.max_level + n, n), "derivation multi-indices")
        return [MultiIndex.make(dict(enumerate(combo)))
                for total in range(self.max_level + 1) for combo in _compositions(total, n)]

    def ad_basis(self, ctx: Context, mons: list | None = None) -> list[tuple[MultiIndex, Monomial]]:
        multis = self.multi_indices(ctx)
        self._check_cap(self.a_basis_size() * len(multis), "operator basis elements")
        mons = self.a_basis(ctx) if mons is None else mons
        return [(alpha, m) for alpha in multis for m in mons]

    def pieces(self, ctx: Context, labels: list | None = None) -> tuple[list, dict]:
        """The graded pieces of the ad_basis `labels`: the piece id of each
        label and {degree (Context.degree): piece id}, ids counting up in
        order of first label."""
        labels = self.ad_basis(ctx) if labels is None else labels
        ids: dict = {}
        return [ids.setdefault(ctx.degree(alpha, m), len(ids)) for alpha, m in labels], ids

    def interior(self, margin: Fraction) -> "Window":
        """Shrink every bound by the margin fraction, truncating toward zero."""
        keep = 1 - _check_margin(margin)
        shrink = lambda b: int(b * keep)
        return self._replace(
            bounds=tuple((i, shrink(lo), shrink(hi)) for i, lo, hi in self.bounds),
            max_level=shrink(self.max_level),
        )


def _check_margin(margin: Fraction) -> Fraction:
    """The margin itself; UsageError unless 0 <= margin < 1."""
    if not (0 <= margin < 1):
        raise UsageError("margin must satisfy 0 <= margin < 1")
    return margin


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
    parent: int  # index into [seed, *steps]; -1 for the seed's own entry in _closure
    element: object
    pieces: frozenset = frozenset()  # the element's piece ids in its walk's ClosureTables


class ProbeStats:
    """What one closure walk did; reports never serialize it.

    Every step is counted once as tried and then as exactly one of zero,
    discarded (it left the window), in_span, accepted or skipped.  A skipped
    step is one the graded skip did not form (see the module docstring);
    each skipped assoc_closure generator counts two, and d_simplicity skips
    none.  `ranks` holds the span's rank after seeding and after each
    breadth-first round, the last entry taken where the walk stopped.
    """

    def __init__(self, ranks: list | None = None, stop: str = ""):
        self.tried = self.zero = self.discarded = self.in_span = self.accepted = self.skipped = 0
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
    for d in ctx.derivations:
        for j, m in enumerate(labels):
            for rm, c in ctx._monomial_derivative(d, m).items():
                rows.setdefault((d.index, rm), {})[j] = c
    return SubspaceBasis(labels, kernel_reducer(rows.values(), len(labels), ctx.spec))


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


def _action_block(ctx: Context, multis: list, coeffs: list, a: AElement) -> dict:
    """{row monomial: {j: value}} of column j = coeffs[j % n]*d^multis[j // n]
    acting on a, n = len(coeffs).

    A coefficient is a term dict or a Monomial u standing for {u: 1}, whose
    column holds c at u*m for each term c*m of d^alpha(a): the u*m are
    distinct and d^alpha(a) holds no zero, so no sum is formed."""
    p, products, n = ctx.spec.p, ctx._products, len(coeffs)
    block = {}
    for k, alpha in enumerate(multis):
        dv = _partial(ctx, alpha, a)
        if not dv:
            continue
        for j, u in enumerate(coeffs, k * n):
            if u.__class__ is Monomial:
                for m, c in dv.items():
                    rm = products.get((u, m)) or memo_product(products, u, m)
                    block.setdefault(rm, {})[j] = c
                continue
            out = {}
            mul_terms(out, u, dv, products, p)
            for rm, c in nonzero(out).items():
                block.setdefault(rm, {})[j] = c
    return block


def theta_kernel(ctx: Context, window: Window, restrict_to_f1: bool = False,
                 f1: SubspaceBasis | None = None) -> ProbeVerdict:
    """Kernel of the action map on the window operators.

    Columns are the window operator basis (or, in the restricted variant,
    kernel-coefficient multiples of the derivation monomials); the labels of
    `f1`, the window's compute_f1, built when not given, are its a_basis.  The
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

    Constraint rows are produced lazily, one monomial at a time, unsorted,
    and row reduction stops as soon as they reach full column rank: a
    full-rank constraint matrix has kernel {0}, and adding rows cannot
    enlarge a kernel, so the monomials after that point cannot change the
    verdict and are never acted on.  A nonzero kernel consumes every row,
    so its witnesses are those of the full matrix.
    """
    if f1 is None and restrict_to_f1:
        f1 = compute_f1(ctx, window)
    a_labels = window.a_basis(ctx) if f1 is None else f1.labels
    multis = window.multi_indices(ctx)
    coeffs = ([{a_labels[j]: c for j, c in vec.items()} for vec in f1.vectors()]
              if restrict_to_f1 else a_labels)
    n = len(coeffs)
    ncols = n * len(multis)
    window._check_cap(ncols, "operator basis elements")

    def constraint_rows():
        for am in itertools.chain(a_labels, _outside_products(ctx, window, set(a_labels))):
            yield from _action_block(ctx, multis, coeffs, _a_element(ctx, am)).values()

    kernel = nullspace(constraint_rows(), ncols, ctx.spec)
    coverage = Fraction(ncols - len(kernel), ncols) if ncols else Fraction(1)
    if kernel:
        terms = coeffs if restrict_to_f1 else [{m: 1} for m in coeffs]
        witness = []
        for vec in kernel:
            buckets: dict[MultiIndex, dict] = {}
            for j, c in vec.items():
                add_terms(buckets.setdefault(multis[j // n], {}), terms[j % n], ctx.spec.p, c)
            witness.append(_from_buckets(ctx, buckets))
        shift = any(d.shift_prefix is not None for d in ctx.derivations)
        note = WINDOW_EVIDENCE_NOTE if shift else ""
        return ProbeVerdict(kind=KERNEL_NONZERO, coverage=coverage, witness=witness, note=note)
    return ProbeVerdict(kind=KERNEL_ZERO, coverage=coverage, witness=[], note=WINDOW_EVIDENCE_NOTE)


# -- ideal-closure probes ------------------------------------------------------


def _closure(ctx: Context, seed, tables: ClosureTables, coords, form, width: int, stop=None,
             central=None):
    """Breadth-first closure of the seed inside a window, with discard
    semantics and the graded skip (see the module docstring).

    `tables.index` maps each label of the window basis to its column and
    `coords(z, index)` gives an element's coordinates over that basis, or
    None when the element leaves the window.  `form(e)` gives the function
    that forms, from e, the `width` steps `(op, generator name, result)` of
    the generator at a position; a result of None says the step left the
    window.  Results that are zero or leave the window are dropped, never
    projected.  A seed lying in `central` (a SubspaceBasis) is refused.

    The walk keeps each element's frozenset of piece ids.  From each parent
    it forms, in generator order, the generators in the plan of its pieces
    (_plan) whose target piece has room, and counts each run of the others
    as skipped.  room starts at the piece sizes; with a homogeneous seed
    every accepted element lies in the one piece of any of its columns, and
    the walk keeps each entry at size - rank by taking one for each element
    it accepts, the seed included.

    The walk stops for one of three reasons, checked in this order after
    seeding and after each accepted step:
    - "identity": the `stop` label entered the span;
    - "saturated": the span holds every label, so no later step can be
      accepted, and the accepted steps and the span are those of the
      exhaustive walk;
    - "exhausted": a round accepted nothing.
    A full span holds the `stop` label, so a probe with one never saturates.

    Returns the reducer holding the span, the accepted steps and the walk's
    ProbeStats.
    """
    index = tables.index
    if seed.is_zero():
        raise UsageError("seed must be nonzero")
    seed_vec = coords(seed, index)
    if seed_vec is None:
        raise UsageError("seed does not fit inside the window")
    if central is not None and seed.is_a_only():
        avec = a_coords(seed.a_part(), central.index)
        if avec is not None and central.contains(avec):
            raise UsageError("seed is central (inside the derivation kernel)")

    red = RowReducer(ctx.spec)
    red.add(seed_vec)
    piece_of, plans, room = tables.piece_of, tables.plans, list(tables.sizes)
    count = len(tables.shifts)
    pieces = frozenset([piece_of[j] for j in seed_vec])
    accepted = [ClosureStep("", "", -1, seed, pieces)]  # the seed, then the steps
    stats = ProbeStats(ranks=[red.rank])
    homogeneous = len(pieces) == 1
    if homogeneous:
        room[next(iter(pieces))] -= 1
    singles = {}  # piece id -> its one frozenset, shared by a homogeneous walk

    def done(reason: str):
        if stats.ranks[-1] != red.rank:
            stats.ranks.append(red.rank)
        stats.stop = reason
        return red, accepted[1:], stats

    stop_vec = None if stop is None else {index[stop]: 1}
    if stop_vec is not None and red.contains(stop_vec):
        return done(STOP_IDENTITY)
    if red.rank == len(index):
        return done(STOP_SATURATED)
    frontier = [0]
    while frontier:
        next_frontier = []
        for pi in frontier:
            parent = accepted[pi]
            steps = form(parent.element)
            plan = plans[parent.pieces] if parent.pieces in plans else _plan(tables, parent.pieces)
            reached = 0  # the positions below it are formed or counted as skipped
            for k, target in plan:
                if target is not None and not room[target]:
                    continue
                if k > reached:
                    stats.tried += width * (k - reached)
                    stats.skipped += width * (k - reached)
                reached = k + 1
                for op, gname, z in steps(k):
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
                    if homogeneous:
                        piece = piece_of[next(iter(vec))]
                        room[piece] -= 1
                        pieces = singles.setdefault(piece, frozenset((piece,)))
                    else:
                        pieces = frozenset([piece_of[j] for j in vec])
                    accepted.append(ClosureStep(op, gname, pi, z, pieces))
                    next_frontier.append(len(accepted) - 1)
                    if stop_vec is not None and red.contains(stop_vec):
                        return done(STOP_IDENTITY)
                    if red.rank == len(index):
                        return done(STOP_SATURATED)
            if reached < count:
                stats.tried += width * (count - reached)
                stats.skipped += width * (count - reached)
        frontier = next_frontier
        stats.ranks.append(red.rank)
    return done(STOP_EXHAUSTED)


def _identity_closure(ctx: Context, seed, tables: ClosureTables, coords, from_coords, form,
                      width: int, stop) -> ProbeVerdict:
    """The verdict of a probe that closes the seed until its span holds the
    `stop` label; `from_coords(ctx, labels, vec)` builds a witness."""
    red, steps, stats = _closure(ctx, seed, tables, coords, form, width, stop=stop)
    return ProbeVerdict(
        kind=REACHES_IDENTITY if stats.stop == STOP_IDENTITY else PROPER_INVARIANT_SUBSPACE,
        coverage=Fraction(red.rank, len(tables.labels)),
        witness=[from_coords(ctx, tables.labels, vec) for vec in red.vectors()],
        steps=steps,
        stats=stats,
    )


def d_simplicity_probe(ctx: Context, seed: AElement, window: Window,
                       labels: list | None = None) -> ProbeVerdict:
    """Closure of the seed under window-monomial multiplication and all
    derivations, with discard semantics.

    Reaching the identity certifies that the derivation-stable ideal
    generated by the seed is the whole coefficient algebra.  `labels` are
    the window's a_basis, built here when not given.  The walk runs on one
    piece holding every label, whose room runs out only when the span holds
    the identity, so it skips no step.
    """
    labels = window.a_basis(ctx) if labels is None else labels
    gens = [(format_monomial(ctx, m), _a_element(ctx, m)) for m in labels if not m.is_one()]
    muls = len(gens)
    gens += [(d.name, d) for d in ctx.derivations]

    def form(e):
        def steps(k):
            name, g = gens[k]
            if k < muls:
                return (("mul", name, e * g),)
            return (("derive", name, ctx.apply_derivation(g, e)),)

        return steps

    n = len(labels)
    tables = ClosureTables(labels, {m: j for j, m in enumerate(labels)}, gens, None, [0] * n, {(): 0},
                           [n], [0] * len(gens), {})
    return _identity_closure(ctx, seed, tables, a_coords, a_from_coords, form, 1, ONE_MONOMIAL)


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


class ClosureTables(NamedTuple):
    """What the closure walks on one window share (closure_tables).

    `gens` holds the generators in walk order; for the operator closures,
    each window generator g = m*d^beta but the identity as (name, g, symbol
    shift).  `piece_of` and `piece_ids` are Window.pieces, `sizes` counts
    the labels of each piece and `shifts` holds the piece id of each
    generator.  `plans` caches _plan.  d_simplicity builds one-piece tables
    of its own, with no guard.
    """

    labels: list
    index: dict
    gens: list
    guard: tuple
    piece_of: list
    piece_ids: dict
    sizes: list
    shifts: list
    plans: dict


def closure_tables(ctx: Context, window: Window, mons: list | None = None) -> ClosureTables:
    mons = window.a_basis(ctx) if mons is None else mons
    labels = window.ad_basis(ctx, mons)
    piece_of, piece_ids = window.pieces(ctx, labels)
    gens, shifts = [], []
    for j, (alpha, m) in enumerate(labels):
        if alpha.is_zero() and m.is_one():
            continue
        g = wbasis(ctx, alpha, _a_element(ctx, m))
        # Byte-equal to format_weyl(g).
        name = format_monomial(ctx, m) if alpha.is_zero() else format_multi_index(ctx, alpha)
        if not (alpha.is_zero() or m.is_one()):
            name = f"{format_monomial(ctx, m)}*{name}"
        gens.append((name, g, _generator_shift(g, window)))
        shifts.append(piece_of[j])
    sizes = [0] * len(piece_ids)
    for p in piece_of:
        sizes[p] += 1
    index = {lab: j for j, lab in enumerate(labels)}
    return ClosureTables(labels, index, gens, window.guard(ctx, mons), piece_of, piece_ids, sizes,
                         shifts, {})


def _plan(tables: ClosureTables, pieces: frozenset) -> list:
    """The (position, target piece id) of each generator whose steps from a
    parent in `pieces` can land in a nonempty piece, in generator order,
    cached in tables.plans.  Room shrinks only in a homogeneous walk, whose
    elements each lie in one piece, so a parent in several gets None."""
    ids = tables.piece_ids
    degrees = list(ids)
    # Per piece p of the parent and piece id q, the id of the piece at p + q.
    rows = [[ids.get(tuple(map(add, degrees[p], d))) for d in degrees] for p in pieces]
    if len(rows) == 1:
        plan = [(k, rows[0][q]) for k, q in enumerate(tables.shifts) if rows[0][q] is not None]
    else:
        plan = [(k, None) for k, q in enumerate(tables.shifts) if any(row[q] is not None for row in rows)]
    tables.plans[pieces] = plan
    return plan


def assoc_ideal_closure_probe(ctx: Context, seed: WeylElement, window: Window,
                              tables: ClosureTables | None = None) -> ProbeVerdict:
    """Two-sided multiplicative closure of the seed, with discard semantics.

    Reaching the identity certifies that the two-sided ideal generated by
    the seed is the whole operator algebra.  A step whose products the
    principal symbol shows to leave the window forms neither of them.
    `tables` are the window's closure_tables, built here when not given.
    """
    if tables is None:
        tables = closure_tables(ctx, window)
    gens = tables.gens
    # The two discards of a generator whose products the symbol test shows to leave.
    leave = [(("lmul", name, None), ("rmul", name, None)) for name, _, _ in gens]

    def form(e):
        symbol_room = _symbol_room(e, window)

        def steps(k):
            name, g, shift = gens[k]
            if _symbol_leaves(symbol_room, shift):
                return leave[k]
            # Both products are formed before either is looked at: on a
            # shift family a product registers variables.
            return ("lmul", name, w_mul(g, e)), ("rmul", name, w_mul(e, g))

        return steps

    return _identity_closure(ctx, seed, tables, weyl_coords, weyl_from_coords, form, 2,
                             (ZERO_INDEX, ONE_MONOMIAL))


def lie_ideal_closure_probe(ctx: Context, seed: WeylElement, window: Window, f1: SubspaceBasis,
                            margin: Fraction = DEFAULT_MARGIN,
                            tables: ClosureTables | None = None) -> ProbeVerdict:
    """Bracket closure of the seed, judged modulo the central kernel on an
    interior sub-window.

    The interior margin compensates for boundary loss from discarding;
    the verdict is positive only if every interior basis monomial lies in
    the closure span plus the central kernel.  A sub-window whose targets all
    lie in the kernel would make that verdict vacuous, so it is refused.
    `tables` are the window's closure_tables, built here when not given.
    """
    inner = window.interior(margin)
    targets = inner.ad_basis(ctx)
    # A target above level 0 is never in f1, so only a level-0 interior can be vacuous.
    if inner.max_level == 0 and all(
        m in f1.index and f1.contains({f1.index[m]: 1}) for _, m in targets
    ):
        raise UsageError("interior sub-window holds no target outside the derivation kernel")
    if tables is None:
        tables = closure_tables(ctx, window)
    labels, index, gens, guard = tables.labels, tables.index, tables.gens, tables.guard

    def form(e):
        def steps(k):
            name, g, _ = gens[k]
            return (("bracket", name, lie_bracket(e, g, guard)),)

        return steps

    red, steps, stats = _closure(ctx, seed, tables, weyl_coords, form, 1, central=f1)

    # Coverage is judged on the span plus the f1 rows at level 0: a target is
    # in that sum iff its residue modulo the span is in that of the f1 rows.
    rest = RowReducer(ctx.spec)
    for vec in f1.vectors():
        embedded = {}
        for j, c in vec.items():
            col = index.get((ZERO_INDEX, f1.labels[j]))
            if col is None:
                raise UsageError("kernel basis was computed on a different window")
            embedded[col] = c
        rest.add(red.reduce(embedded))

    unreached = [format_weyl(wbasis(ctx, alpha, _a_element(ctx, m)))
                 for alpha, m in targets if not rest.contains(red.reduce({index[(alpha, m)]: 1}))]
    hit = len(targets) - len(unreached)
    coverage = Fraction(hit, len(targets))  # the refusal above leaves targets nonempty
    witness = [weyl_from_coords(ctx, labels, vec) for vec in red.vectors()]
    kind = FULL_SPAN_MOD_F1 if hit == len(targets) else PROPER_INVARIANT_SUBSPACE
    return ProbeVerdict(
        kind=kind, coverage=coverage, witness=witness, unreached=unreached, steps=steps, stats=stats
    )
