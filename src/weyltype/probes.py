"""Truncated-window structure probes.

All probes work on a finite window: per-variable exponent bounds for the
coefficient part plus a level bound for the derivation part.  Closure probes
use discard semantics: any closure step whose result leaves the window is
dropped entirely (never projected), so every element of a reported span
genuinely belongs to the corresponding ideal of the full, untruncated
algebra.  Positive certificates ("the identity was reached") are therefore
sound; completeness is sacrificed and reported honestly as a coverage
fraction.

Probes are pure functions of (context, seed, window); independent probes can
run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .coefficients import (
    AElement,
    Context,
    LAURENT,
    Monomial,
    ONE_MONOMIAL,
    POLYNOMIAL,
    format_monomial,
    monomial_sort_key,
)
from .errors import BasisCapError, UsageError, ValidationError, WindowError
from .linalg import RowReducer, nullspace
from .multiindex import MultiIndex, ZERO_INDEX
from .operators import (
    WeylElement,
    act,
    format_weyl,
    lie_bracket,
    w_mul,
    wbasis,
    wzero,
)

DEFAULT_BASIS_CAP = 5000
DEFAULT_MARGIN = Fraction(1, 2)

REACHES_IDENTITY = "reaches_identity"
FULL_SPAN_MOD_F1 = "full_span_mod_f1"
PROPER_INVARIANT_SUBSPACE = "proper_invariant_subspace"
KERNEL_NONZERO = "kernel_nonzero"
KERNEL_ZERO = "kernel_zero"

WINDOW_EVIDENCE_NOTE = "window-restricted evidence"


@dataclass(frozen=True)
class Window:
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
            if var.index not in seen:
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

    def monomial_inside(self, m: Monomial) -> bool:
        return all(self.bound_for(i)[0] <= e <= self.bound_for(i)[1] for i, e in m.exps)

    def a_inside(self, u: AElement) -> bool:
        return all(self.monomial_inside(m) for m in u.terms)

    def weyl_inside(self, x: WeylElement) -> bool:
        return all(
            a.level() <= self.max_level and self.a_inside(u) for a, u in x.terms.items()
        )

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
        """All derivation multi-indices up to the level bound, ascending."""
        n = len(ctx.derivations)
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
        return Window(
            bounds=tuple((i, shrink(lo), shrink(hi)) for i, lo, hi in self.bounds),
            max_level=shrink(self.max_level),
            basis_cap=self.basis_cap,
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
    return AElement(ctx, {m: ctx.spec.one()})


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
    terms: dict[MultiIndex, AElement] = {}
    for j, c in vec.items():
        alpha, m = labels[j]
        cur = terms.get(alpha, ctx.zero())
        terms[alpha] = cur + AElement(ctx, {m: c})
    return WeylElement(ctx, terms)


@dataclass(frozen=True)
class ClosureStep:
    """One accepted closure step, kept so tests can replay it untruncated."""

    op: str
    generator: str
    parent: int  # index into the accepted list; -1 means the seed
    element: object


@dataclass
class ProbeVerdict:
    kind: str
    coverage: Fraction
    witness: list
    unreached: list = field(default_factory=list)
    note: str = ""
    steps: list = field(default_factory=list)


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


def equal_mod_f1(x: WeylElement, y: WeylElement, f1: SubspaceBasis) -> bool:
    """Whether two operators agree in the quotient by the central kernel."""
    diff = x - y
    if diff.is_zero():
        return True
    if not diff.is_a_only():
        return False
    vec = a_coords(diff.a_part(), f1.index)
    if vec is None:
        raise WindowError("difference leaves the window; widen it to decide")
    return f1.contains(vec)


# -- faithfulness -------------------------------------------------------------


def theta_kernel(
    ctx: Context,
    window: Window,
    restrict_to_f1: bool = False,
    f1: SubspaceBasis | None = None,
) -> ProbeVerdict:
    """Kernel of the action map restricted to the window.

    Columns are the window operator basis (or, in the restricted variant,
    kernel-coefficient multiples of the derivation monomials); a column
    combination is in the kernel iff it kills every window coefficient
    monomial.  The action is evaluated exactly, so a nonzero kernel element
    is a genuine window operator acting as zero on every window monomial;
    an empty kernel is evidence restricted to the window and labeled so.

    Constraint rows are produced lazily, one window monomial at a time, and
    row reduction stops as soon as they reach full column rank: a full-rank
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
        for am in a_labels:
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
            elem = wzero(ctx)
            for j, c in vec.items():
                elem = elem + columns[j].scale(c)
            witness.append(elem)
        return ProbeVerdict(kind=KERNEL_NONZERO, coverage=coverage, witness=witness)
    return ProbeVerdict(kind=KERNEL_ZERO, coverage=coverage, witness=[], note=WINDOW_EVIDENCE_NOTE)


# -- ideal-closure probes ------------------------------------------------------


def _closure(ctx: Context, seed, labels: list, coords, gens: list, stop=None, central=None):
    """Breadth-first closure of the seed inside a window, with discard semantics.

    `labels` enumerate the window basis and `coords(z, index)` gives an
    element's coordinates over it, or None when the element leaves the window.
    Each generator is a `(name, step)` pair: `step(elem)` returns the
    `(op, result)` pairs of one closure step, in a fixed order.  Results that
    are zero or leave the window are dropped, never projected.  The walk stops
    as soon as the `stop` label enters the span, or when a round accepts
    nothing.  A seed lying in `central` (a SubspaceBasis) is refused.

    Returns the reducer holding the span, the label index, the accepted
    steps and whether `stop` was reached.
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
    stop_vec = None if stop is None else {index[stop]: ctx.spec.one()}
    if stop_vec is not None and red.contains(stop_vec):
        return red, index, steps, True
    frontier = [0]
    while frontier:
        next_frontier = []
        for pi in frontier:
            for gname, step in gens:
                for op, z in step(accepted[pi]):
                    if z.is_zero():
                        continue
                    vec = coords(z, index)
                    if vec is None:
                        continue  # discard: the step left the window
                    if red.add(vec):
                        accepted.append(z)
                        steps.append(ClosureStep(op, gname, pi, z))
                        next_frontier.append(len(accepted) - 1)
                        if stop_vec is not None and red.contains(stop_vec):
                            return red, index, steps, True
        frontier = next_frontier
    return red, index, steps, False


def d_simplicity_probe(ctx: Context, seed: AElement, window: Window) -> ProbeVerdict:
    """Closure of the seed under window-monomial multiplication and all
    derivations, with discard semantics.

    Reaching the identity certifies that the derivation-stable ideal
    generated by the seed is the whole coefficient algebra.
    """
    labels = window.a_basis(ctx)
    gens = [
        (format_monomial(ctx, m), lambda e, g=_a_element(ctx, m): (("mul", e * g),))
        for m in labels
        if not m.is_one()
    ]
    gens += [
        (d.name, lambda e, d=d: (("derive", ctx.apply_derivation(d, e)),))
        for d in ctx.derivations
    ]
    red, _, steps, reached = _closure(ctx, seed, labels, a_coords, gens, stop=ONE_MONOMIAL)
    return ProbeVerdict(
        kind=REACHES_IDENTITY if reached else PROPER_INVARIANT_SUBSPACE,
        coverage=Fraction(red.rank, len(labels)),
        witness=[a_from_coords(ctx, labels, vec) for vec in red.vectors()],
        steps=steps,
    )


def _window_generators(ctx: Context, window: Window) -> list[tuple[str, WeylElement]]:
    out = []
    for alpha, m in window.ad_basis(ctx):
        if alpha.is_zero() and m.is_one():
            continue
        g = wbasis(ctx, alpha, _a_element(ctx, m))
        out.append((format_weyl(g), g))
    return out


def assoc_ideal_closure_probe(ctx: Context, seed: WeylElement, window: Window) -> ProbeVerdict:
    """Two-sided multiplicative closure of the seed, with discard semantics.

    Reaching the identity certifies that the two-sided ideal generated by
    the seed is the whole operator algebra.
    """
    labels = window.ad_basis(ctx)
    # Both products are computed before either is looked at.
    gens = [
        (name, lambda e, g=g: (("lmul", w_mul(g, e)), ("rmul", w_mul(e, g))))
        for name, g in _window_generators(ctx, window)
    ]
    stop = (ZERO_INDEX, ONE_MONOMIAL)
    red, _, steps, reached = _closure(ctx, seed, labels, weyl_coords, gens, stop=stop)
    return ProbeVerdict(
        kind=REACHES_IDENTITY if reached else PROPER_INVARIANT_SUBSPACE,
        coverage=Fraction(red.rank, len(labels)),
        witness=[weyl_from_coords(ctx, labels, vec) for vec in red.vectors()],
        steps=steps,
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
    the closure span plus the central kernel.
    """
    labels = window.ad_basis(ctx)
    gens = [
        (name, lambda e, g=g: (("bracket", lie_bracket(e, g)),))
        for name, g in _window_generators(ctx, window)
    ]
    red, index, steps, _ = _closure(ctx, seed, labels, weyl_coords, gens, central=f1)

    combined = red.copy()
    for vec in f1.vectors():
        embedded = {}
        for j, c in vec.items():
            col = index.get((ZERO_INDEX, f1.labels[j]))
            if col is None:
                raise UsageError("kernel basis was computed on a different window")
            embedded[col] = c
        combined.add(embedded)

    inner = window.interior(margin)
    targets = inner.ad_basis(ctx)
    unreached = []
    hit = 0
    for alpha, m in targets:
        vec = {index[(alpha, m)]: ctx.spec.one()}
        if combined.contains(vec):
            hit += 1
        else:
            unreached.append(format_weyl(wbasis(ctx, alpha, _a_element(ctx, m))))
    coverage = Fraction(hit, len(targets)) if targets else Fraction(1)
    witness = [weyl_from_coords(ctx, labels, vec) for vec in red.vectors()]
    kind = FULL_SPAN_MOD_F1 if hit == len(targets) else PROPER_INVARIANT_SUBSPACE
    return ProbeVerdict(
        kind=kind, coverage=coverage, witness=witness, unreached=unreached, steps=steps
    )
