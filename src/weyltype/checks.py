"""Seeded randomized verification suites for the exact algebra identities:
associativity of the normal-ordering product, the action homomorphism,
Lie axioms, Leibniz and commutativity of the derivation family, and the
leading-level arithmetic.

All equalities are exact; a single violation fails the suite and the
violating inputs are reported verbatim.

Each suite draws its inputs from its own random.Random, seeded from the
seed and the suite's name.  The random_* functions read its bits directly
(randbelow) but draw exactly what randint, randrange and choice drew, in
the same order: a seed names the same inputs, and the same `verify`
output, from release to release, and tests/test_checks.py pins them.
Drawing through the stdlib calls took about a quarter of a `verify` run;
reading the bits directly draws the same inputs about 30% faster.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .coefficients import AElement, Context, LAURENT, ONE_MONOMIAL, Monomial
from .errors import UsageError
from .fields import q_frac
from .multiindex import MultiIndex
from .operators import (
    WeylElement,
    act,
    format_weyl,
    leading,
    lie_bracket,
    w_mul,
    wfrom_a,
)

# All work is bounded.  A trial costs about (max_degree+1)^2 (max_level+1)^5
# max_terms^6, a fit to the slowest bundled scenario, shift_family (2 vCPUs):
# 12 ms at the default sample bounds (4, 3, 3), 81 s at (6, 6, 6).  So
# max_trials scales MAX_TRIALS down by that cost over the default one.
MAX_TRIALS = 10_000
# Largest sample bound a scenario may set.  With every bound at 6, one
# mixed_flavors trial took at most 1.5 s on a 2-vCPU host (seeds 0-7); at 8
# one seed took 30 s.
MAX_SAMPLE_BOUND = 6


class SampleBounds(NamedTuple):
    max_degree: int = 4
    max_level: int = 3
    max_terms: int = 3
    n_variables: int | None = None  # restrict to the first n declared variables


def randbelow(bits, n: int) -> int:
    """What random.Random.randrange(n) returns, drawn the same way.

    `bits` is the generator's getrandbits.  randrange(n) draws
    r = getrandbits(k), with k = n.bit_length(), until r < n, and so does
    this; randint(a, b) is a + randrange(b - a + 1) and choice(seq) is
    seq[randrange(len(seq))].  It skips their argument checks and the two
    Python calls each of them makes to reach getrandbits.  Like randrange it
    refuses an empty range, which would otherwise never stop drawing.
    """
    if n <= 0:
        raise ValueError(f"empty range for randbelow({n})")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_scalar(rng: random.Random, ctx: Context, nonzero: bool = False):
    """A plain field value: n/d with n in [-6, 6], d in [1, 4] over Q, any residue over F_p."""
    bits, p = rng.getrandbits, ctx.spec.p
    while True:
        if p is None:
            n = randbelow(bits, 13) - 6
            d = randbelow(bits, 4) + 1
            s = q_frac(n, d)
        else:
            s = randbelow(bits, p)
        if s or not nonzero:
            return s


def random_monomial(rng: random.Random, ctx: Context, bounds: SampleBounds) -> Monomial:
    """Up to max_degree factors, each a variable drawn from the first n_variables
    (a Laurent one to the power -1 or 1)."""
    variables = ctx.variables
    nvars = len(variables) if bounds.n_variables is None else bounds.n_variables
    if not nvars:
        return ONE_MONOMIAL
    bits = rng.getrandbits
    exps: dict[int, int] = {}
    for _ in range(randbelow(bits, bounds.max_degree + 1)):
        i = randbelow(bits, nvars)  # a variable's index is its position
        e = (-1, 1)[randbelow(bits, 2)] if variables[i].kind == LAURENT else 1
        exps[i] = exps.get(i, 0) + e
    return Monomial(tuple(sorted(item for item in exps.items() if item[1])))


def random_a(rng: random.Random, ctx: Context, bounds: SampleBounds, nonzero: bool = False) -> AElement:
    bits, p = rng.getrandbits, ctx.spec.p
    low = 1 if nonzero else 0
    while True:
        terms: dict[Monomial, object] = {}
        for _ in range(low + randbelow(bits, bounds.max_terms + 1 - low)):
            m = random_monomial(rng, ctx, bounds)
            c = random_scalar(rng, ctx)
            cur = terms.get(m)
            terms[m] = (cur + c if p is None else (cur + c) % p) if cur else c
        total = AElement(ctx, terms)
        if total or not nonzero:
            return total


def random_multi_index(rng: random.Random, ctx: Context, bounds: SampleBounds) -> MultiIndex:
    bits, n = rng.getrandbits, len(ctx.derivations)
    exps: dict[int, int] = {}
    for _ in range(randbelow(bits, bounds.max_level + 1)):
        i = randbelow(bits, n)
        exps[i] = exps.get(i, 0) + 1
    return MultiIndex(tuple(sorted(exps.items())))


def random_weyl(rng: random.Random, ctx: Context, bounds: SampleBounds, nonzero: bool = False) -> WeylElement:
    bits = rng.getrandbits
    low = 1 if nonzero else 0
    while True:
        terms: dict[MultiIndex, AElement] = {}
        for _ in range(low + randbelow(bits, bounds.max_terms + 1 - low)):
            alpha = random_multi_index(rng, ctx, bounds)
            u = random_a(rng, ctx, bounds)
            cur = terms.get(alpha)
            terms[alpha] = u if cur is None else cur + u
        x = WeylElement(ctx, terms)
        if x or not nonzero:
            return x


class CheckResult:
    def __init__(self, name: str, trials: int):
        self.name = name
        self.trials = trials
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures


def _run(name: str, trials: int, one_trial) -> CheckResult:
    result = CheckResult(name=name, trials=trials)
    for k in range(trials):
        message = one_trial(k)
        if message:
            result.failures.append(message)
            break
    return result


def check_associativity(ctx: Context, trials: int, rng: random.Random, bounds: SampleBounds) -> CheckResult:
    def trial(_k):
        x = random_weyl(rng, ctx, bounds)
        y = random_weyl(rng, ctx, bounds)
        z = random_weyl(rng, ctx, bounds)
        if w_mul(w_mul(x, y), z) != w_mul(x, w_mul(y, z)):
            return f"(x*y)*z != x*(y*z) for x={format_weyl(x)} y={format_weyl(y)} z={format_weyl(z)}"
        return None

    return _run("associativity", trials, trial)


def check_action_homomorphism(ctx: Context, trials: int, rng: random.Random, bounds: SampleBounds) -> CheckResult:
    def trial(_k):
        x = random_weyl(rng, ctx, bounds)
        y = random_weyl(rng, ctx, bounds)
        a = random_a(rng, ctx, bounds)
        if act(w_mul(x, y), a) != act(x, act(y, a)):
            return f"act(x*y, a) != act(x, act(y, a)) for x={format_weyl(x)} y={format_weyl(y)} a={a}"
        return None

    return _run("action_homomorphism", trials, trial)


def check_lie_axioms(ctx: Context, trials: int, rng: random.Random, bounds: SampleBounds) -> CheckResult:
    def trial(k):
        x = random_weyl(rng, ctx, bounds)
        y = random_weyl(rng, ctx, bounds)
        z = random_weyl(rng, ctx, bounds)
        if not lie_bracket(x, x).is_zero():
            return f"[x, x] != 0 for x={format_weyl(x)}"
        yz = lie_bracket(y, z)  # for Jacobi and for bilinearity
        jac = (
            lie_bracket(lie_bracket(x, y), z)
            + lie_bracket(yz, x)
            + lie_bracket(lie_bracket(z, x), y)
        )
        if not jac.is_zero():
            return f"Jacobi fails for x={format_weyl(x)} y={format_weyl(y)} z={format_weyl(z)}"
        c = random_scalar(rng, ctx)
        lhs = lie_bracket(x.scale(c) + y, z)
        rhs = lie_bracket(x, z).scale(c) + yz
        if lhs != rhs:
            return f"bilinearity fails for c={c} x={format_weyl(x)} y={format_weyl(y)} z={format_weyl(z)}"
        return None

    return _run("lie_axioms", trials, trial)


def check_leibniz(ctx: Context, trials: int, rng: random.Random, bounds: SampleBounds) -> CheckResult:
    def trial(_k):
        for d in ctx.derivations:
            u = random_a(rng, ctx, bounds)
            v = random_a(rng, ctx, bounds)
            du, dv = ctx.apply_derivation(d, u), ctx.apply_derivation(d, v)
            if ctx.apply_derivation(d, u * v) != du * v + u * dv:
                return f"Leibniz fails for {d.name} on u={u} v={v}"
            c = random_scalar(rng, ctx)
            if ctx.apply_derivation(d, u * c + v) != du * c + dv:
                return f"linearity fails for {d.name} on u={u} v={v} c={c}"
        return None

    return _run("leibniz", trials, trial)


def check_commutativity(ctx: Context, trials: int, rng: random.Random, bounds: SampleBounds) -> CheckResult:
    def trial(_k):
        u = random_a(rng, ctx, bounds)
        for i in range(len(ctx.derivations)):
            for j in range(i + 1, len(ctx.derivations)):
                d1, d2 = ctx.derivations[i], ctx.derivations[j]
                lhs = ctx.apply_derivation(d1, ctx.apply_derivation(d2, u))
                rhs = ctx.apply_derivation(d2, ctx.apply_derivation(d1, u))
                if lhs != rhs:
                    return f"{d1.name} and {d2.name} do not commute on u={u}"
        return None

    return _run("commutativity", trials, trial)


def check_level_arithmetic(ctx: Context, trials: int, rng: random.Random, bounds: SampleBounds) -> CheckResult:
    def trial(_k):
        x = random_weyl(rng, ctx, bounds, nonzero=True)
        y = random_weyl(rng, ctx, bounds, nonzero=True)
        lx, ly = leading(x), leading(y)
        product = w_mul(x, y)
        lp = leading(product)
        if lp.lev != lx.lev + ly.lev:
            return f"lev(x*y) != lev(x)+lev(y) for x={format_weyl(x)} y={format_weyl(y)}"
        if lp.deg != lx.deg.add(ly.deg):
            return f"deg(x*y) != deg(x)+deg(y) for x={format_weyl(x)} y={format_weyl(y)}"
        a = random_a(rng, ctx, bounds)
        drop = leading(lie_bracket(x, wfrom_a(a)))
        if not drop.lev <= lx.lev - 1:
            return f"lev([x, a]) > lev(x)-1 for x={format_weyl(x)} a={a}"
        return None

    return _run("level_arithmetic", trials, trial)


ALL_SUITES = (
    check_associativity,
    check_action_homomorphism,
    check_lie_axioms,
    check_leibniz,
    check_commutativity,
    check_level_arithmetic,
)


def max_trials(bounds: SampleBounds) -> int:
    """The trial cap at these sample bounds (see MAX_TRIALS)."""
    def cost(b: SampleBounds) -> int:
        return (b.max_degree + 1) ** 2 * (b.max_level + 1) ** 5 * b.max_terms ** 6
    return min(MAX_TRIALS, MAX_TRIALS * cost(SampleBounds()) // cost(bounds))


def run_all_checks(ctx: Context, trials: int, seed: int, bounds: SampleBounds) -> list[CheckResult]:
    if trials < 0:
        raise UsageError(f"trials must be nonnegative, got {trials}")
    cap = max_trials(bounds)
    if trials > cap:
        where = "" if cap == MAX_TRIALS else " at max_degree {}, max_level {}, max_terms {}".format(*bounds)
        raise UsageError(f"trials must be at most {cap}{where}, got {trials}")
    results = []
    for suite in ALL_SUITES:
        rng = random.Random(f"{seed}:{suite.__name__}")
        results.append(suite(ctx, trials, rng, bounds))
    return results
