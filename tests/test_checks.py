"""The seeded input generators behind `verify`."""

import hashlib
import random

import pytest

from weyltype.checks import (
    MAX_SAMPLE_BOUND,
    MAX_TRIALS,
    SampleBounds,
    max_trials,
    random_a,
    random_weyl,
    randbelow,
)
from weyltype.operators import format_weyl
from weyltype.scenario import bundled_scenario_names, load_bundled

# `verify`'s output depends on every draw, so the generators must keep making
# the same rng calls in the same order, however they build an element.
DRAWS_SHA256 = "cbcd240db4d0cf6bdd2c00925ad8708f475c91f1908b29de74ac67d4deac95d2"


def test_seeded_draws_are_pinned():
    h = hashlib.sha256()
    for name in bundled_scenario_names():
        scenario = load_bundled(name)
        ctx, sample = scenario.ctx, scenario.sample
        rng = random.Random(f"draws:{name}")
        for k in range(50):
            h.update(f"{random_a(rng, ctx, sample, nonzero=k % 2 == 1)}\n".encode())
            h.update(f"{format_weyl(random_weyl(rng, ctx, sample, nonzero=k % 3 == 0))}\n".encode())
    assert h.hexdigest() == DRAWS_SHA256


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, "draws"])
def test_randbelow_draws_what_the_stdlib_draws(seed):
    # Same value and same generator state after each draw, for randrange(n)
    # and for the randint and choice calls the random_* functions used to make.
    ours, stdlib = random.Random(seed), random.Random(seed)
    for n in range(1, 71):
        for _ in range(3):
            assert randbelow(ours.getrandbits, n) == stdlib.randrange(n)
        assert ours.random() == stdlib.random()
    for _ in range(50):
        assert randbelow(ours.getrandbits, 13) - 6 == stdlib.randint(-6, 6)
        assert (-1, 1)[randbelow(ours.getrandbits, 2)] == stdlib.choice((-1, 1))
    assert ours.getstate() == stdlib.getstate()
    for n in (0, -3):
        with pytest.raises(ValueError):
            stdlib.randrange(n)
        with pytest.raises(ValueError):
            randbelow(ours.getrandbits, n)


def test_trial_cap_keeps_the_default_bounds_and_shrinks_above_them():
    assert max_trials(SampleBounds()) == MAX_TRIALS
    assert max_trials(SampleBounds(max_degree=0, max_level=0, max_terms=1)) == MAX_TRIALS
    bounds = [(d, lev, t) for d in range(MAX_SAMPLE_BOUND + 1) for lev in range(MAX_SAMPLE_BOUND + 1)
              for t in range(1, MAX_SAMPLE_BOUND + 1)]
    for d, lev, t in bounds:
        cap = max_trials(SampleBounds(d, lev, t))
        assert 1 <= cap <= MAX_TRIALS
        # Raising any one bound never raises the cap.
        for bigger in ((d + 1, lev, t), (d, lev + 1, t), (d, lev, t + 1)):
            if max(bigger) <= MAX_SAMPLE_BOUND:
                assert max_trials(SampleBounds(*bigger)) <= cap
    assert max_trials(SampleBounds(6, 6, 6)) == 4
