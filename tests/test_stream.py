"""The plain-Python binomial draw on Python's MT19937 against numpy's, draw for draw."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mt19937_generator
from reprobound import _stream

# Seeds as the sampler forms them, seed + 2**64 * (stream id + 4 * key),
# with keys above 2**32 too.
SEEDS = st.builds(
    lambda seed, stream, key: seed + 2**64 * (stream + 4 * key),
    st.integers(0, 2**64 - 1),
    st.integers(0, 3),
    st.one_of(st.integers(0, 3), st.integers(0, 2**70)),
)
EDGE_P = [0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0]
# Tiny p too, where inversion serves a large n.
PROBABILITIES = st.one_of(st.floats(0.0, 1.0), st.floats(1e-15, 1e-3), st.sampled_from(EDGE_P))


@st.composite
def binomial_args(draw):
    """(n, p, size): n over [0, 2**53) with its edges and the n * p = 30
    switch between inversion and BTPE, one p for all ``size`` draws."""
    p = draw(PROBABILITIES)
    r = min(p, 1.0 - p)
    edges = [0, 1, 2, _stream.MAX_N - 1]
    if r > 0.0 and 30.0 / r < _stream.MAX_N:
        edges += [max(0, math.floor(30.0 / r) + d) for d in (-1, 0, 1)]
    n = draw(st.one_of(st.integers(0, _stream.MAX_N - 1), st.integers(0, 10**5), st.sampled_from(edges)))
    return n, p, draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, args=binomial_args())
def test_binomials_match_numpy(seed, args):
    n, p, size = args
    expected = mt19937_generator(seed).binomial(n, p, size=size).tolist()
    assert _stream.binomials(random.Random(seed).random, n, p, size) == expected


@settings(max_examples=50, deadline=None)
@given(
    seed=SEEDS,
    n=st.one_of(st.integers(0, _stream.MAX_N - 1), st.integers(0, 10**5)),
    ps=st.lists(PROBABILITIES, min_size=1, max_size=40),
)
def test_one_stream_with_a_new_p_every_draw_matches_numpy(seed, n, ps):
    # A call takes only the doubles its draws use, so one stream can serve
    # draws of different p, as numpy's binomial does with an array of p.
    rng = random.Random(seed)
    port = [y for p in ps for y in _stream.binomials(rng.random, n, p, 1)]
    assert port == mt19937_generator(seed).binomial(n, ps).tolist()


@pytest.mark.parametrize(
    "n,p",
    [
        (131072, 0.03), (8192, 0.98), (64, 0.5), (45, 0.3), (1000, 0.03), (2**52, 0.2),
        # Inversion at a large n, where q**n would differ from exp(n log1p(-p)).
        (2 * 10**15, 1e-14),
        # n * min(p, 1 - p) == 30 exactly is inversion's; one more trial is BTPE's.
        (60, 0.5), (61, 0.5), (120, 0.75), (121, 0.25),
    ],
)
def test_long_runs_match_numpy(n, p):
    # Enough draws at one p for BTPE's rarer branches (its tails, the
    # squeeze of step 52, the F product of step 50) and inversion's restart.
    seed = 3 + 2**64 * (0 + 4 * 1)
    expected = mt19937_generator(seed).binomial(n, p, size=5000).tolist()
    assert _stream.binomials(random.Random(seed).random, n, p, 5000) == expected


@pytest.mark.parametrize("n", [-1, _stream.MAX_N])
def test_rejects_n_outside_the_exact_range(n):
    with pytest.raises(ValueError, match=r"n must be in \[0, 2\*\*53\)"):
        _stream.binomials(random.Random(0).random, n, 0.5, 1)


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_rejects_p_outside_the_unit_interval(p):
    # numpy's binomial rejects them too; a NaN would never leave BTPE's loop.
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        _stream.binomials(random.Random(0).random, 100, p, 2)
