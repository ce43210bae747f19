"""The plain-Python Philox binomial stream against numpy's, draw for draw."""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprobound import _stream

SEEDS = st.integers(0, 2**64 - 1)
# Spawn keys like the sampler's (stream id, qubit index), with words above 2**32 too.
SPAWN_KEYS = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=3).map(tuple)
EDGE_P = [0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0]
# Tiny p too, where inversion serves a large n.
PROBABILITIES = st.one_of(st.floats(0.0, 1.0), st.floats(1e-15, 1e-3), st.sampled_from(EDGE_P))


def numpy_generator(seed, spawn_key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


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
@given(seed=SEEDS, spawn_key=SPAWN_KEYS, args=binomial_args())
def test_binomials_match_numpy(seed, spawn_key, args):
    n, p, size = args
    expected = numpy_generator(seed, spawn_key).binomial(n, p, size=size).tolist()
    assert _stream.binomials(_stream.philox_key(seed, spawn_key), n, p, size) == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.one_of(SEEDS, st.integers(0, 2**200)), spawn_key=SPAWN_KEYS)
def test_key_is_seed_sequence_state(seed, spawn_key):
    words = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64).tolist()
    assert _stream.philox_key(seed, spawn_key) == tuple(words)


@pytest.mark.parametrize("counter", [0], ids=["zero"])
def test_doubles_follow_the_counter(counter):
    # The port starts where a new numpy bit generator does, at a counter of
    # four zero words; 1,000 doubles span several batches of blocks.
    generator = numpy_generator(11, (2, 5))
    assert generator.bit_generator.state["state"]["counter"].tolist() == [counter] * 4
    expected = generator.random(1000).tolist()
    assert list(islice(_stream.doubles(_stream.philox_key(11, (2, 5))), 1000)) == expected


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
    expected = numpy_generator(3, (0, 1)).binomial(n, p, size=5000).tolist()
    assert _stream.binomials(_stream.philox_key(3, (0, 1)), n, p, 5000) == expected


@pytest.mark.parametrize("n", [-1, _stream.MAX_N])
def test_rejects_n_outside_the_exact_range(n):
    with pytest.raises(ValueError, match=r"n must be in \[0, 2\*\*53\)"):
        _stream.binomials((0, 0), n, 0.5, 1)


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_rejects_p_outside_the_unit_interval(p):
    # numpy's binomial rejects them too; a NaN would never leave BTPE's loop.
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        _stream.binomials((0, 0), 100, p, 2)
