"""numpy's Philox binomial stream in plain Python, bit for bit.

``binomials(philox_key(seed, spawn_key), n, p, size)`` returns the ints of
``numpy.random.Generator(Philox(SeedSequence(seed, spawn_key=spawn_key)))
.binomial(n, p, size=size)`` for every ``n < 2**53``, without loading
numpy. The three parts follow numpy's C and Cython sources:

* ``SeedSequence``: its 4-word entropy pool and ``generate_state(2,
  uint64)``, which is Philox's key;
* Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
  3", SC'11): the 256-bit counter starts at 0 and is incremented before
  each block, and the block's 4 words are used in order, each as the double
  ``(word >> 11) * 2**-53``. Only the counter's low word moves: it would
  carry after 2**64 blocks, and a stream of the sampler draws at most
  ``sampler.MAX_COUNTS`` counts, a few doubles each;
* ``random_binomial``: inversion when ``n * min(p, 1 - p) <= 30``, else
  BTPE (Kachitvichyanukul & Schmeiser, CACM 31, 1988), drawing for
  ``1 - p`` and flipping when ``p > 0.5``. numpy keeps either algorithm's
  setup while ``p`` repeats; a stream here has one ``p``, so the setup is
  computed once.

Where C mixes int64 and double, the port converts where C does: an int64
becomes a double in a mixed expression, and BTPE's ``x1``, ``f1``, ``z`` and
``w`` are doubles. C's int64 arithmetic overflows at ``n`` near ``2**63``,
where plain ints do not, so ``n`` must stay below ``2**53``.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

from .noise_model import check_probability

# SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

# Philox4x64 (Random123's philox.h): round multipliers and Weyl key increments.
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
_MASK64 = (1 << 64) - 1
# Philox blocks computed at once.
_LANES = 32
_DOUBLE_UNIT = 2.0**-53

# The n below which the port matches numpy: every int that the algorithms
# form converts to a double exactly, and C's int64 arithmetic cannot overflow.
MAX_N = 2**53


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: its 32-bit words, least
    significant first; [0] for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def philox_key(entropy: int, spawn_key: tuple[int, ...] = ()) -> tuple[int, int]:
    """The key of ``Philox(SeedSequence(entropy, spawn_key=spawn_key))``."""
    assembled = _words(entropy)
    spawn = [word for value in spawn_key for word in _words(value)]
    if spawn:
        # SeedSequence pads the entropy to the pool size when it has a spawn key.
        assembled += [0] * (_POOL_SIZE - len(assembled))
    assembled += spawn

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    padded = assembled + [0] * (_POOL_SIZE - len(assembled))
    pool = [hashmix(value) for value in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in assembled[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))

    # generate_state(2, uint64): four 32-bit words read as two little-endian 64-bit ones.
    hash_const = _INIT_B
    state = []
    for value in pool:
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def doubles(key: tuple[int, int]) -> Iterator[float]:
    """The doubles in [0, 1) that a new Philox bit generator with this key
    hands ``Generator``, without end.

    Philox is counter-based, so the port computes ``_LANES`` blocks at once:
    block j sits in bits [128 j, 128 j + 64) of one Python int per counter
    word, each round's 64 x 64-bit products fill the 128 bits of their own
    block, and a single multiplication, shift, mask or xor serves them all.
    """
    k0, k1 = key
    ones, low, steps = _ONES, _LOW, _STEPS
    # Every round's key, one copy per block.
    schedule = [(((k0 + r * _W0) & _MASK64) * ones, ((k1 + r * _W1) & _MASK64) * ones) for r in range(_ROUNDS)]
    m0, m1, unit = _M0, _M1, _DOUBLE_UNIT
    # The counter's low word before the batch; its three high words stay 0.
    counter = 0
    while True:
        x0, x1, x2, x3 = counter * ones + steps, 0, 0, 0
        counter += _LANES
        for a, b in schedule:
            lo, hi = m0 * x0, m1 * x2
            x0, x1, x2, x3 = (hi >> 64 & low) ^ x1 ^ a, hi & low, (lo >> 64 & low) ^ x3 ^ b, lo & low
        out = [0.0] * (4 * _LANES)
        for word, x in enumerate((x0, x1, x2, x3)):
            out[word::4] = [w * unit for w in memoryview((x >> 11).to_bytes(16 * _LANES, "little")).cast("Q")[::2]]
        yield from out


def _lanes(words) -> int:
    """64-bit words packed one per 128 bits, the first lowest."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")


_ONES = _lanes([1] * _LANES)
_LOW = _MASK64 * _ONES
# Block j's offset from the counter of its batch: the counter is incremented before each block.
_STEPS = _lanes(range(1, _LANES + 1))


def binomials(key: tuple[int, int], n: int, p: float, size: int) -> list[int]:
    """``size`` Binomial(n, p) draws, in order, from the Philox stream of
    ``key``: the ints that numpy's ``Generator.binomial(n, p, size=size)``
    returns on a new bit generator of that key."""
    if not 0 <= n < MAX_N:
        raise ValueError(f"n must be in [0, 2**53), got {n}")
    p = check_probability("p", p)
    if n == 0 or p == 0.0:
        return [0] * size
    flip = p > 0.5
    r = 1.0 - p if flip else p
    draws = islice((_inversion if r * n <= 30.0 else _btpe)(doubles(key).__next__, n, r), size)
    return [n - y for y in draws] if flip else list(draws)


def _inversion(next_double, n: int, p: float) -> Iterator[int]:
    """numpy's random_binomial_inversion, draw after draw."""
    q = 1.0 - p
    # exp(n log1p(-p)), not q**n: the two differ in the last bits.
    px = math.exp(n * math.log1p(-p))
    np_ = n * p
    cap = np_ + 10.0 * math.sqrt(np_ * q + 1)
    bound = n if n < cap else int(cap)
    # Pr(X = x) for x = 0..bound by C's recurrence, which C runs again in every draw.
    pmf = [px]
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        pmf.append(px)
    while True:
        u = next_double()
        for x, px in enumerate(pmf):
            if not u > px:
                yield x
                break
            u -= px
        # Past the bound C starts again with a new uniform.


def _btpe(next_double, n: int, p: float) -> Iterator[int]:
    """numpy's random_binomial_btpe for p <= 0.5, draw after draw; its goto
    steps are the comments."""
    floor, log = math.floor, math.log
    r = min(p, 1.0 - p)
    q = 1.0 - r
    fm = n * r + r
    m = floor(fm)
    p1 = floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    # Step50's F depends only on y: each value is computed once, by C's loop.
    s = r / q
    a = s * (n + 1)
    f_at = {}
    while True:  # Step10
        u = next_double() * p4
        v = next_double()
        if u <= p1:
            yield floor(xm - p1 * v + u)
            continue
        if u <= p2:  # Step20
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = floor(x)
        elif u <= p3:  # Step30; C takes log(0) and then rejects v == 0.
            if v == 0.0:
                continue
            y = floor(xl + log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # Step40
            if v == 0.0:
                continue
            y = floor(xr - log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)  # Step50
        if 20 < k < nrq / 2.0 - 1:  # Step52
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            big_a = log(v) if v > 0.0 else -math.inf
            if big_a > t + rho:
                continue
            if big_a >= t - rho:
                x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
                x2, f2, z2, w2 = x1 * x1, f1 * f1, z * z, w * w
                bound = (
                    xm * log(f1 / x1)
                    + (n - m + 0.5) * log(z / w)
                    + (y - m) * log(w * r / (x1 * q))
                    + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
                    + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
                    + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
                    + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
                )
                if big_a > bound:
                    continue
        else:
            f = f_at.get(y)
            if f is None:
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                f_at[y] = f
            if v > f:
                continue
        yield y  # Step60
