"""numpy's binomial draw in plain Python, bit for bit.

``binomials(next_double, n, p, size)`` returns the ints that numpy's
``Generator.binomial(n, p, size=size)`` returns when its bit generator hands
it the doubles of ``next_double``, for every ``n < 2**53``, without loading
numpy. The sampler feeds it ``random.Random(k).random``: CPython's
MT19937, whose doubles are those of numpy's ``MT19937`` once its state is
copied from ``random.Random(k).getstate()``. The draw follows numpy's C
``random_binomial``: inversion when ``n * min(p, 1 - p) <= 30``, else BTPE
(Kachitvichyanukul & Schmeiser, CACM 31, 1988), drawing for ``1 - p`` and
flipping when ``p > 0.5``. numpy keeps either algorithm's setup while ``p``
repeats; a call here has one ``p``, so the setup is computed once.

Where C mixes int64 and double, the port converts where C does: an int64
becomes a double in a mixed expression, and BTPE's ``x1``, ``f1``, ``z`` and
``w`` are doubles. C's int64 arithmetic overflows at ``n`` near ``2**63``,
where plain ints do not, so ``n`` must stay below ``2**53``.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Iterator

from .noise_model import check_probability

# The n below which the port matches numpy: every int that the algorithms
# form converts to a double exactly, and C's int64 arithmetic cannot overflow.
MAX_N = 2**53


def binomials(next_double: Callable[[], float], n: int, p: float, size: int) -> list[int]:
    """``size`` Binomial(n, p) draws, in order, from the doubles in [0, 1)
    that ``next_double`` returns: the ints that numpy's
    ``Generator.binomial(n, p, size=size)`` returns when its bit generator
    yields those doubles. It takes no more doubles than the draws use."""
    if not 0 <= n < MAX_N:
        raise ValueError(f"n must be in [0, 2**53), got {n}")
    p = check_probability("p", p)
    if n == 0 or p == 0.0:
        return [0] * size
    flip = p > 0.5
    r = 1.0 - p if flip else p
    draws = islice((_inversion if r * n <= 30.0 else _btpe)(next_double, n, r), size)
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
