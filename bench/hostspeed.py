"""The shared host's speed, measured by a fixed reference kernel.

This host's CPU speed drifts by up to a factor of two, in spells that last
from seconds to minutes (see README.md).  A run of tens of seconds sits in
one or two spells, so raw wall times of the same code spread by 20-35 % from
run to run, and longer runs barely narrow that.  The drift slows all work in
the process alike, so the benchmark times this kernel, which calls nothing
of triplekit, between requests.  A request's time is then scaled by
FULL_SPEED_S over the mean time of the kernel runs nearest to it: the time
it would have taken with the host at full speed.  Raw times are kept beside
the scaled ones in every result.

The kernel mixes the two kinds of work triplekit does: `Fraction`
arithmetic in the interpreter and small float matrix products in numpy.
"""

from fractions import Fraction
from time import perf_counter

import numpy as np

# The kernel's seconds on this host at full speed (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4 on one OpenBLAS thread).
FULL_SPEED_S = 1.0e-3

# A fixed orthogonal matrix: its powers stay bounded, so no product
# overflows or turns denormal.
_Q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]


def kernel_seconds() -> float:
    """Seconds the reference kernel takes now, run once untimed to warm the caches.

    Timing a cold run would measure what the request before it evicted,
    which depends on the program, not on the host.
    """
    _kernel()
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def _kernel() -> None:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    a = _Q
    for _ in range(50):
        a = a @ _Q


def speed_factor(kernel_times: list[float]) -> float:
    """Full-speed time over the mean kernel time: what a raw time is scaled by."""
    return FULL_SPEED_S * len(kernel_times) / sum(kernel_times)


def request_factors(kernel_times: list[float], requests: int, every: int,
                    reach: int = 2) -> list[float]:
    """Speed factor of each request of a pass from the kernel runs nearest to it.

    Kernel run k follows request k * every.  The host's speed also changes
    within a second, so each request is scaled by the kernel runs up to
    `reach` places either side of its own, not by the mean of the pass.
    """
    out = []
    for n in range(requests):
        k = n // every
        out.append(speed_factor(kernel_times[max(0, k - reach):k + reach + 1]))
    return out
