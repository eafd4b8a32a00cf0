"""A fixed pure-Python workload that gauges the machine's speed.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes, for all code alike.  Each job process
times ``reference()`` right after its job, in the same process, and the
benchmark scales the job's times by ``NOMINAL_S / reference time``: the
times it reports are those of a machine on which the reference takes
``NOMINAL_S``.  The reference does the kind of work regulus does (products
of sparse polynomials over QQ as dicts of exponent tuples, then integer
arithmetic modulo a prime power) and imports nothing from regulus, so a
change to regulus moves the job times and never the yardstick.

Do not change this file, or ``NOMINAL_S``, between two sets of runs that
are to be compared.
"""

import time
from fractions import Fraction

# the median of timed_reference() on a 2-vCPU x86-64 virtual machine
# (Python 3, its usual speed)
NOMINAL_S = 0.006


def _poly(seed, n, terms):
    out = {}
    x = seed
    for _ in range(terms):
        x = (x * 1103515245 + 12345) % 2147483648
        e = tuple((x >> (3 * i)) % 4 for i in range(n))
        out[e] = out.get(e, 0) + Fraction(x % 97 - 48, 1 + x % 7)
    return out


_A = _poly(1, 4, 40)
_B = _poly(2, 4, 40)


def reference():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    m = 101 ** 8
    acc = 1
    for v in out.values():
        acc = acc * (v.numerator % m + 1) % m
    return acc


def timed_reference(repeats=3):
    """Median seconds of ``repeats`` runs, after one untimed warm-up."""
    reference()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]
