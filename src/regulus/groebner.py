"""A small Buchberger engine over QQ or GF(p).

Scope is deliberately narrow: the point-checking pipeline only ever asks
for bases of ideals in at most four variables and modest degree, so the
engine refuses anything larger (OracleResourceError) instead of heading
into doubly-exponential territory.  Within that envelope it produces the
unique reduced basis for the requested order and then re-verifies that
every input generator reduces to zero against it.

Reduction runs in place on a dict of terms, taking the largest monomial
from a heap.  Each basis element's divisor data, its leading exponent and
monic tail, is computed once when the element joins the basis, and each
exponent's heap key once per basis computation.

Orders are given by key functions on exponent tuples; comparing keys with
tuple order realizes the monomial order.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub

from .errors import EmptyVariety, InternalConsistencyError, OracleResourceError
from .poly import MultiPoly

MAX_VARIABLES = 4
MAX_INPUT_DEGREE = 6
PAIR_BUDGET = 100000


def order_key(order: str):
    if order == "grevlex":
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    if order == "grlex":
        return lambda e: (sum(e), e)
    if order == "lex":
        return lambda e: e
    raise ValueError("unknown monomial order %r" % (order,))


def leading_term(f: MultiPoly, key):
    exps = max(f.terms, key=key)
    return exps, f.terms[exps]


def _divides(ea, eb) -> bool:
    return all(x <= y for x, y in zip(ea, eb))


def _descending(k):
    """Key whose ascending tuple order is the descending order of the
    order key ``k``, a tuple of ints and tuples of ints."""
    return tuple(-x if isinstance(x, int) else _descending(x) for x in k)


class _HeapEntries(dict):
    """Max-heap entry ``(descending key, exponent)`` of each exponent,
    computed once on first use."""

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, e):
        entry = self[e] = (_descending(self.key(e)), e)
        return entry


def _divisor(terms: dict, ring, key):
    """(leading exponent, monic tail) of the nonzero polynomial with these
    terms: what a reduction step by it needs, with the tail as (exponent,
    coefficient) pairs."""
    e = max(terms, key=key)
    inv = ring.inv(terms[e])
    return e, [(x, v * inv) for x, v in terms.items() if x != e]


def _reduce(work: dict, divisors, ring, entries) -> dict:
    """Full reduction of the terms ``work`` by ``divisors``, in place.

    The largest remaining monomial comes off a heap of ``entries``; an
    exponent that has left ``work`` since it was pushed is skipped.  The
    first divisor, in list order, whose leading exponent divides it is
    subtracted; if none does, the term moves to the remainder, which is
    returned in decreasing order.
    """
    is_zero = ring.is_zero
    heap = [entries[e] for e in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for ge, tail in divisors:
            if all(map(le, ge, e)):
                shift = tuple(map(sub, e, ge))
                neg = -c
                for te, tc in tail:
                    m = tuple(map(add, te, shift))
                    v = work.get(m)
                    if v is None:
                        work[m] = neg * tc
                        heapq.heappush(heap, entries[m])
                    else:
                        v += neg * tc
                        if is_zero(v):
                            del work[m]
                        else:
                            work[m] = v
                break
        else:
            rem[e] = c
    return rem


def normal_form(f: MultiPoly, basis, key) -> MultiPoly:
    """Remainder of f under full division by the basis: no remainder term
    is divisible by any basis leading term.  Each step uses the first
    basis element, in list order, whose leading term divides."""
    divisors = [_divisor(g.terms, g.ring, key) for g in basis]
    rem = _reduce(dict(f.terms), divisors, f.ring, _HeapEntries(key))
    return MultiPoly(f.ring, f.vars, rem)


def _s_polynomial(di, dj, ring) -> dict:
    """Terms of the S-polynomial of two monic polynomials, given by their
    divisor data: the leading terms cancel, so it is the first tail minus
    the second, each shifted up to the lcm of the leading exponents."""
    (ei, ti), (ej, tj) = di, dj
    lcm = tuple(map(max, ei, ej))
    si, sj = tuple(map(sub, lcm, ei)), tuple(map(sub, lcm, ej))
    work = {tuple(map(add, x, si)): v for x, v in ti}
    for x, v in tj:
        m = tuple(map(add, x, sj))
        w = work.get(m)
        if w is None:
            work[m] = -v
        else:
            w -= v
            if ring.is_zero(w):
                del work[m]
            else:
                work[m] = w
    return work


def _guard(polys):
    for f in polys:
        if len(f.vars) > MAX_VARIABLES:
            raise OracleResourceError(
                "basis computation supports at most %d variables, got %d"
                % (MAX_VARIABLES, len(f.vars))
            )
        if f.total_degree() > MAX_INPUT_DEGREE:
            raise OracleResourceError(
                "basis computation supports input degree at most %d, got %d"
                % (MAX_INPUT_DEGREE, f.total_degree())
            )


def groebner_basis(gens, order: str = "grevlex"):
    """Reduced, monic basis for the ideal of ``gens``, sorted by decreasing
    leading term."""
    key = order_key(order)
    inputs = [f for f in gens if not f.is_zero()]
    if not inputs:
        return []
    ring = inputs[0].ring
    if not ring.is_field:
        raise ValueError("basis computation needs field coefficients")
    _guard(inputs)

    # divisors[k] is the leading exponent and monic tail of the k-th basis
    # element, built once when it joins; the pair heap is keyed by
    # (key(lcm), i, j), which never changes once the pair is formed
    divisors, pairs = [], []
    entries = _HeapEntries(key)

    def join(terms):
        e, tail = _divisor(terms, ring, key)
        for i, (ei, _) in enumerate(divisors):
            heapq.heappush(pairs, (key(tuple(map(max, ei, e))), i, len(divisors)))
        divisors.append((e, tail))

    for f in inputs:
        join(f.terms)
    processed = 0
    while pairs:
        processed += 1
        if processed > PAIR_BUDGET:
            raise OracleResourceError(
                "basis computation exceeded the pair budget (%d)" % PAIR_BUDGET
            )
        _, i, j = heapq.heappop(pairs)
        if all(min(a, b) == 0 for a, b in zip(divisors[i][0], divisors[j][0])):
            continue  # coprime leading terms: S-polynomial reduces to zero
        r = _reduce(_s_polynomial(divisors[i], divisors[j], ring), divisors, ring, entries)
        if r:
            join(r)

    # Keep the minimal subset, then reduce each element once by the others.
    # In a minimal basis no leading term divides another, so the reduction
    # leaves every leading term and its coefficient 1 in place; one pass
    # therefore gives the unique reduced basis (Cox, Little and O'Shea,
    # Ideals, Varieties, and Algorithms, 2.7).
    keep = []
    for k in sorted(range(len(divisors)), key=lambda k: key(divisors[k][0])):
        if not any(_divides(divisors[m][0], divisors[k][0]) for m in keep):
            keep.append(k)
    minimal = [divisors[k] for k in reversed(keep)]
    vars = inputs[0].vars
    basis = []
    for n, (e, tail) in enumerate(minimal):
        work = dict(tail)
        work[e] = ring.one()
        rem = _reduce(work, minimal[:n] + minimal[n + 1 :], ring, entries)
        basis.append(MultiPoly(ring, vars, rem))
    divisors = [_divisor(g.terms, ring, key) for g in basis]
    for f in inputs:
        if _reduce(dict(f.terms), divisors, ring, entries):
            raise InternalConsistencyError(
                "computed basis fails to reduce an input generator to zero"
            )
    return basis


def ideal_dimension(gens, order: str = "grevlex") -> int:
    """Krull dimension of the quotient by the ideal of ``gens``, read off
    the leading terms of a basis.

    The dimension is the largest size of a variable subset U such that no
    leading-term support is contained in U.  Raises EmptyVariety when the
    ideal is the unit ideal.
    """
    key = order_key(order)
    basis = groebner_basis(gens, order)
    if not basis:
        if not gens:
            raise ValueError("no generators and no ambient variable count")
        return len(gens[0].vars)
    n = len(basis[0].vars)
    supports = []
    for g in basis:
        e, _ = leading_term(g, key)
        if sum(e) == 0:
            raise EmptyVariety("the relations generate the unit ideal; the variety is empty")
        supports.append(frozenset(i for i, x in enumerate(e) if x > 0))
    best = 0
    for mask in range(1 << n):
        u = frozenset(i for i in range(n) if mask >> i & 1)
        if len(u) <= best:
            continue
        if all(not s <= u for s in supports):
            best = len(u)
    return best


def standard_monomial_count(basis, key) -> int:
    """Number of monomials outside the leading-term ideal; -1 when the
    count is infinite (the quotient has positive dimension)."""
    if not basis:
        return -1
    n = len(basis[0].vars)
    lts = [leading_term(g, key)[0] for g in basis]
    if any(sum(e) == 0 for e in lts):
        return 0
    # bound per variable: some leading term must be a pure power of it,
    # otherwise the quotient is infinite-dimensional
    bounds = []
    for i in range(n):
        b = None
        for e in lts:
            if e[i] > 0 and all(x == 0 for j, x in enumerate(e) if j != i):
                b = e[i] if b is None else min(b, e[i])
        if b is None:
            return -1
        bounds.append(b)
    count = 0
    stack = [(0, ())]
    while stack:
        i, prefix = stack.pop()
        if i == n:
            if not any(_divides(lt, prefix) for lt in lts):
                count += 1
            continue
        for e in range(bounds[i]):
            stack.append((i + 1, prefix + (e,)))
    return count
