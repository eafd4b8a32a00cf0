"""A small Buchberger engine over QQ or GF(p).

Scope is deliberately narrow: the point-checking pipeline only ever asks
for bases of ideals in at most four variables and modest degree, so the
engine refuses anything larger (OracleResourceError) instead of heading
into doubly-exponential territory.  Within that envelope it produces the
unique reduced basis for the requested order and then re-verifies that
every input generator reduces to zero against it.

Orders are given by key functions on exponent tuples; comparing keys with
tuple order realizes the monomial order.
"""

from __future__ import annotations

import heapq

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


def normal_form(f: MultiPoly, basis, key) -> MultiPoly:
    """Remainder of f under full division by the basis: no remainder term
    is divisible by any basis leading term."""
    ring = f.ring
    rem = {}
    work = f
    lts = [leading_term(g, key) for g in basis]
    while not work.is_zero():
        exps, coeff = leading_term(work, key)
        hit = None
        for g, (ge, gc) in zip(basis, lts):
            if _divides(ge, exps):
                hit = (g, ge, gc)
                break
        if hit is None:
            rem[exps] = coeff
            work = work - MultiPoly(ring, work.vars, {exps: coeff})
        else:
            g, ge, gc = hit
            shift = tuple(a - b for a, b in zip(exps, ge))
            work = work - g.shift(shift).scale(coeff * ring.inv(gc))
    return MultiPoly(ring, f.vars, rem)


def _s_polynomial(f: MultiPoly, ef, g: MultiPoly, eg) -> MultiPoly:
    """S-polynomial of monic f and g with leading exponents ef and eg."""
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    return f.shift(tuple(a - b for a, b in zip(lcm, ef))) - g.shift(
        tuple(a - b for a, b in zip(lcm, eg))
    )


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

    # lts[k] is the leading exponent of basis[k]; the pair heap is keyed by
    # (key(lcm), i, j), which never changes once the pair is formed
    basis, lts, pairs = [], [], []

    def add(f):
        e, c = leading_term(f, key)
        if c != ring.one():
            f = f.scale(ring.inv(c))
        for i, ei in enumerate(lts):
            lcm = tuple(max(a, b) for a, b in zip(ei, e))
            heapq.heappush(pairs, (key(lcm), i, len(basis)))
        basis.append(f)
        lts.append(e)

    for f in inputs:
        add(f)
    processed = 0
    while pairs:
        processed += 1
        if processed > PAIR_BUDGET:
            raise OracleResourceError(
                "basis computation exceeded the pair budget (%d)" % PAIR_BUDGET
            )
        _, i, j = heapq.heappop(pairs)
        if all(min(a, b) == 0 for a, b in zip(lts[i], lts[j])):
            continue  # coprime leading terms: S-polynomial reduces to zero
        r = normal_form(_s_polynomial(basis[i], lts[i], basis[j], lts[j]), basis, key)
        if not r.is_zero():
            add(r)

    # Keep the minimal subset, then reduce each element once by the others.
    # In a minimal basis no leading term divides another, so the reduction
    # leaves every leading term and its coefficient 1 in place; one pass
    # therefore gives the unique reduced basis (Cox, Little and O'Shea,
    # Ideals, Varieties, and Algorithms, 2.7).
    keep = []
    for k in sorted(range(len(basis)), key=lambda k: key(lts[k])):
        if not any(_divides(lts[m], lts[k]) for m in keep):
            keep.append(k)
    basis = [basis[k] for k in reversed(keep)]
    basis = [normal_form(g, basis[:k] + basis[k + 1 :], key) for k, g in enumerate(basis)]
    for f in inputs:
        if not normal_form(f, basis, key).is_zero():
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
