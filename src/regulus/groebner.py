"""A small Buchberger engine over QQ or GF(p).

Scope is deliberately narrow: the point-checking pipeline only ever asks
for bases of ideals in at most four variables and modest degree, so the
engine refuses anything larger (OracleResourceError) instead of heading
into doubly-exponential territory.  Within that envelope it produces the
unique reduced basis and then re-verifies that every input generator
reduces to zero against it.

Inside the engine every coefficient is a plain int: GF(p) polynomials
already hold residues in [0, p), and ``Fraction`` is met only where QQ
polynomials come in and go out.  A basis element's divisor data, (leading
exponent, leading coefficient, tail), is computed once when it joins: over
QQ for its primitive integer multiple (denominators cleared, content
divided out, leading coefficient positive), over GF(p) for it made monic,
residues in [0, p).

Reduction runs in place on a dict of integer terms, taking the largest
monomial from a heap.  Over QQ it is fraction-free: a term c meets a
divisor with leading coefficient a, g = gcd(a, c), and what is left is
scaled by a/g before (c/g) times the shifted tail is subtracted; the
product of the scalings is returned with the remainder.  Over GF(p) the
divisors are monic, nothing is scaled, and residues are taken as terms
leave the heap.  An S-polynomial is (a_j/g) times one shifted tail minus
(a_i/g) times the other, g = gcd(a_i, a_j).

Every remainder is thus a nonzero constant times the rational one, and a
constant factor changes nothing the algorithm looks at: which terms are
nonzero, so each leading exponent, each divisor a step uses, and whether a
remainder vanishes.  The elements that join, the pairs formed and taken,
and the reduced basis, made monic once at the end, are those of rational
arithmetic.

Pairs are taken smallest lcm of the leading exponents first (the normal
strategy), and the Gebauer-Moeller update (Gebauer and Moeller, "On an
installation of Buchberger's algorithm", 1988) drops, before any
reduction, the pairs whose S-polynomials reduce to zero through pairs with
smaller or equal lcms.  When h joins, of its new pairs (g, h) it drops
those with an lcm that another new lcm properly divides (M); every pair of
an lcm group that holds a pair with coprime leading terms (Buchberger's
product criterion); and in every other group all but the pair with the
newest g (F).  Of the pairs already waiting it drops each (i, j) whose lcm
lt(h) divides and differs from the lcms of (i, h) and of (j, h) (B_k).
The elements that join still make a Groebner basis of the same ideal, and
the reduced basis of an ideal and an order is unique, so the criteria
change only how many S-polynomials are reduced, never the result.
``PAIR_BUDGET`` counts the pairs formed, one per earlier element each time
an element joins, whether or not a criterion then drops them, and
``MAX_REDUCTION_WORK`` the tail terms that the reductions of one call
subtract, each one weighted by the size of the numbers it multiplies.

The monomial order is fixed: graded reverse lexicographic (grevlex), with
the variables in ring order, the order of the default dimension.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm
from operator import add, le, sub

from .errors import EmptyVariety, InternalConsistencyError, OracleResourceError
from .poly import MultiPoly
from .rings import QQ

MAX_VARIABLES = 4
MAX_INPUT_DEGREE = 6
PAIR_BUDGET = 100000
MAX_REDUCTION_WORK = 1000000


def _key(e):
    """Grevlex key of an exponent tuple: tuple order on keys is the order
    of the monomials."""
    return (sum(e), tuple(-x for x in reversed(e)))


def _divides(ea, eb) -> bool:
    return all(x <= y for x, y in zip(ea, eb))


class _HeapEntries(dict):
    """Max-heap entry ``((-degree, reversed exponent), exponent)`` of each
    exponent, computed once on first use: ascending tuple order on entries
    is descending grevlex.  One is made per engine call, and ``work``
    counts the weighted tail terms its reductions have subtracted."""

    work = 0

    def __missing__(self, e):
        entry = self[e] = ((-sum(e), e[::-1]), e)
        return entry


def _to_integers(f: MultiPoly, p):
    """(d, terms): d times f has these integer coefficients; d is the
    common denominator over QQ and 1 over GF(p).  The terms are a new
    dict, which reduction may consume."""
    if p:
        return 1, dict(f.terms)
    d = lcm(*[c.denominator for c in f.terms.values()])
    return d, {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()}


def _from_integers(ring, vars, terms, d) -> MultiPoly:
    """The polynomial with integer ``terms`` divided by d, which is 1 over
    GF(p): every divisor there is monic, so nothing is ever scaled."""
    if ring is QQ:
        return MultiPoly(ring, vars, {e: ring.fraction(c, d) for e, c in terms.items()})
    return MultiPoly(ring, vars, terms)


def _divisor(terms: dict, p):
    """(leading exponent, leading coefficient, tail) of the nonzero integer
    terms, made primitive with a positive leading coefficient over QQ and
    monic over GF(p): what a reduction step by them needs, with the tail as
    (exponent, coefficient) pairs."""
    e = max(terms, key=_key)
    a = terms[e]
    if p:
        inv = pow(a, -1, p)
        return e, 1, [(x, v * inv % p) for x, v in terms.items() if x != e]
    g = gcd(*terms.values())
    if a < 0:
        g = -g
    return e, a // g, [(x, v // g) for x, v in terms.items() if x != e]


def _reduce(work: dict, divisors, p, entries):
    """Full reduction of the integer terms ``work`` by ``divisors``, in
    place.  Returns (remainder, s): the remainder is s times the one
    rational division gives, in decreasing order; s is 1 over GF(p).

    The largest remaining monomial comes off a heap of ``entries``; an
    exponent that has left ``work`` since it was pushed is skipped, and so
    is a zero residue.  The first divisor, in list order, whose leading
    exponent divides it is subtracted; if none does, the term moves to the
    remainder.  Each subtraction adds the divisor's tail length to
    ``entries.work``, times 1 + b // 256 for the b bits of the term's
    coefficient and the divisor's leading one together (1 over GF(p)), as
    the parser weights its products; the count may not exceed
    ``MAX_REDUCTION_WORK``.
    """
    heap = [entries[e] for e in work]
    heapq.heapify(heap)
    rem = {}
    scale = 1
    spent = entries.work
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        if p:
            c %= p
            if not c:
                continue
        for ge, a, tail in divisors:
            if all(map(le, ge, e)):
                spent += len(tail) * (1 + (abs(c).bit_length() + a.bit_length()) // 256)
                if spent > MAX_REDUCTION_WORK:
                    raise OracleResourceError(
                        "basis computation exceeded the reduction work limit (%d terms subtracted)"
                        % MAX_REDUCTION_WORK
                    )
                if a != 1:
                    g = gcd(a, c)
                    if g != a:
                        s = a // g
                        scale *= s
                        for m in work:
                            work[m] *= s
                        for m in rem:
                            rem[m] *= s
                    c //= g
                shift = tuple(map(sub, e, ge))
                for te, tc in tail:
                    m = tuple(map(add, te, shift))
                    v = work.get(m)
                    if v is None:
                        work[m] = -c * tc
                        heapq.heappush(heap, entries[m])
                    else:
                        v -= c * tc
                        if v:
                            work[m] = v
                        else:
                            del work[m]
                break
        else:
            rem[e] = c
    entries.work = spent
    return rem, scale


def normal_form(f: MultiPoly, basis) -> MultiPoly:
    """Remainder of f under full division by the basis: no remainder term
    is divisible by any basis leading term.  Each step uses the first
    basis element, in list order, whose leading term divides.  Raises
    ValueError when a basis element has another ring or variables."""
    for g in basis:
        f._compat(g)
    p = f.ring.modulus
    d, work = _to_integers(f, p)
    divisors = [_divisor(_to_integers(g, p)[1], p) for g in basis]
    rem, scale = _reduce(work, divisors, p, _HeapEntries())
    return _from_integers(f.ring, f.vars, rem, d * scale)


def _s_polynomial(di, dj) -> dict:
    """Integer terms of a nonzero multiple of the S-polynomial of two
    divisors: the leading terms cancel, so it is (a_j/g) times the first
    tail minus (a_i/g) times the second, each shifted up to the lcm of the
    leading exponents."""
    (ei, ai, ti), (ej, aj, tj) = di, dj
    top = tuple(map(max, ei, ej))
    si, sj = tuple(map(sub, top, ei)), tuple(map(sub, top, ej))
    g = gcd(ai, aj)
    bi, bj = aj // g, ai // g
    work = {tuple(map(add, x, si)): bi * v for x, v in ti}
    for x, v in tj:
        m = tuple(map(add, x, sj))
        w = work.get(m)
        if w is None:
            work[m] = -bj * v
        else:
            w -= bj * v
            if w:
                work[m] = w
            else:
                del work[m]
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


def groebner_basis(gens):
    """Reduced, monic grevlex basis for the ideal of ``gens``, sorted by
    decreasing leading term.  Raises ValueError unless every generator has
    the first one's field and variables."""
    for f in gens[1:]:
        gens[0]._compat(f)
    inputs = [f for f in gens if not f.is_zero()]
    if not inputs:
        return []
    ring = inputs[0].ring
    if not ring.is_field:
        raise ValueError("basis computation needs field coefficients")
    _guard(inputs)
    p = ring.modulus
    ints = [_to_integers(f, p)[1] for f in inputs]

    # divisors[k] is the divisor data of the k-th basis element, built once
    # when it joins; a pair on the heap is (_key(lcm), i, j, lcm), taken in
    # the order of (_key(lcm), i, j), which never changes once it is formed
    divisors, pairs = [], []
    entries = _HeapEntries()
    formed = 0

    def join(terms):
        # the Gebauer-Moeller update for the new element h = len(divisors)
        nonlocal formed
        d = _divisor(terms, p)
        eh, h = d[0], len(divisors)
        formed += h
        if formed > PAIR_BUDGET:
            raise OracleResourceError(
                "basis computation exceeded the pair budget (%d)" % PAIR_BUDGET
            )
        lcms = [tuple(map(max, e, eh)) for e, _, _ in divisors]
        # B_k drops a waiting pair (i, j) when lt(h) divides its lcm and
        # that lcm differs from the lcms of (i, h) and (j, h)
        kept = [q for q in pairs if not (
            all(map(le, eh, q[3])) and lcms[q[1]] != q[3] and lcms[q[2]] != q[3]
        )]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # of the new pairs with one lcm, F keeps the one with the newest
        # element; a pair with coprime leading terms (the product criterion)
        # drops its whole group, and so does a new lcm properly dividing its
        # lcm (M)
        last = {m: i for i, m in enumerate(lcms)}
        coprime = {m for (e, _, _), m in zip(divisors, lcms) if not any(map(min, e, eh))}
        for m, i in last.items():
            if m not in coprime and not any(o != m and all(map(le, o, m)) for o in last):
                heapq.heappush(pairs, (_key(m), i, h, m))
        divisors.append(d)

    for terms in ints:
        join(terms)
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        r = _reduce(_s_polynomial(divisors[i], divisors[j]), divisors, p, entries)[0]
        if r:
            join(r)

    # Keep the minimal subset, then reduce each element once by the others.
    # In a minimal basis no leading term divides another, so the reduction
    # leaves every leading term in place; one pass therefore gives the
    # unique reduced basis once each element is made monic (Cox, Little and
    # O'Shea, Ideals, Varieties, and Algorithms, 2.7).
    keep = []
    for k in sorted(range(len(divisors)), key=lambda k: _key(divisors[k][0])):
        if not any(_divides(divisors[m][0], divisors[k][0]) for m in keep):
            keep.append(k)
    minimal = [divisors[k] for k in reversed(keep)]
    vars = inputs[0].vars
    basis, reduced = [], []
    for n, (e, a, tail) in enumerate(minimal):
        work = dict(tail)
        work[e] = a
        rem = _reduce(work, minimal[:n] + minimal[n + 1 :], p, entries)[0]
        basis.append(_from_integers(ring, vars, rem, rem[e]))
        reduced.append(_divisor(rem, p))
    for terms in ints:
        if _reduce(dict(terms), reduced, p, entries)[0]:
            raise InternalConsistencyError(
                "computed basis fails to reduce an input generator to zero"
            )
    return basis


def ideal_dimension(gens) -> int:
    """Krull dimension of the quotient by the ideal of ``gens``, read off
    the leading terms of its grevlex basis.

    The dimension is the largest size of a variable subset U such that no
    leading-term support is contained in U.  Raises EmptyVariety when the
    ideal is the unit ideal.
    """
    basis = groebner_basis(gens)
    if not basis:
        if not gens:
            raise ValueError("no generators and no ambient variable count")
        return len(gens[0].vars)
    n = len(basis[0].vars)
    supports = []
    for g in basis:
        e = max(g.terms, key=_key)
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

