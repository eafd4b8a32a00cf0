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
monomial, leading coefficient, tail), is computed once when it joins: over
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
the variables in ring order, the order of the default dimension.  Inside
the engine a monomial is one int (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", 1998): for n variables,
a field width W and M = 2^(W-1) - 1, the exponent vector e packs to
K(e) = deg(e)*2^(W*n) + sum_j (M - e_j)*2^(W*j), the last variable in the
highest field below the degree.  While every e_j is at most M, each field
holds M - e_j with its top bit, the guard, clear.  K is then exact, and
its int order is grevlex: degree first, then the highest differing field,
where the larger field is the smaller last exponent.  K is affine, so
K(t) + K(e) - K(g) = K(t + e - g): a tail is kept as offsets K(t) - K(g),
and a shifted tail term is one addition.  The fields of K(g) - K(e) are
e_j - g_j, all in [0, M] when g divides e; otherwise the lowest negative
one borrows and sets its guard (``&`` reads a negative int in two's
complement), so g divides e exactly when (K(g) - K(e)) & GUARD is 0.
Grevlex is graded and a reduction forms only terms below its leading one,
so never a degree above its starting terms: the inputs of a normal form,
the pair's lcm for an S-polynomial.  Each call takes M at least eight times
its largest input degree, so a normal form never refuses; ``groebner_basis``
refuses a pair whose lcm degree exceeds M.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

from .errors import EmptyVariety, InternalConsistencyError, OracleResourceError
from .poly import MultiPoly
from .rings import QQ

MAX_VARIABLES = 4
MAX_INPUT_DEGREE = 6
PAIR_BUDGET = 100000
MAX_REDUCTION_WORK = 1000000


def _width(degree):
    """The smallest field width W with M = 2^(W-1) - 1 at least 8 * degree."""
    return (8 * degree).bit_length() + 1


def _packing(n, w):
    """(pack, unpack, GUARD) of the encoding K of n exponents in fields of w bits."""
    top, mask = (1 << w - 1) - 1, (1 << w) - 1

    def pack(e):
        k = sum(e)
        for x in reversed(e):
            k = (k << w) + top - x
        return k

    def unpack(k):
        return tuple(top - (k >> w * j & mask) for j in range(n))

    return pack, unpack, sum(1 << w * j + w - 1 for j in range(n))


def _to_integers(f: MultiPoly, p, pack):
    """(d, terms): d times f has these integer coefficients, with packed
    monomials; d is the common denominator over QQ and 1 over GF(p).  The
    terms are a new dict, which reduction may consume."""
    if p:
        return 1, {pack(e): c for e, c in f.terms.items()}
    d = lcm(*[c.denominator for c in f.terms.values()])
    return d, {pack(e): c.numerator * (d // c.denominator) for e, c in f.terms.items()}


def _from_integers(ring, vars, terms, d, unpack) -> MultiPoly:
    """The polynomial with integer ``terms`` divided by d, which is 1 over
    GF(p): every divisor there is monic, so nothing is ever scaled."""
    if ring is QQ:
        return MultiPoly(ring, vars, {unpack(k): ring.fraction(c, d) for k, c in terms.items()})
    return MultiPoly(ring, vars, {unpack(k): c for k, c in terms.items()})


def _divisor(terms: dict, p):
    """(leading monomial, leading coefficient, tail) of the nonzero integer
    terms, made primitive with a positive leading coefficient over QQ and
    monic over GF(p): what a reduction step by them needs, with the tail as
    (offset from the leading monomial, coefficient) pairs."""
    e = max(terms)
    a = terms[e]
    if p:
        inv = pow(a, -1, p)
        return e, 1, [(x - e, v * inv % p) for x, v in terms.items() if x != e]
    g = gcd(*terms.values())
    if a < 0:
        g = -g
    return e, a // g, [(x - e, v // g) for x, v in terms.items() if x != e]


def _reduce(work: dict, divisors, p, guard, spent):
    """Full reduction of the integer terms ``work`` by ``divisors``, in
    place.  Returns (remainder, s, spent): the remainder is s times the one
    rational division gives, in decreasing order; s is 1 over GF(p).

    The largest remaining monomial comes off a heap of negated monomials;
    one that has left ``work`` since it was pushed is skipped, and so is a
    zero residue.  The first divisor, in list order, whose leading monomial
    divides it is subtracted; if none does, the term moves to the
    remainder.  Each subtraction adds the divisor's tail length to
    ``spent``, times 1 + b // 256 for the b bits of the term's coefficient
    and the divisor's leading one together (1 over GF(p)), as the parser
    weights its products; the count may not exceed ``MAX_REDUCTION_WORK``.
    """
    heap = [-e for e in work]
    heapq.heapify(heap)
    rem = {}
    scale = 1
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        if p:
            c %= p
            if not c:
                continue
        for ge, a, tail in divisors:
            if not (ge - e) & guard:
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
                for t, tc in tail:
                    m = e + t
                    v = work.get(m)
                    if v is None:
                        work[m] = -c * tc
                        heapq.heappush(heap, -m)
                    else:
                        v -= c * tc
                        if v:
                            work[m] = v
                        else:
                            del work[m]
                break
        else:
            rem[e] = c
    return rem, scale, spent


def normal_form(f: MultiPoly, basis) -> MultiPoly:
    """Remainder of f under full division by the basis: no remainder term
    is divisible by any basis leading term.  Each step uses the first
    basis element, in list order, whose leading term divides.  Raises
    ValueError when a basis element has another ring or variables."""
    for g in basis:
        f._compat(g)
    p = f.ring.modulus
    degree = max(g.total_degree() for g in [f, *basis])
    pack, unpack, guard = _packing(len(f.vars), _width(degree))
    d, work = _to_integers(f, p, pack)
    divisors = [_divisor(_to_integers(g, p, pack)[1], p) for g in basis]
    rem, scale, _ = _reduce(work, divisors, p, guard, 0)
    return _from_integers(f.ring, f.vars, rem, d * scale, unpack)


def _s_polynomial(top, di, dj) -> dict:
    """Integer terms of a nonzero multiple of the S-polynomial of two
    divisors whose leading monomials have the lcm ``top``: the leading
    terms cancel, so it is (a_j/g) times the first tail minus (a_i/g) times
    the second, each shifted up to ``top``."""
    (_, ai, ti), (_, aj, tj) = di, dj
    g = gcd(ai, aj)
    bi, bj = aj // g, ai // g
    work = {top + x: bi * v for x, v in ti}
    for x, v in tj:
        m = top + x
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
    decreasing leading term, each element's terms in decreasing order.
    Raises ValueError unless every generator has the first one's field and
    variables."""
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
    w = _width(max(f.total_degree() for f in inputs))
    capacity = (1 << w - 1) - 1
    pack, unpack, guard = _packing(len(inputs[0].vars), w)
    ints = [_to_integers(f, p, pack)[1] for f in inputs]

    # divisors[k] is the divisor data of the k-th basis element, built once
    # when it joins, and lts[k] its leading exponent; a pair on the heap is
    # (lcm, i, j), lcm packed, taken in that order, which never changes once
    # it is formed
    divisors, lts, pairs = [], [], []
    spent = formed = 0

    def join(terms):
        # the Gebauer-Moeller update for the new element h = len(divisors)
        nonlocal formed
        d = _divisor(terms, p)
        kh, eh, h = d[0], unpack(d[0]), len(divisors)
        formed += h
        if formed > PAIR_BUDGET:
            raise OracleResourceError(
                "basis computation exceeded the pair budget (%d)" % PAIR_BUDGET
            )
        lcms = [tuple(map(max, e, eh)) for e in lts]
        degree = max(map(sum, lcms), default=0)
        if degree > capacity:
            raise OracleResourceError(
                "basis computation supports pair degree at most %d, got %d" % (capacity, degree)
            )
        lcms = list(map(pack, lcms))
        coprime = {m for e, m in zip(lts, lcms) if not any(map(min, e, eh))}
        # B_k drops a waiting pair (i, j) when lt(h) divides its lcm and
        # that lcm differs from the lcms of (i, h) and (j, h)
        kept = [q for q in pairs if not (
            not (kh - q[0]) & guard and lcms[q[1]] != q[0] and lcms[q[2]] != q[0]
        )]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # of the new pairs with one lcm, F keeps the one with the newest
        # element; a pair with coprime leading terms (the product criterion)
        # drops its whole group, and so does a new lcm properly dividing its
        # lcm (M)
        last = {m: i for i, m in enumerate(lcms)}
        for m, i in last.items():
            if m not in coprime and not any(o != m and not (o - m) & guard for o in last):
                heapq.heappush(pairs, (m, i, h))
        divisors.append(d)
        lts.append(eh)

    for terms in ints:
        join(terms)
    while pairs:
        m, i, j = heapq.heappop(pairs)
        r, _, spent = _reduce(_s_polynomial(m, divisors[i], divisors[j]), divisors, p, guard, spent)
        if r:
            join(r)

    # Keep the minimal subset, then reduce each element once by the others.
    # In a minimal basis no leading term divides another, so the reduction
    # leaves every leading term in place; one pass therefore gives the
    # unique reduced basis once each element is made monic (Cox, Little and
    # O'Shea, Ideals, Varieties, and Algorithms, 2.7).
    keep = []
    for k in sorted(range(len(divisors)), key=lambda k: divisors[k][0]):
        if all((divisors[m][0] - divisors[k][0]) & guard for m in keep):
            keep.append(k)
    minimal = [divisors[k] for k in reversed(keep)]
    vars = inputs[0].vars
    basis, reduced = [], []
    for k, (e, a, tail) in enumerate(minimal):
        work = {e + t: v for t, v in tail}
        work[e] = a
        rem, _, spent = _reduce(work, minimal[:k] + minimal[k + 1 :], p, guard, spent)
        basis.append(_from_integers(ring, vars, rem, rem[e], unpack))
        reduced.append(_divisor(rem, p))
    for terms in ints:
        rem, _, spent = _reduce(dict(terms), reduced, p, guard, spent)
        if rem:
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
        e = next(iter(g.terms))
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

