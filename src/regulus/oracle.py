"""Independent cotangent-space measurement.

The main pipeline decides regularity from ranks of derivative matrices.
This module answers the same question by brute force, straight from the
definition: compute the length of m/(I + m^2) at the point and divide by
the residue degree.  Nothing here shares code with the rank path beyond
polynomial division (``poly.triangular_divide``), which makes it a
meaningful cross-check.

Over a field base the quotient is handled with a Groebner basis: the
K-dimension of K[t]/(I + m^2) is the number of standard monomials, and
subtracting one copy of the residue field gives the cotangent dimension.

Over ZZ the local ring is not a K-algebra, so instead we work in the
finite ring A* = (Z/p^2)[t]/(gg products), which is a free Z/p^2-module
on the canonical monomials M of the triangular system together with the
products M*g_k.  Freeness follows by counting: the triangular system is a
regular sequence of monic polynomials, so the associated graded pieces
m^0/m^1 and m^1/m^2 have the expected sizes and the spanning set cannot
collapse.  Normal forms in A* come from ``triangular_divide`` by the
generators transported to Z/p^2 and interreduced (``normalized_generators``).
The images of the relations and of p*g_j span the denominator
of m/(I + m^2) inside A*, and one plain-int elimination with unit pivots
(``_unit_sweep``) counts the quotient exactly.  It runs twice: over Z/p^2,
which leaves rows that are all divisible by p, and then over Z/p on those
rows divided by p, where every nonzero entry is a unit, so its pivot count
is their F_p rank.
"""

from __future__ import annotations

from itertools import product as _iterproduct

from .errors import InternalConsistencyError, PointNotOnVariety
from .groebner import groebner_basis, order_key, standard_monomial_count
from .poly import (
    MultiPoly,
    TriangularPoint,
    _divide_single,
    membership_certificate,
    triangular_divide,
)
from .rings import ZZ


class _ModRing:
    """Z/m with plain-int elements; reduction happens on read, not on every
    operation, which is exact because the representatives stay integers."""

    is_field = False

    def __init__(self, m: int):
        self.m = m
        self.name = "Z/%d" % m

    def from_int(self, n: int) -> int:
        return n % self.m

    def coerce(self, c) -> int:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError("expected an integer coefficient")
        return c % self.m

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def is_zero(self, a) -> bool:
        return a % self.m == 0

    def elem_str(self, a) -> str:
        return str(a % self.m)

    def __eq__(self, other):
        return isinstance(other, _ModRing) and self.m == other.m

    def __hash__(self):
        return hash(("mod-ring", self.m))


def _require_on_variety(point, relations):
    for f in relations:
        if not membership_certificate(f, point):
            raise PointNotOnVariety(
                "relation %s does not vanish at the point" % f
            )


def normalized_generators(point: TriangularPoint, ring) -> list:
    """The triangular generators, transported to ``ring`` and interreduced:
    each one canonical (degree below each lower level degree) in the lower
    variables, still monic of the same degree in its own."""
    ghat = []
    for i, g in enumerate(point.generators):
        cur = g.convert(ring, ring.coerce) if g.ring is ZZ else g
        for j in reversed(range(i)):
            _, cur = _divide_single(cur, ghat[j], j)
        ghat.append(cur)
    return ghat


def _canonical_monomials(degrees):
    return list(_iterproduct(*(range(d) for d in degrees)))


def _arithmetic_cotangent(point: TriangularPoint, relations) -> int:
    p = point.prime
    m2 = p * p
    ring = _ModRing(m2)
    n = point.n
    ghat = normalized_generators(point, ring)
    system = TriangularPoint(tuple(ghat))
    degrees = [g.degree_in(i) for i, g in enumerate(ghat)]
    monomials = _canonical_monomials(degrees)
    d_t = 1
    for d in degrees:
        d_t *= d
    index_of = {mono: k for k, mono in enumerate(monomials)}
    width = (n + 1) * d_t

    def nf2_vector(h):
        quotients, rem = triangular_divide(h, system)
        vec = [0] * width
        for e, c in rem.terms.items():
            vec[index_of[e]] = c % m2
        for k, q in enumerate(quotients):
            _, qrem = triangular_divide(q, system)
            for e, c in qrem.terms.items():
                vec[(k + 1) * d_t + index_of[e]] = c % m2
        return vec

    def layer_vector(h, layer):
        # h * (M * ghat_layer) reduces to NF(h*M) placed on that layer,
        # because all products ghat_j * ghat_k vanish in A*
        _, rem = triangular_divide(h, system)
        vec = [0] * width
        for e, c in rem.terms.items():
            vec[(layer + 1) * d_t + index_of[e]] = c % m2
        return vec

    mod_relations = [f.convert(ring, ring.coerce) for f in relations]
    row_gens = mod_relations + [g.scale(p) for g in ghat]

    rows = []
    for rho in row_gens:
        for mono in monomials:
            mpoly = MultiPoly(ring, point.vars, {mono: 1})
            rows.append(nf2_vector(rho * mpoly))
            shifted = rho.shift(mono)
            for layer in range(n):
                rows.append(layer_vector(shifted, layer))

    u, residual = _unit_sweep(rows, p, m2)
    r_p, _ = _unit_sweep([[x // p for x in r] for r in residual], p, p)

    log_quotient = 2 * width - (2 * u + r_p)
    log_residue = d_t  # [kappa : F_p] = product of level degrees
    s = log_quotient - log_residue
    if s < 0 or s % d_t != 0:
        raise InternalConsistencyError(
            "cotangent length %d is not a multiple of the residue degree %d"
            % (s, d_t)
        )
    return s // d_t


def _unit_sweep(rows, p, m):
    """Eliminate over Z/m, for m = p or p^2, using unit pivots only.

    Returns (u, residual): u unit-pivot steps were possible, and afterwards
    every entry of every remaining row is divisible by p."""
    pending = []
    for r in rows:
        rr = [x % m for x in r]
        if any(rr):
            pending.append(rr)
    u = 0
    while True:
        hit = None
        for ri, row in enumerate(pending):
            for ci, x in enumerate(row):
                if x % p:
                    hit = (ri, ci)
                    break
            if hit:
                break
        if hit is None:
            return u, pending
        ri, ci = hit
        row = pending.pop(ri)
        inv = pow(row[ci], -1, m)
        row = [(x * inv) % m for x in row]
        nxt = []
        for other in pending:
            f = other[ci]
            if f:
                other = [(a - f * b) % m for a, b in zip(other, row)]
            if any(other):
                nxt.append(other)
        pending = nxt
        u += 1


def _geometric_cotangent(point: TriangularPoint, relations) -> int:
    ring = point.ring
    gens = list(relations)
    gcount = len(point.generators)
    for i in range(gcount):
        for j in range(i, gcount):
            gens.append(point.generators[i] * point.generators[j])
    key = order_key("grevlex")
    basis = groebner_basis(gens, "grevlex")
    total = standard_monomial_count(basis, key)
    if total <= 0:
        raise InternalConsistencyError(
            "cotangent quotient came out empty or infinite at a genuine point"
        )
    residue_degree = 1
    for i, g in enumerate(point.generators):
        residue_degree *= g.degree_in(i)
    if total % residue_degree != 0:
        raise InternalConsistencyError(
            "quotient length %d is not a multiple of the residue degree %d"
            % (total, residue_degree)
        )
    return total // residue_degree - 1


def cotangent_dimension(point: TriangularPoint, relations) -> int:
    """dim over the residue field of m/(I + m^2), computed from scratch.

    ``relations`` generate I; they must vanish at the point.  The point is
    arithmetic (over ZZ with a prime) or geometric (over QQ or GF(p)), and
    the ambient coordinate ring matches the relations."""
    point.check()
    for f in relations:
        if f.vars != point.vars or f.ring != point.ring:
            raise ValueError("relation and point disagree on variables or ring")
    _require_on_variety(point, relations)
    if point.prime is not None:
        return _arithmetic_cotangent(point, relations)
    return _geometric_cotangent(point, relations)
