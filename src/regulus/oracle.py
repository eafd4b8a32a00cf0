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
on the canonical monomials M of the triangular system (layer 0) together
with the products M*g_k (layer k + 1).  Freeness follows by counting: the
triangular system is a regular sequence of monic polynomials, so the
associated graded pieces m^0/m^1 and m^1/m^2 have the expected sizes and
the spanning set cannot collapse.  The generators are transported to Z/p^2
and interreduced (``normalized_generators``).

The images rho*M and rho*M*g_k, for rho a relation or p*g_j, span the
denominator of m/(I + m^2) inside A*.  Their coordinate rows come from a
walk, as in FGLM (Faugere, Gianni, Lazard & Mora 1993), not from one
division each.  Multiplication by x_i is block lower-triangular on A*:
x_i*M is again a canonical monomial unless M sits at its top degree
d_i - 1 in x_i, so only those d_t/d_i columns need a normal form from
``triangular_divide``; every other column is an index shift, the same on
every layer.  On layers 1..n a column keeps only its layer-0 part, because
g_j*g_k = 0 in A*.  Each rho is divided once, and the row of rho*M is the
row of rho*M/x_i times x_i (i the last variable of M).  A* being free, an
element has one coordinate vector, so the walked rows equal those that
dividing every rho*M would give, entry for entry mod p^2.

The rows of rho*M*g_k are never formed, because the walked rows already
span them.  Every relation rho lies in m = (p, g), so
rho = p*a + sum_j b_j*g_j, and as g_j*g_k = 0 in A*, rho*M*g_k = p*a*M*g_k.
Reducing a*M modulo (g) gives a*M = sum c_M' * M' + sum_j q_j*g_j, so
rho*M*g_k = sum c_M' * (p*g_k*M'), which lies in the span of the walked
rows of rho' = p*g_k.  For rho = p*g_j, (p*g_j)*M*g_k = 0 outright.

One plain-int elimination with unit pivots (``_unit_sweep``) counts the
quotient exactly.  It runs twice: over Z/p^2, which leaves rows that are
all divisible by p, and then over Z/p on those rows divided by p, where
every nonzero entry is a unit, so its pivot count is their F_p rank.  The
u unit pivot rows span a free module of length 2u, and the residual lies
in p*F, where length is F_p rank, so 2u + r_p is the length of the row
module: the order of the rows and of the pivots, and repeated rows, cannot
change it.  A column, once eliminated, is deleted, so later row updates
get shorter.
"""

from __future__ import annotations

from itertools import product as _iterproduct

from .errors import InternalConsistencyError, OracleResourceError, PointNotOnVariety
from .groebner import groebner_basis, order_key, standard_monomial_count
from .poly import (
    MultiPoly,
    TriangularPoint,
    _divide_single,
    membership_certificate,
    triangular_divide,
)
from .rings import ZZ, ModularRing

# The Z/p^2 count over ZZ forms (r + n)*d_t rows of (n + 1)*d_t entries for
# r relations, n variables and residue degree d_t; its memory grows as d_t^2
# and its time as d_t^3, so the matrix is bounded before any of it is formed.
MAX_ORACLE_ENTRIES = 10**6


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
        cur = MultiPoly(ring, g.vars, g.terms) if g.ring is ZZ else g
        for j in reversed(range(i)):
            _, cur = _divide_single(cur, ghat[j], j)
        ghat.append(cur)
    return ghat


def _canonical_monomials(degrees):
    return list(_iterproduct(*(range(d) for d in degrees)))


def _oracle_rows(point: TriangularPoint, relations) -> list:
    """Coordinates in A*, reduced mod p^2, of rho*M for every generator rho
    of I + p*m and canonical monomial M."""
    p = point.prime
    m2 = p * p
    ring = ModularRing(m2)
    n = point.n
    ghat = normalized_generators(point, ring)
    system = TriangularPoint(tuple(ghat))
    degrees = [g.degree_in(i) for i, g in enumerate(ghat)]
    monomials = _canonical_monomials(degrees)
    d_t = len(monomials)
    index_of = {mono: k for k, mono in enumerate(monomials)}
    width = (n + 1) * d_t

    def nf2_vector(h):
        quotients, rem = triangular_divide(h, system)
        vec = [0] * width
        for e, c in rem.terms.items():
            vec[index_of[e]] = c
        for k, q in enumerate(quotients):
            _, qrem = triangular_divide(q, system)
            for e, c in qrem.terms.items():
                vec[(k + 1) * d_t + index_of[e]] = c
        return vec

    # Multiplication by x_i on A*.  M[j] steps to M[j + strides[i]] unless it
    # is at its top degree in x_i; then tops[i][j] lists the nonzero entries
    # of x_i*M[j]: all of them on layer 0, only the M part on layers 1..n.
    strides = [1] * n
    for i in reversed(range(n - 1)):
        strides[i] = strides[i + 1] * degrees[i + 1]
    tops = []
    for i, d in enumerate(degrees):
        cols = [None] * d_t
        for j, mono in enumerate(monomials):
            if mono[i] == d - 1:
                top = MultiPoly(ring, point.vars, {mono[:i] + (d,) + mono[i + 1 :]: 1})
                full = [(k, a) for k, a in enumerate(nf2_vector(top)) if a]
                cols[j] = (full, [(k, a) for k, a in full if k < d_t])
        tops.append(cols)

    def times(vec, i):
        out = [0] * width
        step, cols = strides[i], tops[i]
        for j, c in enumerate(vec):
            if c:
                layer, r = divmod(j, d_t)
                if cols[r] is None:
                    out[j + step] += c
                else:
                    off = layer * d_t
                    for k, a in cols[r][1] if layer else cols[r][0]:
                        out[off + k] += c * a
        return [x % m2 for x in out]

    # every monomial but 1 is its predecessor times x_i, i its last variable
    last = [max(i for i, e in enumerate(mono) if e) for mono in monomials[1:]]
    mod_relations = [MultiPoly(ring, f.vars, f.terms) for f in relations]
    rows = []
    for rho in mod_relations + [g.scale(p) for g in ghat]:
        walked = [nf2_vector(rho)]
        for j, i in enumerate(last, 1):
            walked.append(times(walked[j - strides[i]], i))
        rows.extend(walked)
    return rows


def _arithmetic_cotangent(point: TriangularPoint, relations) -> int:
    n, d_t = point.n, point.residue_degree
    width = (n + 1) * d_t
    entries = (len(relations) + n) * d_t * width
    if entries > MAX_ORACLE_ENTRIES:
        raise OracleResourceError(
            "the Z/p^2 count needs %d matrix entries, above the limit of %d"
            % (entries, MAX_ORACLE_ENTRIES)
        )
    rows = _oracle_rows(point, relations)
    log_quotient = 2 * width - _row_module_length(rows, point.prime)
    log_residue = d_t  # [kappa : F_p] = product of level degrees
    s = log_quotient - log_residue
    if s < 0 or s % d_t != 0:
        raise InternalConsistencyError(
            "cotangent length %d is not a multiple of the residue degree %d"
            % (s, d_t)
        )
    return s // d_t


def _row_module_length(rows, p):
    """Length over Z/p^2 of the module spanned by ``rows``."""
    u, residual = _unit_sweep(rows, p, p * p)
    r_p, _ = _unit_sweep([[x // p for x in r] for r in residual], p, p)
    return 2 * u + r_p


def _clear(rows, ci, pivot, m):
    """``rows`` with column ci eliminated by ``pivot`` (1 there, the column
    already popped off it) and deleted; zero rows are dropped."""
    out = []
    for r in rows:
        f = r.pop(ci)
        if f:
            r = [(a - f * b) % m for a, b in zip(r, pivot)]
            if not any(r):
                continue
        out.append(r)
    return out


def _unit_sweep(rows, p, m):
    """Eliminate over Z/m, for m = p or p^2, using unit pivots only.

    Returns (u, residual): u unit-pivot steps were possible, and afterwards
    every entry of every remaining row is divisible by p.  An eliminated
    column is zero from then on, so it is deleted from the pivot row and
    from every other row: the residual rows come back without the pivot
    columns.  A row with no unit entry never gains one, so it is searched
    once."""
    # popped from the end, so rows are searched in the order given
    pending = [rr for rr in ([x % m for x in r] for r in reversed(rows)) if any(rr)]
    residual = []
    u = 0
    while pending:
        row = pending.pop()
        ci = next((c for c, x in enumerate(row) if x % p), None)
        if ci is None:
            residual.append(row)
            continue
        inv = pow(row.pop(ci), -1, m)
        row = [(x * inv) % m for x in row]
        pending = _clear(pending, ci, row, m)
        residual = _clear(residual, ci, row, m)
        u += 1
    return u, residual


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
    residue_degree = point.residue_degree
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
