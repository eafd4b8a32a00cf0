"""Independent cotangent-space measurement.

The main pipeline decides regularity from ranks of derivative matrices.
This module answers the same question by brute force, straight from the
definition: compute the length of m/(I + m^2) at the point and divide by
the residue degree.  Nothing here shares code with the rank path beyond
polynomial division (``poly.triangular_divide``), which makes it a
meaningful cross-check.

Every base is counted in the finite ring A* = R[t]/(gg products), with
R = Z/p^2 over ZZ and R = K over a field K.  A* is a free R-module on the
canonical monomials M of the triangular system (layer 0) together with the
products M*g_k (layer k + 1).  Freeness follows by counting: the
triangular system is a regular sequence of monic polynomials, so the
associated graded pieces m^0/m^1 and m^1/m^2 have the expected sizes and
the spanning set cannot collapse.  The generators are transported to R and
interreduced (``normalized_generators``).

The images rho*M, for rho a relation (and over ZZ also p*g_j), span the
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
dividing every rho*M would give, entry for entry.

The rows of rho*M*g_k are never formed, because the walked rows already
span them.  Over a field every relation rho lies in m = (g), so
rho = sum_j b_j*g_j and rho*M*g_k = 0 in A*: the relation rows alone span
the image of I, and the cotangent dimension is
((n + 1)*d_t - rank - d_t) / d_t.  Over ZZ, rho lies in m = (p, g), so
rho = p*a + sum_j b_j*g_j and rho*M*g_k = p*a*M*g_k.  Reducing a*M modulo
(g) gives a*M = sum c_M' * M' + sum_j q_j*g_j, so
rho*M*g_k = sum c_M' * (p*g_k*M'), which lies in the span of the walked
rows of rho' = p*g_k.  For rho = p*g_j, (p*g_j)*M*g_k = 0 outright.

One plain-int elimination with unit pivots (``_unit_sweep``) gives the
rank over GF(p).  Over ZZ it runs twice: over Z/p^2, which leaves rows that
are all divisible by p, and then over Z/p on those rows divided by p, where
every nonzero entry is a unit, so its pivot count is their F_p rank.  The
u unit pivot rows span a free module of length 2u, and the residual lies
in p*F, where length is F_p rank, so 2u + r_p is the length of the row
module: the order of the rows and of the pivots, and repeated rows, cannot
change it.  Row updates touch only the pivot row's nonzero columns, and an
eliminated column is deleted.  Over QQ the rank comes from an exact integer
elimination (``_rational_rank``) that divides each updated row by its content.
"""

from __future__ import annotations

from itertools import product as _iterproduct
from math import gcd, lcm

from .errors import InternalConsistencyError, OracleResourceError, PointNotOnVariety
from .poly import (
    MultiPoly,
    TriangularPoint,
    _divide,
    _level,
    membership_certificate,
    triangular_divide,
)
from .rings import ZZ, ModularRing

# The count forms r*d_t rows over a field, (r + n)*d_t over ZZ, of
# (n + 1)*d_t entries for r relations, n variables and residue degree d_t;
# its memory grows as d_t^2 and its time as d_t^3, so the matrix is bounded
# before any of it is formed.  A field point has at most MAX_FIELD_VARIABLES
# variables, the Groebner dimension supplier's bound too, so a field job's
# variable limit does not depend on whether it supplies dim.
MAX_ORACLE_ENTRIES = 10**6
MAX_FIELD_VARIABLES = 4


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
    for g in point.generators:
        cur = MultiPoly(ring, g.vars, g.terms) if g.ring is ZZ else g
        ghat.append(_divide(cur, [_level(h, j) for j, h in enumerate(ghat)])[1])
    return ghat


def _canonical_monomials(degrees):
    return list(_iterproduct(*(range(d) for d in degrees)))


def _oracle_rows(point: TriangularPoint, relations) -> list:
    """Coordinates in A* of rho*M for every canonical monomial M and every
    rho: over ZZ each generator of I + p*m, reduced mod p^2; over a field
    each relation."""
    p = point.prime
    ring = point.ring if p is None else ModularRing(p * p)
    m = ring.modulus
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
        return [x % m for x in out] if m else out

    # every monomial but 1 is its predecessor times x_i, i its last variable
    last = [max(i for i, e in enumerate(mono) if e) for mono in monomials[1:]]
    rhos = relations
    if p is not None:
        rhos = [MultiPoly(ring, f.vars, f.terms) for f in rhos] + [g.scale(p) for g in ghat]
    rows = []
    for rho in rhos:
        walked = [nf2_vector(rho)]
        for j, i in enumerate(last, 1):
            walked.append(times(walked[j - strides[i]], i))
        rows.extend(walked)
    return rows


def _row_module_length(rows, p):
    """Length over Z/p^2 of the module spanned by ``rows``."""
    u, residual = _unit_sweep(rows, p, p * p)
    r_p, _ = _unit_sweep([[x // p for x in r] for r in residual], p, p)
    return 2 * u + r_p


def _rational_rank(rows):
    """Rank over QQ of rows of Fractions and ints.  Each row is made a
    primitive integer row, and every row a pivot updates is divided by its
    content again, so no entry outgrows the minors it stands for."""
    pending = []
    for r in rows:
        d = lcm(*[x.denominator for x in r])
        r = [x.numerator * (d // x.denominator) for x in r]
        c = gcd(*r)
        if c:
            pending.append([x // c for x in r])
    rank = 0
    while pending:
        row = pending.pop()
        ci = next(c for c, x in enumerate(row) if x)
        a = row.pop(ci)
        out = []
        for r in pending:
            f = r.pop(ci)
            if f:
                g = gcd(a, f)
                r = [(a // g) * x - (f // g) * y for x, y in zip(r, row)]
                c = gcd(*r)
                if not c:
                    continue
                if c > 1:
                    r = [x // c for x in r]
            out.append(r)
        pending = out
        rank += 1
    return rank


def _clear(rows, ci, support, m):
    """``rows`` with column ci eliminated by a unit pivot (1 at ci) and deleted,
    updating only its ``support``, nonzero (column, entry) pairs; drops zero rows."""
    out = []
    for r in rows:
        f = r.pop(ci)
        if f:
            for j, b in support:
                r[j] = (r[j] - f * b) % m
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
        support = [(j, x * inv % m) for j, x in enumerate(row) if x]
        pending = _clear(pending, ci, support, m)
        residual = _clear(residual, ci, support, m)
        u += 1
    return u, residual


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
    n, d_t, p = point.n, point.residue_degree, point.prime
    if p is None and n > MAX_FIELD_VARIABLES:
        raise OracleResourceError(
            "the cotangent count over a field supports at most %d variables, got %d"
            % (MAX_FIELD_VARIABLES, n)
        )
    width = (n + 1) * d_t
    entries = (len(relations) + (n if p else 0)) * d_t * width
    if entries > MAX_ORACLE_ENTRIES:
        raise OracleResourceError(
            "the %s count needs %d matrix entries, above the limit of %d"
            % ("Z/p^2" if p else point.ring.name, entries, MAX_ORACLE_ENTRIES)
        )
    rows = _oracle_rows(point, relations)
    q = point.ring.modulus
    if p is not None:
        # lengths over Z/p^2, where a free module of rank w has length 2*w
        length = 2 * width - _row_module_length(rows, p)
    elif q:
        length = width - _unit_sweep(rows, q, q)[0]
    else:
        length = width - _rational_rank(rows)
    # the residue field has length d_t, the product of the level degrees
    s = length - d_t
    if s < 0 or s % d_t != 0:
        raise InternalConsistencyError(
            "cotangent length %d is not a multiple of the residue degree %d"
            % (s, d_t)
        )
    return s // d_t
