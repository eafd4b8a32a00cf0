"""Independent cotangent-space measurement.

The main pipeline decides regularity from ranks of derivative matrices.
This module answers the same question by brute force, straight from the
definition: compute the length of m/(I + m^2) at the point and divide by
the residue degree.  Nothing here shares code with the rank path beyond
polynomial division (``poly._divide`` and ``poly._level``), which makes it a
meaningful cross-check.  Even whether the point lies on the variety is read
from the oracle's own rows: layer 0 of a relation's first row is its
remainder modulo the generators over R, which vanishes over a field, and is
divisible by p over ZZ, exactly when the relation lies in m.  Remainders by
a monic triangular system are unique, so this is the rank path's test.

Every base is counted in the finite ring A* = R[t]/(gg products), with
R = Z/p^2 over ZZ and R = K over a field K.  A* is a free R-module on the
canonical monomials M of the triangular system (layer 0) together with the
products M*g_k (layer k + 1).  Freeness follows by counting: the
triangular system is a regular sequence of monic polynomials, so the
associated graded pieces m^0/m^1 and m^1/m^2 have the expected sizes and
the spanning set cannot collapse.  The generators are transported to R and
interreduced (``normalized_generators``); every element of R[t] is a term
dict with coefficients in R, plain ints mod m or Fractions over QQ.

The images rho*M, for rho a relation and M a canonical monomial, span
the image of I inside A*.  Their coordinate rows come from a
walk, as in FGLM (Faugere, Gianni, Lazard & Mora 1993), not from one
division each.  Multiplication by x_i is block lower-triangular on A*:
x_i*M is again a canonical monomial, an index shift the same on every
layer, unless M sits at its top degree d_i - 1 in x_i.  Those d_t/d_i
columns need no division either.  Interreduction leaves the tail
g_i - x_i^d_i canonical, so x_i^d_i has the coordinates of g_i, a unit
of layer i + 1, minus those of the tail.  A top M is L*x_i^(d_i - 1)*U,
with L in x_1..x_(i-1) and U in x_(i+1)..x_n.  Built for x_1 first, the
maps of the lower variables give x_i^d_i*L as x_i^d_i*(L/x_k) times x_k,
and times U is an index shift, because no coordinate of x_i^d_i*L
involves x_(i+1)..x_n.  On layers 1..n a column keeps only its layer-0
part, because g_j*g_k = 0 in A*.  The only divisions are the n that
interreduce the generators and 1 + n per relation: rho and its n
quotients give the row of rho, and the row of rho*M is the row of
rho*M/x_i times x_i (i the last variable of M).  A* being free, an
element has one coordinate vector, so the walked rows equal those that
dividing every rho*M would give, entry for entry.

The rows of rho*M*g_k are never formed, because the walked rows already
span them.  Over a field every relation rho lies in m = (g), so
rho = sum_j b_j*g_j and rho*M*g_k = 0 in A*: the relation rows alone span
the image of I, and the cotangent dimension is
((n + 1)*d_t - rank - d_t) / d_t.

Over ZZ, where m = (p, g), the denominator's image in A* is I + p*m.
Let F = (Z/p^2)^W, with W = (n + 1)*d_t, be A*, and F_B its layers 1..n.
M*g_j is a basis element of A*, so the rows of p*g_j*M are p times the
unit vectors of F_B: they span p*F_B and need no walk.  A relation is
rho = p*a + sum_j b_j*g_j, and reducing a*M modulo (g) puts
rho*M*g_k = p*a*M*g_k in p*F_B too.  So the image of I + p*m is
L = span(relation rows) + p*F_B.  A relation row is the row of an element
of m, whose remainder modulo (g) is divisible by p: every layer-0 entry of
every relation row is divisible by p.  By additivity of length,
length(L) = n*d_t + length(L/p*F_B), and L/p*F_B embeds in
(p*Z/p^2)^d_t + (Z/p)^(n*d_t), which p kills.  Its length is therefore
the F_p rank of the relation rows with layer 0 divided by p and layers
1..n taken mod p, and length(A*/L) = 2*W - n*d_t - that rank.

One plain-int elimination with unit pivots (``_unit_sweep``) gives the
rank over GF(p), for a GF(p) point and for the mapped rows over ZZ alike.
Row updates touch only the pivot row's nonzero columns, and an eliminated
column is deleted.  Over QQ the rank comes from an exact integer
elimination (``_rational_rank``) that divides each updated row by its
content.
"""

from __future__ import annotations

from itertools import product as _iterproduct
from math import gcd, lcm

from .errors import InternalConsistencyError, OracleResourceError, PointNotOnVariety
from .groebner import MAX_VARIABLES
from .poly import TriangularPoint, _divide, _level

# The count forms r*d_t rows of (n + 1)*d_t entries for r relations, n
# variables and residue degree d_t; its memory grows as d_t^2 and its time
# as d_t^3, so the matrix is bounded before any of it is formed.  Over ZZ it
# is charged (r + n)*d_t rows, as when it also formed the rows of each
# p*g_j, so the bound refuses the same jobs.  A field point has at most the
# Groebner engine's MAX_VARIABLES variables, whether or not its job has dim.
MAX_ORACLE_ENTRIES = 10**6
MAX_FIELD_VARIABLES = MAX_VARIABLES


def _mod(terms, m):
    """A term dict with its coefficients reduced mod m and zeros dropped;
    itself when m is None."""
    return {e: c % m for e, c in terms.items() if c % m} if m else terms


def normalized_generators(point: TriangularPoint, m) -> tuple:
    """The triangular generators as term dicts mod m (None over QQ),
    interreduced: each one canonical (degree below each lower level degree)
    in the lower variables, still monic of the same degree in its own.
    Returns them with their ``_level``s."""
    ghat, levels = [], []
    for i, g in enumerate(point.generators):
        ghat.append(_divide(_mod(g.terms, m), levels, m)[1])
        levels.append(_level(ghat[-1], i))
    return ghat, levels


def _canonical_monomials(degrees):
    return list(_iterproduct(*(range(d) for d in degrees)))


def _oracle_rows(point: TriangularPoint, relations) -> list:
    """Coordinates in A* of rho*M for every relation rho (over ZZ reduced
    mod p^2) and every canonical monomial M.  Raises PointNotOnVariety for
    the first relation whose first row says it does not vanish at the
    point."""
    p = point.prime
    m = point.ring.modulus if p is None else p * p
    n = point.n
    ghat, levels = normalized_generators(point, m)
    degrees = [d for d, _ in levels]
    monomials = _canonical_monomials(degrees)
    d_t = len(monomials)
    index_of = {mono: k for k, mono in enumerate(monomials)}
    width = (n + 1) * d_t

    def nf2_vector(h):
        quotients, rem = _divide(h, levels, m)
        vec = [0] * width
        for e, c in rem.items():
            vec[index_of[e]] = c
        for k, q in enumerate(quotients):
            for e, c in _divide(q, levels, m)[1].items():
                vec[(k + 1) * d_t + index_of[e]] = c
        return vec

    # Multiplication by x_i on A*.  M[j] steps to M[j + strides[i]] unless it
    # is at its top degree in x_i; then tops[i][j] lists the nonzero entries
    # of x_i*M[j]: all of them on layer 0, only the M part on layers 1..n.
    strides = [1] * n
    for i in reversed(range(n - 1)):
        strides[i] = strides[i + 1] * degrees[i + 1]
    tops = []

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
    for i, d in enumerate(degrees):
        # x_i^d = ghat_i - tail_i, then x_i^d*L for each L at index l from
        # x_i^d*L/x_k; a top M = L*x_i^(d - 1)*U shifts it by U's index u
        vec = [0] * width
        vec[(i + 1) * d_t] = 1
        for e, c in ghat[i].items():
            if e[i] < d:
                vec[index_of[e]] = -c % m if m else -c
        s, cols, lowered = strides[i], [None] * d_t, {}
        for l in range(0, d_t, d * s):
            if l:
                k = last[l - 1]
                vec = times(lowered[l - strides[k]], k)
            lowered[l] = vec
            nonzero = [(k, a) for k, a in enumerate(vec) if a]
            for u in range(s):
                full = [(k + u, a) for k, a in nonzero]
                cols[l + (d - 1) * s + u] = (full, [(k, a) for k, a in full if k < d_t])
        tops.append(cols)

    rows = []
    for f in relations:
        walked = [nf2_vector(_mod(f.terms, m))]
        if any(c % p if p else c for c in walked[0][:d_t]):
            raise PointNotOnVariety("relation %s does not vanish at the point" % f)
        for j, i in enumerate(last, 1):
            walked.append(times(walked[j - strides[i]], i))
        rows.extend(walked)
    return rows


def _rows_mod_p(rows, p, d_t):
    """The walked ZZ rows as rows over GF(p): layer 0 divided by p and
    layers 1..n as they are, for ``_unit_sweep`` to take mod p."""
    out = []
    for r in rows:
        if any(x % p for x in r[:d_t]):
            raise InternalConsistencyError(
                "a relation row's layer 0 is not divisible by %d" % p
            )
        out.append([x // p for x in r[:d_t]] + r[d_t:])
    return out


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


def _unit_sweep(rows, p):
    """Rank of ``rows`` over GF(p), p prime.  Every nonzero row has a unit
    pivot.  An eliminated column is zero from then on, so it is deleted from
    every row; the other rows are updated only on the pivot row's nonzero
    columns, and rows that become zero are dropped."""
    # popped from the end, so rows are searched in the order given
    pending = [rr for rr in ([x % p for x in r] for r in reversed(rows)) if any(rr)]
    rank = 0
    while pending:
        row = pending.pop()
        ci = next(c for c, x in enumerate(row) if x)
        inv = pow(row.pop(ci), -1, p)
        support = [(j, x * inv % p) for j, x in enumerate(row) if x]
        out = []
        for r in pending:
            f = r.pop(ci)
            if f:
                for j, b in support:
                    r[j] = (r[j] - f * b) % p
                if not any(r):
                    continue
            out.append(r)
        pending = out
        rank += 1
    return rank


def cotangent_dimension(point: TriangularPoint, relations) -> int:
    """dim over the residue field of m/(I + m^2), computed from scratch.

    ``relations`` generate I; they must vanish at the point.  The point is
    arithmetic (over ZZ with a prime) or geometric (over QQ or GF(p)), and
    the ambient coordinate ring matches the relations."""
    for f in relations:
        if f.vars != point.vars or f.ring != point.ring:
            raise ValueError("relation and point disagree on variables or ring")
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
        # lengths over Z/p^2: A* has length 2*width, and the image of
        # I + p*m has n*d_t for p*F_B plus the F_p rank of the rest
        length = 2 * width - n * d_t - _unit_sweep(_rows_mod_p(rows, p, d_t), p)
    elif q:
        length = width - _unit_sweep(rows, q)
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
