"""Residue fields presented as towers of monogenic extensions.

A tower starts from QQ or GF(p) and stacks one level per point generator:
level i adjoins a root of g_i, read off the triangular system.  The tower
of a point is built once, level by level; the tail of level i, the
coefficients of g_i below its leading power, is reduced by the monomial
table (below) of levels 1..i-1, and each new level starts a fresh table.

An element is one flat vector of D integer leaves, D the product of the
level degrees.  Leaf r is the coefficient of the monomial whose exponents
are the mixed-radix digits of r, level 1 least significant, every exponent
strictly below its level degree.  So a level-k element is the first D_k
leaves of a level-n one, and the i-th block of D_(k-1) leaves of a level-k
element is its coefficient of x_k^i.  Over QQ the leaves are numerators over one common positive
denominator, over GF(p) residues in [0, p) over denominator 1; every
operation ends in one normalization (content removed, or residues taken), so
the form is canonical and equality is structural.  Over GF(p) a base scalar
is already a plain int; over QQ a ``Fraction`` is split into numerator and
denominator on the way in (``coerce``) and rebuilt on the way out (printing).

A product is formed densely in an extended layout, radix 2*d_k - 1 per
level, where exponents add without carries, and then folded in place by a
flat plan made with the level: a step adds the nonzero coefficient at an
overflow position times the level tails below it, and each block of the
level below folds by that level's plan, shifted.  A tail with denominators
scales the blocks not yet folded by a constant of its level, so the common
denominator of a product is fixed by the tower alone.

A polynomial maps into the tower through a per-tower table of monomial
images, filled lazily.  Each variable has one chain of powers, x_i^e =
x_i^(e-1) * x_i, every new power checked against the derived-digit limit
once; a mixed monomial is the product of its pure powers in variable
order, and each prefix of that product is an entry too.  The image of
sum c_e x^e is then a linear combination of cached leaf vectors over one
common denominator, normalized once, so each product is formed once per
tower rather than once per reduction (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 9).  Missing entries are formed in the order that
the plain sum of products forms them, so both meet the same first number
that breaks the limit.

Whether the tower is a field is proved once, when it is built, where that
is cheap: ``proven`` counts the bottom levels known to make a field.  A
level of degree 1 passes, and a quadratic level x^2 = t1*x + t0 passes when
t1^2 + 4*t0 is no square below: over GF(p), p odd, when its norm to F_p is
a nonresidue; over QQ when, for one of CERTIFICATE_PRIMES odd primes p, it
is a nonresidue at an F_p-point of the levels below at which each is
separable.  There the tower's order is etale over Z_(p), so a root below
would reduce to a root mod p.  Other levels, and those above, stay unproven.

A quadratic level over proven levels inverts by its norm: (c0 + c1*x)^-1 =
(c0 + t1*c1 - c1*x) / N, N = c0^2 + t1*c0*c1 - t0*c1^2.  Elsewhere, and when
N = 0, inversion runs an extended gcd against the level polynomial (von zur
Gathen & Gerhard, ch. 3-4) on polynomials in x_k whose coefficients share
one common denominator, normalized once per Euclid step; a coefficient is
made canonical only before it is inverted one level down or printed.  A
nontrivial gcd proves the underlying ideal was never maximal and raises
``IdealNotMaximal`` with the offending factor as witness.  All other
operations never divide, so a defective tower computes sums and products
happily until someone inverts.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from operator import mul

from .errors import IdealNotMaximal, OracleResourceError
from .poly import MultiPoly, _power, format_terms, grlex_key
from .rings import QQ, ZZ, Fraction, PrimeField, check_derived, is_prime

# Every product and every power of the chain is folded down to D leaves, D
# the product of the level degrees, so the rank path's cost grows steeply
# with D.  A larger residue degree is refused before any level is built.
MAX_RESIDUE_DEGREE = 256

# Odd primes a QQ tower's certificate tries before it gives up on a level.
CERTIFICATE_PRIMES = 100


class TowerLevel:
    __slots__ = ("var", "display", "degree", "tail")

    def __init__(self, var, display, degree, tail):
        self.var = var          # generator variable, as the user wrote it
        self.display = display  # print name: 'a' for level 1, 'b' for level 2, ...
        self.degree = degree
        self.tail = tail        # x^degree == sum_j tail[j] x^j; (leaves, den) one level down


def _display_name(i):
    return chr(ord("a") + i) if i < 26 else "t%d" % (i + 1)


def _plan(d, width, low, pairs, factor, sub):
    """Steps that reduce an extended block of a level of degree d, ``width``
    positions per power of its variable, in place modulo the level
    polynomials, in the order of a fold from the top level down: a fold
    step (at, pairs) adds c * v at at + t for each tail pair, c the
    coefficient at ``at``, and a scale step (slice, factor) multiplies the
    blocks not yet folded.  ``low`` holds the extended positions of the
    leaves one level down and ``sub`` that level's plan; a level of degree
    1 folds like the level below.  Leaf r ends at its extended position."""

    def shifted(s):
        return [
            (slice(at.start + s, at.stop + s), v) if v.__class__ is int else (at + s, v)
            for at, v in sub
        ]

    plan = []
    for e in range(2 * d - 2, d - 1, -1):
        top = e * width
        if factor != 1:
            plan.append((slice(0, top), factor))
        plan += shifted(top)
        plan += [(top + q, pairs) for q in low]
    plan += sub  # block 0 needs no shift
    for e in range(1, d):
        plan += shifted(e * width)
    return plan


class ResidueTower:
    """kappa_x as a chain of monogenic extensions of GF(p) for a point over
    ZZ at p, and of the point's own field, QQ or GF(p), otherwise.

    The tower of a triangular point is built once, level by level: the tail
    of level k is read off generator k and reduced by the monomial table of
    the levels already stacked, its fold plan is made from the plan below,
    and each new level starts a fresh table."""

    def __init__(self, point):
        if point.residue_degree > MAX_RESIDUE_DEGREE:
            raise OracleResourceError(
                "a residue degree of %d is above the limit of %d"
                % (point.residue_degree, MAX_RESIDUE_DEGREE)
            )
        self.base = base = point.ring if point.prime is None else PrimeField(point.prime)
        self.vars = point.vars
        self.levels = ()
        self._p = p = base.modulus
        # per level k = 0..n: leaf count D_k, extended size E_k, the extra
        # denominator of a folded level-k product, and the fold plan; the
        # extended position and the exponent tuple of each leaf at the top
        sizes, ext_sizes, scales = self._sizes, self._ext_sizes, self._scales = [1], [1], [1]
        plans = self._plans = [()]
        self._ext, self._exps = [0], [()]
        self._minpolys = [None]  # each level polynomial, flat as in _inv
        self._start_table()
        for k, (d, terms) in enumerate(point._levels, start=1):
            # t_k^d = -sum_j c_j t_k^j, each c_j moved into the base and
            # reduced through levels 1..k-1
            width, ext = ext_sizes[-1], self._ext
            coeffs = [{} for _ in range(d)]
            for e, c in terms:
                if p is None or c % p:
                    coeffs[e[k - 1]][e[: k - 1]] = c
            tail = tuple(self._neg(self._reduce(c)) for c in coeffs)
            self.levels += (TowerLevel(self.vars[k - 1], _display_name(k - 1), d, tail),)
            den = lcm(*(c[1] for c in tail))
            # a tail pair (t, v) adds v times the coefficient at an overflow
            # position q to position q + t < q
            pairs = tuple(
                ((j - d) * width + ext[r], v * (den // c[1]))
                for j, c in enumerate(tail) for r, v in enumerate(c[0]) if v
            )
            factor = scales[-1] * den
            minpoly = [-v * (den // c[1]) for c in tail for v in c[0]]
            self._minpolys.append(self._norm(minpoly + [den] + [0] * (sizes[-1] - 1), den))
            plans.append(_plan(d, width, ext, pairs, factor, plans[-1]))
            scales.append(scales[-1] * factor ** (d - 1))
            self._ext = [q + e * width for e in range(d) for q in ext]
            self._exps = [x + (e,) for e in range(d) for x in self._exps]
            sizes.append(sizes[-1] * d)
            ext_sizes.append(width * (2 * d - 1))
            self._start_table()
        self._sig = (base.name, tuple((lv.var, lv.degree, lv.tail) for lv in self.levels))
        self.proven = self._certify()

    def _start_table(self):
        """An empty monomial table over the levels stacked so far: x_i^0,
        x_i^1, ... per variable, and exponent tuple -> (data, nonzero
        (leaf, value) pairs) of each monomial image."""
        n = len(self.levels)
        one = self._embed(n, 1)
        self._powers = [[one, self._gen_image(i)] for i in range(n)]
        self._monos = {(0,) * n: (one, [(0, one[0][0])])}

    # ---- the field certificate ------------------------------------------

    def _certify(self):
        """The number of bottom levels proven to make a field."""
        top = next((k for k, lv in enumerate(self.levels) if lv.degree > 2), len(self.levels))
        p = self._p
        if p is None:
            proven, q, tried = 0, 1, 0
            while proven < top and tried < CERTIFICATE_PRIMES:
                q += 2
                if is_prime(q):
                    tried += 1
                    if all(c[1] % q for lv in self.levels[:top] for c in lv.tail):
                        proven = self._certify_mod(q, proven, top)
            return proven
        for k, lv in enumerate(self.levels[:top], start=1):
            if lv.degree == 2:
                t0, t1 = lv.tail
                disc = self._add(self._mul(k - 1, t1, t1), self._mul(k - 1, t0, ((4,), 1)))
                for j in range(k - 1, 0, -1):  # the norm down to F_p
                    if self.levels[j - 1].degree == 2:
                        disc = self._rel_norm(j, *self._blocks(j, disc))[1]
                if p == 2 or pow(disc[0][0], p // 2, p) != p - 1:
                    return k - 1
        return top

    def _certify_mod(self, q, start, top):
        """How many bottom levels, of the first ``top``, are proven once the
        odd prime q certifies levels ``start`` + 1 on: a quadratic level passes
        when its discriminant is a nonresidue mod q at some F_q-point of the
        levels below, found root by root, at which each of them is separable."""
        squares, half = {x * x % q: x for x in range(1, q // 2 + 1)}, (q + 1) // 2
        points = [[1]]  # the monomial values mod q at each F_q-point
        for k, lv in enumerate(self.levels[:top], start=1):
            roots, passed = [], lv.degree == 1 or k <= start
            for vals in points:
                t = [sum(map(mul, c[0], vals)) * pow(c[1], -1, q) % q for c in lv.tail]
                if lv.degree == 1:
                    roots.append((vals, t[0]))
                    continue
                disc = (t[1] * t[1] + 4 * t[0]) % q
                s = squares.get(disc)
                if s:
                    roots += [(vals, (t[1] + s) * half % q), (vals, (t[1] - s) * half % q)]
                elif disc:
                    passed = True
            if not passed:
                return k - 1
            points = [[v * r**e % q for e in range(lv.degree) for v in vals] for vals, r in roots]
        return top

    # ---- identity ------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ResidueTower) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    # ---- flat-data primitives: (leaves, den) pairs at level k ----------

    def _norm(self, leaves, den):
        """Canonical (leaves, den): content removed over QQ, residues over
        GF(p).  The only step besides the scalar inverse that depends on
        the base."""
        p = self._p
        if p is not None:
            return tuple([x % p for x in leaves]), 1
        g = gcd(den, *leaves)
        if g == 1:
            return tuple(leaves), den
        return tuple([x // g for x in leaves]), den // g

    def _embed(self, k, num, den=1):
        return self._norm([num] + [0] * (self._sizes[k] - 1), den)

    @staticmethod
    def _is_zero(a):
        return not any(a[0])

    def _add(self, a, b):
        (xs, ad), (ys, bd) = a, b
        if ad == bd:
            return self._norm([x + y for x, y in zip(xs, ys)], ad)
        return self._norm([x * bd + y * ad for x, y in zip(xs, ys)], ad * bd)

    def _sub(self, a, b):
        (xs, ad), (ys, bd) = a, b
        if ad == bd:
            return self._norm([x - y for x, y in zip(xs, ys)], ad)
        return self._norm([x * bd - y * ad for x, y in zip(xs, ys)], ad * bd)

    def _neg(self, a):
        return self._norm([-x for x in a[0]], a[1])

    def _mul(self, k, a, b):
        (xs, ad), (ys, bd) = a, b
        return self._norm(self._prod(k, xs, ys), ad * bd * self._scales[k])

    def _prod(self, k, xs, ys):
        """The leaves of xs * ys times the level-k scale, unnormalized."""
        if not any(ys[1:]):
            xs, ys = ys, xs
        if not any(xs[1:]):  # a base scalar times anything needs no fold
            x = xs[0] * self._scales[k]
            return [x * y for y in ys]
        ext = self._ext
        prod = [0] * self._ext_sizes[k]
        ys = [(ext[j], y) for j, y in enumerate(ys) if y]
        for i, x in enumerate(xs):
            if x:
                at = ext[i]
                for q, y in ys:
                    prod[at + q] += x * y
        for at, pairs in self._plans[k]:
            if pairs.__class__ is int:  # a scale step: prod[at] is a slice
                prod[at] = [x * pairs for x in prod[at]]
                continue
            c = prod[at]
            if c:
                for t, v in pairs:
                    prod[at + t] += c * v
        return [prod[q] for q in ext[: self._sizes[k]]]

    def _blocks(self, k, a):
        """The coefficients in x_k of a level-k element, one level down."""
        size = self._sizes[k - 1]
        xs, den = a
        return [self._norm(xs[i : i + size], den) for i in range(0, len(xs), size)]

    def _scalar_inv(self, a):
        (x,), den = a
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._p is not None:
            return (pow(x, self._p - 2, self._p),), 1
        return ((den,), x) if x > 0 else ((-den,), -x)

    def _rel_norm(self, k, c0, c1):
        """(c0 + t1*c1, N) at level k - 1 for c0 + c1*x_k at a quadratic level
        x_k^2 = t1*x_k + t0: N = c0^2 + t1*c0*c1 - t0*c1^2 is the norm to
        level k - 1, and c0 + t1*c1 - c1*x_k the cofactor whose product is N."""
        k1, (t0, t1) = k - 1, self.levels[k - 1].tail
        u = self._add(c0, self._mul(k1, t1, c1))
        return u, self._sub(self._mul(k1, c0, u), self._mul(k1, t0, self._mul(k1, c1, c1)))

    # ---- polynomials in x_k over level k-1, for the extended gcd -------
    # Flat like a level-k element, of any length: block i of D_(k-1) leaves
    # is the coefficient of x_k^i, all over one denominator.  Only _utrim
    # normalizes.

    def _utrim(self, k1, a):
        """``a`` normalized, without zero leading blocks."""
        leaves, den = self._norm(*a)
        size, end = self._sizes[k1], len(leaves)
        while end and not any(leaves[end - size : end]):
            end -= size
        return leaves[:end], den

    def _umul(self, k1, a, b):
        size = self._sizes[k1]
        (xs, ad), (ys, bd) = a, b
        out = [0] * max(len(xs) + len(ys) - size, 0)
        for i in range(0, len(xs), size):
            for j in range(0, len(ys), size):
                for t, v in enumerate(self._prod(k1, xs[i : i + size], ys[j : j + size]), i + j):
                    out[t] += v
        return out, ad * bd * self._scales[k1]

    def _udivmod(self, k1, num, den, lead_inv):
        """num divmod den, whose leading coefficient has the inverse lead_inv
        and cancels exactly, so its product is never formed."""
        size, scale = self._sizes[k1], self._scales[k1]
        (rem, rd), (ys, dd), (ls, ld) = num, den, lead_inv
        rem, quo, top = list(rem), [], len(ys) - size
        f = ld * scale * dd * scale
        while len(rem) > top:
            c, qd = self._prod(k1, rem[-size:], ls), rd * ld * scale
            rem, quo = [x * f for x in rem[:-size]], [x * f for x in quo]
            at = len(rem) - top
            for j in range(0, top, size):
                for t, v in enumerate(self._prod(k1, c, ys[j : j + size]), at + j):
                    rem[t] -= v
            quo, rd = c + quo, rd * f
        return (quo, qd), (rem, rd)

    def _inv(self, k, a):
        if k == 0:
            return self._scalar_inv(a)
        if self._is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        k1, size = k - 1, self._sizes[k - 1]
        if k1 <= self.proven and self.levels[k1].degree == 2:
            # over a field N = 0 only for a zero divisor, which Euclid names;
            # a unit's inverse is unique, so both routes give the same data
            c0, c1 = self._blocks(k, a)
            u, norm = self._rel_norm(k, c0, c1)
            if not self._is_zero(norm):
                norm = self._inv(k1, norm)
                (xs, ad), (ys, bd) = self._mul(k1, u, norm), self._mul(k1, c1, norm)
                return self._norm([x * bd for x in xs] + [-y * ad for y in ys], ad * bd)
        r0, r1 = self._minpolys[k], self._utrim(k1, a)
        s0, s1 = ((), 1), self._embed(k1, 1)
        # invariant: s_i * a == r_i modulo the level polynomial
        while len(r1[0]) > size:
            lead_inv = self._inv(k1, self._norm(r1[0][-size:], r1[1]))
            q, r2 = self._udivmod(k1, r0, r1, lead_inv)
            (xs, sd), (ys, qd) = s0, self._umul(k1, q, s1)
            s2 = [x * qd - y * sd for x, y in zip_longest(xs, ys, fillvalue=0)], sd * qd
            r0, s0, r1, s1 = r1, s1, self._utrim(k1, r2), self._utrim(k1, s2)
        if not r1[0]:
            # gcd has positive degree: a proper factor of the level polynomial
            witness = self._witness_str(k, self._blocks(k, r0))
            raise IdealNotMaximal(
                "the ideal is not maximal: %s has the proper factor %s"
                % (self._upoly_str(k, self._blocks(k, self._minpolys[k])), witness),
                witness=witness,
            )
        # deg s1 < deg of the level polynomial, so nothing is left to fold
        leaves, den = self._umul(k1, s1, self._inv(k1, r1))
        return self._norm(leaves + [0] * (self._sizes[k] - len(leaves)), den)

    def _witness_str(self, k, gcd_coeffs):
        """The gcd made monic.  It was the divisor of the last Euclid step,
        so inverting its leading coefficient has succeeded once already."""
        k1 = k - 1
        lead_inv = self._inv(k1, gcd_coeffs[-1])
        return self._upoly_str(k, [self._mul(k1, c, lead_inv) for c in gcd_coeffs])

    def _upoly_str(self, k, coeffs):
        """Print a dense polynomial in the level-k variable whose
        coefficients lie one level down."""
        k1 = k - 1
        items = [
            ((j,), c) for j, c in reversed(list(enumerate(coeffs)))
            if not self._is_zero(c)
        ]
        return format_terms(items, (self.levels[k1].var,), lambda c: self._str_data(k1, c))

    # ---- public element interface -------------------------------------

    def zero(self):
        return TowerElem(self, ((0,) * self._sizes[-1], 1))

    def one(self):
        return TowerElem(self, self._embed(len(self.levels), 1))

    def from_int(self, n):
        return self.coerce(self.base.from_int(n))

    def coerce(self, c):
        if isinstance(c, TowerElem):
            if c.tower != self:
                raise TypeError("element belongs to a different tower")
            return c
        return TowerElem(self, self._embed(len(self.levels), *self._scalar(c)))

    def is_zero(self, a):
        return self._is_zero(a.data)

    def inv(self, a):
        """The inverse of a.  Raises IdealNotMaximal with a witness factor
        when the extended gcd finds one, ZeroDivisionError on zero."""
        return TowerElem(self, self._inv(len(self.levels), a.data))

    def _bounded(self, a):
        """The (leaves, den) data a of a new power or a printed element, once
        checked against the derived-digit limit; residues over GF(p) are
        below p."""
        if self._p is None:
            check_derived(max(a[1], max(a[0]), -min(a[0])))
        return a

    # ---- reduction through the monomial table ----------------------------

    def _scalar(self, c):
        """A coefficient coerced into the base, as (numerator, denominator)."""
        c = self.base.coerce(c)
        if self._p is None:
            return c.numerator, c.denominator
        return c, 1

    def _power(self, i, e):
        """x_i^e, the chain extended one power at a time, x_i^e =
        x_i^(e-1) * x_i, each new power checked once."""
        chain = self._powers[i]
        while len(chain) <= e:
            chain.append(self._bounded(self._mul(len(self.levels), chain[-1], chain[1])))
        return chain[e]

    def _monomial(self, exps):
        """Table entry of a monomial: the unchecked product of its pure
        powers in variable order, each prefix product kept as an entry too."""
        prefix = [0] * len(exps)
        data = None
        for i, e in enumerate(exps):
            if not e:
                continue
            prefix[i] = e
            key = tuple(prefix)
            entry = self._monos.get(key)
            if entry is None:
                power = self._power(i, e)
                prod = power if data is None else self._mul(len(self.levels), data, power)
                entry = prod, [(r, x) for r, x in enumerate(prod[0]) if x]
                self._monos[key] = entry
            data = entry[0]
        return entry

    def _reduce(self, terms):
        """Data of the sum of c * x^e over the exponent -> coefficient map
        ``terms``: a linear combination of table entries over one common
        denominator.  Missing entries are formed first, in the order that
        ``MultiPoly.sorted_terms`` gives, so the first derived number to
        break its limit is the one the plain sum of products would meet."""
        scalars = [self._scalar(c) for c in terms.values()]
        monos = self._monos
        missing = [e for e in terms if e not in monos]
        for e in sorted(missing, key=grlex_key, reverse=True):
            self._monomial(e)
        acc = [0] * self._sizes[-1]
        den = 1
        for e, (num, cden) in zip(terms, scalars):
            (_, mden), pairs = monos[e]
            m = cden * mden
            if den % m:
                scale = m // gcd(den, m)
                acc = [x * scale for x in acc]
                den *= scale
            f = num * (den // m)
            for r, x in pairs:
                acc[r] += f * x
        return self._norm(acc, den)

    def gen(self, i):
        """The image of the i-th generator variable (0-based)."""
        return TowerElem(self, self._powers[i][1])

    def _gen_image(self, i):
        """The data of x_i: one unit leaf, or its own tail when its level
        has degree 1."""
        if self.levels[i].degree == 1:
            leaves, den = self.levels[i].tail[0]
        else:
            leaves, den = (0,) * self._sizes[i] + (1,), 1
        return leaves + (0,) * (self._sizes[-1] - len(leaves)), den

    # ---- printing ------------------------------------------------------

    def _flatten(self, k, a, out, suffix=()):
        """Exponent tuple (levels 1..k, then ``suffix``) -> base scalar.
        Every printed number passes through here and is checked."""
        leaves, den = self._bounded(a)
        for r, x in enumerate(leaves):
            if x:
                out[self._exps[r][:k] + suffix] = Fraction(x, den) if self._p is None else x
        return out

    def _flat_str(self, k, flat, compact=False):
        """Print exponent-tuple -> base-scalar terms in the names of levels 1..k."""
        items = sorted(flat.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
        names = tuple(lv.display for lv in self.levels[:k])
        return format_terms(items, names, self.base.elem_str, compact)

    def _str_data(self, k, a):
        return self._flat_str(k, self._flatten(k, a, {}))

    def elem_str(self, a) -> str:
        return self._str_data(len(self.levels), a.data)

    def describe(self) -> str:
        """Extension-chain description, e.g. GF(3)[a]/(a^2+1); degree-1
        levels extend nothing and are omitted."""
        s = self.base.name
        for k, lv in enumerate(self.levels, start=1):
            if lv.degree == 1:
                continue
            flat = {}
            for j, c in enumerate(self._blocks(k, self._minpolys[k])):
                self._flatten(k - 1, c, flat, (j,))
            s += "[%s]/(%s)" % (lv.display, self._flat_str(k, flat, compact=True))
        return s

    def __repr__(self):
        return "ResidueTower(%s)" % self.describe()


class TowerElem:
    """Element of a residue tower: ``data`` is the canonical (leaves, den)."""

    __slots__ = ("tower", "data")

    def __init__(self, tower, data):
        self.tower = tower
        self.data = data

    def _compat(self, other):
        if not isinstance(other, TowerElem) or (
            other.tower is not self.tower and other.tower != self.tower
        ):
            raise TypeError("mixed towers in arithmetic")

    def __add__(self, other):
        self._compat(other)
        return TowerElem(self.tower, self.tower._add(self.data, other.data))

    def __sub__(self, other):
        self._compat(other)
        return TowerElem(self.tower, self.tower._sub(self.data, other.data))

    def __mul__(self, other):
        self._compat(other)
        t = self.tower
        return TowerElem(t, t._mul(len(t.levels), self.data, other.data))

    def __neg__(self):
        return TowerElem(self.tower, self.tower._neg(self.data))

    def __pow__(self, n: int):
        return _power(self, n, TowerElem.__mul__) if n else self.tower.one()

    def is_zero(self) -> bool:
        return self.tower.is_zero(self)

    def __eq__(self, other):
        return (
            isinstance(other, TowerElem)
            and self.tower == other.tower
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.tower, self.data))

    def __str__(self):
        return self.tower.elem_str(self)

    def __repr__(self):
        return "TowerElem(%s)" % self


def residue_field(point) -> ResidueTower:
    """The residue tower of a triangular point over its natural base."""
    return ResidueTower(point)


def tower_reduce(expr: MultiPoly, tower: ResidueTower) -> TowerElem:
    """Canonical image of ``expr`` in the tower.

    Integer coefficients are coerced through the base (mod p when the base is
    a prime field), so the same entry point serves polynomials over ZZ, QQ,
    and GF(p).  A GF(p) polynomial must be over the tower's base: its
    coefficients are plain ints, which the base alone cannot tell apart."""
    if expr.vars != tower.vars:
        raise ValueError(
            "expression variables (%s) do not match the tower (%s)"
            % (", ".join(expr.vars), ", ".join(tower.vars))
        )
    ring = expr.ring
    if ring is not ZZ and ring is not QQ and not isinstance(ring, PrimeField):
        raise ValueError("unsupported coefficient ring %r" % (ring,))
    if ring.modulus and ring is not tower.base:
        raise TypeError("element of %s used in %s" % (ring.name, tower.base.name))
    return TowerElem(tower, tower._reduce(expr.terms))

