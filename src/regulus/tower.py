"""Residue fields presented as towers of monogenic extensions.

A tower starts from QQ or GF(p) and stacks one level per point generator:
level i adjoins a root of g_i, read off the triangular system.  Elements are
kept in canonical form as nested dense coefficient tuples, one layer per
level, every exponent strictly below its level degree, so equality is
structural and enumeration is finite over finite bases.

Whether the tower really is a field is *not* decided up front.  Inversion
runs an extended gcd against the level polynomial; a nontrivial gcd proves
the underlying ideal was never maximal and raises ``IdealNotMaximal`` with
the offending factor as witness.  All other operations never divide, so a
defective tower computes sums and products happily until someone inverts.
"""

from __future__ import annotations

from .errors import IdealNotMaximal
from .poly import MultiPoly, _signed_split, format_terms, grlex_key
from .rings import QQ, ZZ, Fraction, PrimeField


class TowerLevel:
    __slots__ = ("var", "display", "degree", "tail")

    def __init__(self, var, display, degree, tail):
        self.var = var          # generator variable, as the user wrote it
        self.display = display  # print name: 'a' for level 1, 'b' for level 2, ...
        self.degree = degree
        self.tail = tail        # x^degree == sum_j tail[j] x^j, one level down


def _display_name(i):
    return chr(ord("a") + i) if i < 26 else "t%d" % (i + 1)


class ResidueTower:
    """kappa_x as a chain of monogenic extensions of QQ or GF(p)."""

    def __init__(self, base, levels):
        self.base = base
        self.levels = tuple(levels)
        self._sig = (
            getattr(base, "name", repr(base)),
            tuple((lv.var, lv.degree, lv.tail) for lv in self.levels),
        )
        deg = 1
        zeros = [base.zero()]
        for lv in self.levels:
            deg *= lv.degree
            zeros.append((zeros[-1],) * lv.degree)
        self.degree_over_base = deg
        self._zeros = tuple(zeros)  # zero of each level; elements are canonical
        self._split = _signed_split if base is QQ else None

    # ---- identity ------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ResidueTower) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    @property
    def vars(self):
        return tuple(lv.var for lv in self.levels)

    # ---- nested-data primitives ---------------------------------------

    def _embed(self, k, scalar):
        if k == 0:
            return scalar
        return (self._embed(k - 1, scalar),) + (self._zeros[k - 1],) * (
            self.levels[k - 1].degree - 1
        )

    def _is_zero(self, k, a):
        return a == self._zeros[k]

    def _add(self, k, a, b):
        if k == 0:
            return a + b
        return tuple(self._add(k - 1, x, y) for x, y in zip(a, b))

    def _neg(self, k, a):
        if k == 0:
            return -a
        return tuple(self._neg(k - 1, x) for x in a)

    def _sub(self, k, a, b):
        return self._add(k, a, self._neg(k, b))

    def _mul(self, k, a, b):
        if k == 0:
            return a * b
        d = self.levels[k - 1].degree
        prod = [self._zeros[k - 1]] * (2 * d - 1)
        for i, ai in enumerate(a):
            if self._is_zero(k - 1, ai):
                continue
            for j, bj in enumerate(b):
                if self._is_zero(k - 1, bj):
                    continue
                prod[i + j] = self._add(k - 1, prod[i + j], self._mul(k - 1, ai, bj))
        return self._fold(k, prod)

    def _fold(self, k, coeffs):
        """Reduce a dense coefficient list modulo the level-k polynomial."""
        d = self.levels[k - 1].degree
        tail = self.levels[k - 1].tail
        for idx in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[idx]
            if self._is_zero(k - 1, c):
                continue
            for j, t in enumerate(tail):
                if self._is_zero(k - 1, t):
                    continue
                coeffs[idx - d + j] = self._add(
                    k - 1, coeffs[idx - d + j], self._mul(k - 1, c, t)
                )
        return tuple(coeffs[:d])

    # ---- univariate helpers over level k-1, for the extended gcd -------

    def _utrim(self, k1, cs):
        while cs and self._is_zero(k1, cs[-1]):
            cs.pop()
        return cs

    def _uadd(self, k1, a, b):
        out = []
        for i in range(max(len(a), len(b))):
            x = a[i] if i < len(a) else self._zeros[k1]
            y = b[i] if i < len(b) else self._zeros[k1]
            out.append(self._add(k1, x, y))
        return self._utrim(k1, out)

    def _uneg(self, k1, a):
        return [self._neg(k1, x) for x in a]

    def _umul(self, k1, a, b):
        if not a or not b:
            return []
        out = [self._zeros[k1]] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self._add(k1, out[i + j], self._mul(k1, x, y))
        return self._utrim(k1, out)

    def _udivmod(self, k1, num, den):
        lead_inv = self._inv(k1, den[-1])
        rem = list(num)
        quo = [self._zeros[k1]] * max(len(num) - len(den) + 1, 0)
        while len(rem) >= len(den):
            c = self._mul(k1, rem[-1], lead_inv)
            shift = len(rem) - len(den)
            quo[shift] = self._add(k1, quo[shift], c)
            for j, dj in enumerate(den):
                rem[shift + j] = self._sub(k1, rem[shift + j], self._mul(k1, c, dj))
            rem = self._utrim(k1, rem)
            if not rem:
                break
        return self._utrim(k1, quo), rem

    def _minpoly_dense(self, k):
        lv = self.levels[k - 1]
        return [self._neg(k - 1, t) for t in lv.tail] + [self._embed(k - 1, self.base.one())]

    def _inv(self, k, a):
        if k == 0:
            if self.base.is_zero(a):
                raise ZeroDivisionError("inverse of zero")
            return self.base.inv(a)
        if self._is_zero(k, a):
            raise ZeroDivisionError("inverse of zero")
        k1 = k - 1
        one = self._embed(k1, self.base.one())
        r0 = self._minpoly_dense(k)
        r1 = self._utrim(k1, list(a))
        s0, s1 = [], [one]
        # invariant: s_i * a == r_i modulo the level polynomial
        while r1 and len(r1) - 1 >= 1:
            q, r2 = self._udivmod(k1, r0, r1)
            s2 = self._uadd(k1, s0, self._uneg(k1, self._umul(k1, q, s1)))
            r0, s0, r1, s1 = r1, s1, r2, s2
        if not r1:
            # gcd has positive degree: a proper factor of the level polynomial
            witness = self._witness_str(k, r0)
            raise IdealNotMaximal(
                "the ideal is not maximal: %s has the proper factor %s"
                % (self._upoly_str(k, self._minpoly_dense(k)), witness),
                witness=witness,
            )
        u_inv = self._inv(k1, r1[0])
        inv_poly = [self._mul(k1, c, u_inv) for c in s1]
        d = self.levels[k - 1].degree
        inv_poly = inv_poly + [self._zeros[k1]] * (d - len(inv_poly))
        return self._fold(k, inv_poly)

    def _witness_str(self, k, coeffs):
        k1 = k - 1
        try:
            lead_inv = self._inv(k1, coeffs[-1])
            coeffs = [self._mul(k1, c, lead_inv) for c in coeffs]
        except IdealNotMaximal:
            pass  # deeper defect; print the factor unnormalized
        return self._upoly_str(k, coeffs)

    def _upoly_str(self, k, coeffs):
        """Print a dense polynomial in the level-k variable whose
        coefficients lie one level down.  Over QQ a coefficient that
        flattens to one negative term prints as a subtraction."""
        k1 = k - 1

        def split(c):
            if self.base is QQ:
                flat = {}
                self._flatten(k1, c, (), flat)
                if len(flat) == 1 and min(flat.values()) < 0:
                    return True, self._neg(k1, c)
            return False, c

        items = [
            ((j,), c) for j, c in reversed(list(enumerate(coeffs)))
            if not self._is_zero(k1, c)
        ]
        return format_terms(
            items, (self.levels[k1].var,), lambda c: self._str_data(k1, c), split
        )

    # ---- public element interface -------------------------------------

    def zero(self):
        return TowerElem(self, self._zeros[-1])

    def one(self):
        return TowerElem(self, self._embed(len(self.levels), self.base.one()))

    def from_int(self, n):
        return TowerElem(self, self._embed(len(self.levels), self.base.from_int(n)))

    def coerce(self, c):
        if isinstance(c, TowerElem):
            if c.tower != self:
                raise TypeError("element belongs to a different tower")
            return c
        return TowerElem(self, self._embed(len(self.levels), self.base.coerce(c)))

    def is_zero(self, a):
        return self._is_zero(len(self.levels), a.data)

    def inv(self, a):
        return TowerElem(self, self._inv(len(self.levels), a.data))

    def gen(self, i):
        """The image of the i-th generator variable (0-based)."""
        d = self.levels[i].degree
        coeffs = [self._zeros[i]] * (d + 1)
        coeffs[1] = self._embed(i, self.base.one())
        data = self._fold(i + 1, coeffs)
        for k in range(i + 1, len(self.levels)):
            data = (data,) + (self._zeros[k],) * (self.levels[k].degree - 1)
        return TowerElem(self, data)

    # ---- canonical form, printing -------------------------------------

    def _flatten(self, k, data, prefix, out):
        if k == 0:
            if not self.base.is_zero(data):
                out[prefix] = data
            return
        for e, c in enumerate(data):
            self._flatten(k - 1, c, (e,) + prefix, out)

    def _flat_str(self, k, flat, compact=False):
        """Print exponent-tuple -> base-scalar terms in the names of levels 1..k."""
        items = sorted(flat.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
        names = tuple(lv.display for lv in self.levels[:k])
        return format_terms(items, names, self.base.elem_str, self._split, compact)

    def _str_data(self, k, data):
        out = {}
        self._flatten(k, data, (), out)
        return self._flat_str(k, out)

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
            for j, c in enumerate(self._minpoly_dense(k)):
                self._flatten(k - 1, c, (j,), flat)
            s += "[%s]/(%s)" % (lv.display, self._flat_str(k, flat, compact=True))
        return s

    def __repr__(self):
        return "ResidueTower(%s)" % self.describe()


class TowerElem:
    """Element of a residue tower, in canonical nested form."""

    __slots__ = ("tower", "data")

    def __init__(self, tower, data):
        self.tower = tower
        self.data = data

    def _compat(self, other):
        if not isinstance(other, TowerElem) or other.tower != self.tower:
            raise TypeError("mixed towers in arithmetic")

    def __add__(self, other):
        self._compat(other)
        t = self.tower
        return TowerElem(t, t._add(len(t.levels), self.data, other.data))

    def __sub__(self, other):
        self._compat(other)
        t = self.tower
        return TowerElem(t, t._sub(len(t.levels), self.data, other.data))

    def __mul__(self, other):
        self._compat(other)
        t = self.tower
        return TowerElem(t, t._mul(len(t.levels), self.data, other.data))

    def __neg__(self):
        t = self.tower
        return TowerElem(t, t._neg(len(t.levels), self.data))

    def __pow__(self, n: int):
        assert n >= 0
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self):
        return self.tower.inv(self)

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


# ---- construction from a triangular point -----------------------------


def build_tower(point, base_field) -> ResidueTower:
    """Stack one level per generator of a (checked) triangular point.

    Generator coefficients are transported into the base field (mod p over
    ZZ) and then reduced through the levels already built, so every tail is
    in canonical form.
    """
    tower = ResidueTower(base_field, ())
    for i, g in enumerate(point.generators):
        d = g.degree_in(i)
        partial_vars = tower.vars
        tail = []
        for power in range(d):
            coeff_poly = g.coefficient_in(i, power)
            shrunk = MultiPoly(
                base_field,
                partial_vars,
                {
                    e[:i]: base_field.coerce(c)
                    for e, c in coeff_poly.terms.items()
                },
            )
            tail.append(tower._neg(i, tower_reduce(shrunk, tower).data))
        level = TowerLevel(point.vars[i], _display_name(i), d, tuple(tail))
        tower = ResidueTower(base_field, tower.levels + (level,))
    return tower


def residue_field(point) -> ResidueTower:
    """The residue tower of a triangular point over its natural base."""
    point.check()
    if point.prime is not None:
        base = PrimeField(point.prime)
    elif point.ring is QQ:
        base = QQ
    elif isinstance(point.ring, PrimeField):
        base = point.ring
    else:
        raise ValueError("unsupported base ring for a residue field")
    return build_tower(point, base)


def tower_reduce(expr: MultiPoly, tower: ResidueTower) -> TowerElem:
    """Canonical image of ``expr`` in the tower.

    Integer coefficients are coerced through the base (mod p when the base is
    a prime field), so the same entry point serves polynomials over ZZ, QQ,
    and GF(p)."""
    if expr.vars != tower.vars:
        raise ValueError(
            "expression variables (%s) do not match the tower (%s)"
            % (", ".join(expr.vars), ", ".join(tower.vars))
        )
    if expr.ring is ZZ or expr.ring is QQ or isinstance(expr.ring, PrimeField):
        gens = [tower.gen(i) for i in range(len(tower.levels))]
        return expr.evaluate(gens, tower)
    raise ValueError("unsupported coefficient ring %r" % (expr.ring,))


def tower_invert(a: TowerElem) -> TowerElem:
    """Multiplicative inverse; raises IdealNotMaximal with a witness factor
    when the extended gcd finds one, ZeroDivisionError on zero."""
    return a.inverse()
