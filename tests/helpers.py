"""Shared random-instance generators for the test suite.

Everything here does rejection sampling against construction-time
constraints only (irreducible level polynomials, degree budgets).  The
instances that come out are valid inputs by construction, so the tests
that consume them never need to swallow library errors.
"""

import argparse
import heapq
import itertools
import math
from fractions import Fraction
from operator import add, le, sub

from regulus import (
    FieldMatrix,
    IdealNotMaximal,
    MultiPoly,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    groebner_basis,
    parse_poly,
)
from regulus.oracle import _canonical_monomials
from regulus.errors import JobFileError, PolySyntaxError
from regulus.poly import (
    _DIGITS_BOUND,
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    MAX_TERMS,
    _END,
    _IDENT,
    _INT,
    _OP,
    _Parser,
    _bound,
    grlex_key,
    lift_int,
)
from regulus.rings import check_derived
from regulus.tower import ResidueTower, residue_field, tower_reduce

VAR_POOL = ("x", "y", "z", "w")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# squarefree non-squares: t^2 - r is irreducible over QQ, t^4 - r is
# Eisenstein, and distinct r, s give a degree-4 biquadratic compositum
QQ_RADICANDS = (2, 3, 5, 7)


def parse(text, vars, ring=QQ):
    return parse_poly(text, vars, ring)


def reference_format_terms(ordered_terms, var_names, elem_str, split_sign=None):
    """The printer with its sign decided by the caller: ``split_sign``, when
    given, maps a coefficient to (negative?, magnitude) so signed rings
    print ``x - 2`` rather than ``x + -2``; a constant coefficient whose
    text starts with its own sign prints as a subtraction too.
    ``regulus.poly.format_terms`` reads the sign from the coefficient's
    text instead, and must print the same bytes."""
    if not ordered_terms:
        return "0"
    plus, minus = " + ", " - "
    out = []
    for k, (exps, coeff) in enumerate(ordered_terms):
        neg, mag = split_sign(coeff) if split_sign else (False, coeff)
        factors = []
        for name, e in zip(var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        mono = "*".join(factors)
        cs = elem_str(mag)
        if mono:
            if cs == "1":
                body = mono
            elif any(ch in cs for ch in "+- *"):
                body = "(%s)*%s" % (cs, mono)
            else:
                body = "%s*%s" % (cs, mono)
        else:
            body = cs
        if k == 0:
            out.append("-" + body if neg else body)
        elif body.startswith("-"):
            out.append(minus + body[1:])
        else:
            out.append((minus if neg else plus) + body)
    return "".join(out)


def reference_signed_split(c):
    """(negative?, magnitude) of a ZZ or QQ coefficient."""
    return (c < 0, -c) if c < 0 else (False, c)


def reference_poly_str(f):
    """``str(f)`` through ``reference_format_terms``."""
    split = reference_signed_split if f.ring in (ZZ, QQ) else None
    return reference_format_terms(f.sorted_terms(), f.vars, f.ring.elem_str, split)


class ReferenceParser(_Parser):
    """The expression parser by recursive descent, forming every product one
    factor at a time: each factor a polynomial, each '*' a ``check_size`` and
    a ``MultiPoly.__mul__``, each term merged into the sum as a polynomial.
    ``regulus.poly`` reads a sum in one loop and gathers runs of atoms
    instead, and must give the same polynomials, term for term in the same
    order, and the same errors.  Only the tokenizer and ``check_size`` are
    shared."""

    def __init__(self, text, vars, ring):
        super().__init__(text, vars, ring)
        self.variables = {}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        negate = False
        kind, text, _ = self.peek()
        if kind == _OP and text == "-":
            self.take()
            negate = True
        result = self.term()
        terms = {e: -c for e, c in result.terms.items()} if negate else dict(result.terms)
        is_zero = self.ring.is_zero
        kind, text, _ = self.peek()
        while kind == _OP and text in "+-":
            _, _, pos = self.take()
            rhs = self.term()
            for e, c in rhs.terms.items():
                cur = terms.get(e)
                if cur is None:
                    terms[e] = c if text == "+" else -c
                    continue
                cur = cur + c if text == "+" else cur - c
                if is_zero(cur):
                    del terms[e]
                else:
                    terms[e] = cur
            if len(terms) > MAX_TERMS:
                raise PolySyntaxError(
                    "%d terms are above the limit of %d" % (len(terms), MAX_TERMS), pos
                )
            if self.numeric:
                for e in rhs.terms:
                    c = terms.get(e)
                    if c is not None and _bound(c) >= _DIGITS_BOUND:
                        raise PolySyntaxError(
                            "a coefficient is above the limit of %d digits" % MAX_DIGITS, pos
                        )
            kind, text, _ = self.peek()
        return MultiPoly(self.ring, self.vars, terms)

    def term(self):
        result = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == _OP and text == "*":
                self.take()
                rhs = self.factor()
                self.check_size(((result, 1), (rhs, 1)), pos)
                result = result * rhs
            else:
                return result

    def factor(self):
        base = self.base()
        kind, text, _ = self.peek()
        if kind == _OP and text == "^":
            self.take()
            kind, text, pos = self.take()
            if kind != _INT:
                raise PolySyntaxError("expected a nonnegative integer exponent", pos)
            exponent = int(text)
            if exponent > MAX_DEGREE:
                raise PolySyntaxError(
                    "exponent %d is above the limit of %d" % (exponent, MAX_DEGREE), pos
                )
            self.check_size(((base, exponent),), pos)
            return base ** exponent
        return base

    def base(self):
        kind, text, pos = self.take()
        if kind == _INT:
            nk, ntext, npos = self.peek()
            if nk == _OP and ntext == "/":
                self.take()
                dk, dtext, dpos = self.take()
                if dk != _INT:
                    raise PolySyntaxError("expected an integer denominator", dpos)
                if self.ring is not QQ:
                    raise PolySyntaxError(
                        "rational literal needs base QQ", npos
                    )
                if int(dtext) == 0:
                    raise PolySyntaxError("zero denominator", dpos)
                value = self.ring.fraction(int(text), int(dtext))
            else:
                value = self.ring.from_int(int(text))
            return MultiPoly.constant(self.ring, self.vars, value)
        if kind == _IDENT:
            if text not in self.vars:
                raise PolySyntaxError("unknown variable %r" % text, pos)
            if text not in self.variables:  # polynomials are never mutated
                self.variables[text] = MultiPoly.variable(
                    self.ring, self.vars, self.vars.index(text)
                )
            return self.variables[text]
        if kind == _OP and text == "(":
            if self.depth == MAX_NESTING:
                raise PolySyntaxError(
                    "parentheses nested deeper than %d" % MAX_NESTING, pos
                )
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, text, pos = self.take()
            if not (kind == _OP and text == ")"):
                raise PolySyntaxError("expected ')'", pos)
            return inner
        raise PolySyntaxError(
            "expected a number, variable, or parenthesized expression", pos
        )


def reference_parse_poly(text, vars, ring):
    """``parse_poly`` on ``ReferenceParser``."""
    parser = ReferenceParser(text, vars, ring)
    result = parser.expr()
    kind, toktext, pos = parser.peek()
    if kind != _END:
        raise PolySyntaxError("unexpected %r" % toktext, pos)
    return result


def random_coeff(ring, rng):
    if ring is ZZ:
        return rng.randrange(-4, 5)
    if ring is QQ:
        return Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))
    return ring.from_int(rng.randrange(ring.modulus))


def random_poly(ring, vars, rng, max_exp=2, terms=3):
    data = {}
    n = len(vars)
    for _ in range(rng.randrange(1, terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(n))
        c = random_coeff(ring, rng)
        prev = data.get(e)
        data[e] = c if prev is None else prev + c
    return MultiPoly(ring, vars, data)


def convert(f, ring, coeff_map):
    """f over ``ring``, each coefficient mapped by ``coeff_map``."""
    return MultiPoly(ring, f.vars, {e: coeff_map(c) for e, c in f.terms.items()})


def transpose(m):
    return FieldMatrix(m.field, [list(col) for col in zip(*m.rows)])


def rationalize(f):
    """View an integer polynomial over QQ."""
    if f.ring is QQ:
        return f
    if f.ring is not ZZ:
        raise ValueError("rationalize expects an integer polynomial")
    return convert(f, QQ, Fraction)


def _bounded(ring, a):
    """``a`` once checked against the derived-digit limit, as the program
    checks each power of a point coordinate; a residue over Z/m."""
    if isinstance(ring, ResidueTower):
        ring._bounded(a.data)
    elif ring is ZZ:
        check_derived(a)
    elif ring is QQ:
        check_derived(max(abs(a.numerator), a.denominator))
    else:
        a %= ring.modulus
    return a


def evaluate(f, values, ring):
    """f at the given ring elements, one per variable, by the plain sum of
    products: terms in ``sorted_terms`` order, each power of a value formed
    once as the previous power times the value and checked with
    ``_bounded``.  The residue tower's reduction must give the same element
    and stop at the same first oversized number.  The value is coerced into
    ``ring`` (a residue in [0, m) over Z/m)."""
    if len(values) != len(f.vars):
        raise ValueError("%d values for %d variables" % (len(values), len(f.vars)))
    total = None
    powers = [[None] for _ in values]  # powers[i][e] is values[i]^e, e >= 1

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(values[i] if len(cache) == 1 else _bounded(ring, cache[-1] * values[i]))
        return cache[e]

    for exps, coeff in f.sorted_terms():
        term = ring.coerce(coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        total = term if total is None else total + term
    return ring.coerce(ring.zero() if total is None else total)


def irreducible_quadratic(p, rng):
    """Coefficients (a, b) with t^2 + a t + b rootless over GF(p)."""
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if all((x * x + a * x + b) % p for x in range(p)):
            return a, b


def random_point(vars, field, rng, allow_quadratic=True):
    """Random triangular point over a prime field or QQ.

    At most one level has degree 2 (with constant coefficients chosen
    irreducible), the rest are linear with tails drawn from the partial
    tower in canonical exponents.  The resulting ideal is maximal by
    construction.
    """
    n = len(vars)
    gens = []
    degrees = []
    quad = rng.randrange(n + 1) if allow_quadratic else n
    for i in range(n):
        terms = {}
        if i == quad:
            if field is QQ:
                a = QQ.zero()
                b = QQ.from_int(-rng.choice(QQ_RADICANDS))
            else:
                ai, bi = irreducible_quadratic(field.modulus, rng)
                a = field.from_int(ai)
                b = field.from_int(bi)
            terms[tuple(2 if k == i else 0 for k in range(n))] = field.one()
            if not field.is_zero(a):
                terms[tuple(1 if k == i else 0 for k in range(n))] = a
            if not field.is_zero(b):
                terms[(0,) * n] = b
            degrees.append(2)
        else:
            terms[tuple(1 if k == i else 0 for k in range(n))] = field.one()
            for _ in range(rng.randrange(3)):
                e = tuple(rng.randrange(degrees[k]) if k < i else 0 for k in range(n))
                c = random_coeff(field, rng)
                prev = terms.get(e)
                terms[e] = c if prev is None else prev + c
            degrees.append(1)
        gens.append(MultiPoly(field, vars, terms))
    return TriangularPoint(tuple(gens))


def random_member(point, rng, multiplier_exp=1):
    """Random element of the maximal ideal: small combination of the
    generators, so membership holds by construction."""
    field = point.generators[0].ring
    vars = point.generators[0].vars
    n = len(vars)
    f = MultiPoly.zero(field, vars)
    for g in point.generators:
        c = {}
        for _ in range(rng.randrange(3)):
            e = tuple(rng.randrange(multiplier_exp + 1) for _ in range(n))
            coeff = random_coeff(field, rng)
            prev = c.get(e)
            c[e] = coeff if prev is None else prev + coeff
        f = f + MultiPoly(field, vars, c) * g
    return f


def random_arithmetic_point(vars, p, rng):
    """Integer-coefficient triangular point with residue characteristic
    p, lifted from a random point over GF(p).  Returns (fiber, lifted)."""
    fiber = random_point(vars, PrimeField(p), rng)
    lifted = TriangularPoint(tuple(lift_int(g) for g in fiber.generators), prime=p)
    return fiber, lifted


def random_arithmetic_relation(fiber_point, p, rng):
    """Member of the lifted ideal: lift of a fiber member plus p times a
    small integer polynomial."""
    vars = fiber_point.generators[0].vars
    base = lift_int(random_member(fiber_point, rng))
    extra = MultiPoly.zero(ZZ, vars)
    for _ in range(rng.randrange(2)):
        e = tuple(rng.randrange(2) for _ in range(len(vars)))
        extra = extra + MultiPoly(ZZ, vars, {e: rng.randrange(1, p + 1)})
    return base + extra.scale(p)


def tower_size(tower):
    """Number of elements of a finite tower (p to the total degree)."""
    total = 1
    for level in tower.levels:
        total *= level.degree
    return tower.base.modulus ** total


def enumerate_tower_elements(tower):
    """All elements of a finite tower.

    The monomials gen_0^k0 * ... * gen_m^km with k_i below the level
    degrees form a GF(p)-basis; elements are their linear combinations.
    """
    p = tower.base.modulus
    basis = []
    ranges = [range(level.degree) for level in tower.levels]
    for exps in itertools.product(*ranges):
        term = tower.one()
        for i, k in enumerate(exps):
            if k:
                term = term * tower.gen(i) ** k
        basis.append(term)
    elems = [tower.zero()]
    for b in basis:
        elems = [e + tower.from_int(c) * b for e in elems for c in range(p)]
    return elems


def _pad(poly, vars, field):
    extra = len(vars) - len(poly.vars)
    data = {e + (0,) * extra: v for e, v in poly.terms.items()}
    return MultiPoly(field, vars, data)


def random_finite_tower(rng, max_total=8, enum_cap=200):
    """Random residue tower over a small prime field, guaranteed to be a
    field.  Levels of degree 2 or 3 are admitted only while the partial
    tower is small enough to root-check the candidate (rootless implies
    irreducible in degree <= 3).  Returns (point, tower)."""
    p = rng.choice(SMALL_PRIMES)
    field = PrimeField(p)
    n = rng.randrange(1, 4)
    gens = []
    degrees = []
    total = 1
    for i in range(n):
        vars_i = VAR_POOL[: i + 1]
        if i:
            partial = residue_field(TriangularPoint(tuple(gens)))
            partial_size = tower_size(partial)
        else:
            partial = None
            partial_size = p
        choices = [1]
        for d in (2, 3):
            if total * d <= max_total and partial_size <= enum_cap:
                choices.append(d)
        d = rng.choice(choices)
        gens = [_pad(g, vars_i, field) for g in gens]
        while True:
            if i == 0:
                coeffs = [field.from_int(rng.randrange(p)) for _ in range(d)]
                candidate = MultiPoly(field, vars_i, {(d,): field.one()})
                for j, c in enumerate(coeffs):
                    if not field.is_zero(c):
                        candidate = candidate + MultiPoly(field, vars_i, {(j,): c})
                if d == 1:
                    break
                ok = True
                for x in (field.from_int(k) for k in range(p)):
                    acc = field.zero()
                    power = field.one()
                    for c in coeffs:
                        acc = acc + c * power
                        power = power * x
                    if field.is_zero(acc + power):
                        ok = False
                        break
                if ok:
                    break
            else:
                coeff_polys = []
                for j in range(d):
                    c = MultiPoly.zero(field, vars_i[:-1])
                    for _ in range(rng.randrange(3)):
                        e = tuple(rng.randrange(degrees[k]) for k in range(i))
                        c = c + MultiPoly(field, vars_i[:-1], {e: random_coeff(field, rng)})
                    coeff_polys.append(c)
                candidate = MultiPoly(
                    field, vars_i, {tuple(d if k == i else 0 for k in range(i + 1)): field.one()}
                )
                for j, c in enumerate(coeff_polys):
                    xj = MultiPoly(
                        field, vars_i, {tuple(j if k == i else 0 for k in range(i + 1)): field.one()}
                    )
                    candidate = candidate + _pad(c, vars_i, field) * xj
                if d == 1:
                    break
                coeff_elems = [tower_reduce(c, partial) for c in coeff_polys]
                ok = True
                for x in enumerate_tower_elements(partial):
                    acc = partial.zero()
                    power = partial.one()
                    for cv in coeff_elems:
                        acc = acc + cv * power
                        power = power * x
                    if (acc + power).is_zero():
                        ok = False
                        break
                if ok:
                    break
        gens.append(candidate)
        degrees.append(d)
        total *= d
    point = TriangularPoint(tuple(gens))
    return point, residue_field(point)


def random_rational_tower(rng):
    """Random residue tower over QQ from a menu of known-irreducible
    shapes.  Returns (point, tower)."""
    shape = rng.choice(("quadratic", "quartic", "biquadratic", "cubic", "mixed"))
    if shape == "quadratic":
        r = rng.choice(QQ_RADICANDS)
        vars = ("x",)
        gens = [parse("x^2 - %d" % r, vars)]
    elif shape == "quartic":
        r = rng.choice(QQ_RADICANDS)
        vars = ("x", "y")
        gens = [parse("x^2 - %d" % r, vars), parse("y^2 - x", vars)]
    elif shape == "biquadratic":
        r, s = rng.sample(QQ_RADICANDS, 2)
        vars = ("x", "y")
        gens = [parse("x^2 - %d" % r, vars), parse("y^2 - %d" % s, vars)]
    elif shape == "cubic":
        vars = ("x",)
        gens = [parse("x^3 - 2", vars)]
    else:
        r = rng.choice(QQ_RADICANDS)
        vars = ("x", "y", "z")
        c1 = rng.randrange(-3, 4)
        c2 = rng.randrange(-2, 3)
        gens = [
            parse("x - %d" % c1 if c1 >= 0 else "x + %d" % -c1, vars),
            parse("y^2 - %d" % r, vars),
            parse("z - y + %d" % c2 if c2 >= 0 else "z - y - %d" % -c2, vars),
        ]
    point = TriangularPoint(tuple(gens))
    return point, residue_field(point)


def random_tower_element(tower, rng, depth=2):
    """Random element built from generators and small scalars."""
    elem = tower.from_int(rng.randrange(-4, 5))
    for i in range(len(tower.levels)):
        if rng.randrange(2):
            power = rng.randrange(1, tower.levels[i].degree + 1)
            elem = elem + tower.from_int(rng.randrange(-3, 4)) * tower.gen(i) ** power
    if depth and rng.randrange(3) == 0:
        elem = elem * random_tower_element(tower, rng, depth - 1)
    return elem


def grevlex_key(e):
    """Sort key of the grevlex order on exponent tuples, kept apart from
    the engine's own: the larger key is the monomial of higher total
    degree or, at equal degree, of smaller last differing exponent."""
    return (sum(e), tuple(-x for x in reversed(e)))


def grevlex_leading_term(f):
    """(exponent, coefficient) of the grevlex-largest term of f."""
    exps = max(f.terms, key=grevlex_key)
    return exps, f.terms[exps]


def reference_normal_form(f, divisors):
    """Remainder of f under full division by ``divisors``, the plain loop:
    take the grevlex leading term of what is left, subtract a multiple of
    the first divisor whose leading term divides it, else move it to the
    remainder.  Any divisor list works, Groebner basis or not."""
    ring = f.ring
    rem = {}
    work = f
    lts = [grevlex_leading_term(g) for g in divisors]
    while not work.is_zero():
        exps, coeff = grevlex_leading_term(work)
        hit = None
        for g, (ge, gc) in zip(divisors, lts):
            if all(a <= b for a, b in zip(ge, exps)):
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


# The engine's reduction kernels as they were on exponent tuples, before
# regulus.groebner packed each monomial into one int.  The reference loop
# below runs on these, so it shares no code with the engine.  Unlike the
# engine it has no reduction work limit.


def _divides(ea, eb) -> bool:
    return all(x <= y for x, y in zip(ea, eb))


class _HeapEntries(dict):
    """Max-heap entry ``((-degree, reversed exponent), exponent)`` of each
    exponent, computed once on first use: ascending tuple order on entries
    is descending grevlex."""

    def __missing__(self, e):
        entry = self[e] = ((-sum(e), e[::-1]), e)
        return entry


def _to_integers(f, p):
    """(d, terms): d times f has these integer coefficients; d is the
    common denominator over QQ and 1 over GF(p).  The terms are a new
    dict, which reduction may consume."""
    if p:
        return 1, dict(f.terms)
    d = math.lcm(*[c.denominator for c in f.terms.values()])
    return d, {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()}


def _from_integers(ring, vars, terms, d):
    """The polynomial with integer ``terms`` divided by d, which is 1 over
    GF(p): every divisor there is monic, so nothing is ever scaled."""
    if ring is QQ:
        return MultiPoly(ring, vars, {e: ring.fraction(c, d) for e, c in terms.items()})
    return MultiPoly(ring, vars, terms)


def _divisor(terms, p):
    """(leading exponent, leading coefficient, tail) of the nonzero integer
    terms, made primitive with a positive leading coefficient over QQ and
    monic over GF(p), with the tail as (exponent, coefficient) pairs."""
    e = max(terms, key=grevlex_key)
    a = terms[e]
    if p:
        inv = pow(a, -1, p)
        return e, 1, [(x, v * inv % p) for x, v in terms.items() if x != e]
    g = math.gcd(*terms.values())
    if a < 0:
        g = -g
    return e, a // g, [(x, v // g) for x, v in terms.items() if x != e]


def _reduce(work, divisors, p, entries):
    """Full reduction of the integer terms ``work`` by ``divisors``, in
    place, fraction-free over QQ.  Returns (remainder, s): the remainder is
    s times the one rational division gives; s is 1 over GF(p)."""
    heap = [entries[e] for e in work]
    heapq.heapify(heap)
    rem = {}
    scale = 1
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
                if a != 1:
                    g = math.gcd(a, c)
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
    return rem, scale


def _s_polynomial(di, dj):
    """Integer terms of a nonzero multiple of the S-polynomial of two
    divisors: (a_j/g) times the first tail minus (a_i/g) times the second,
    each shifted up to the lcm of the leading exponents."""
    (ei, ai, ti), (ej, aj, tj) = di, dj
    top = tuple(map(max, ei, ej))
    si, sj = tuple(map(sub, top, ei)), tuple(map(sub, top, ej))
    g = math.gcd(ai, aj)
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


def reference_groebner_basis(gens):
    """(reduced grevlex basis, pairs taken) of the Buchberger loop that
    takes every pair, in the order of (grevlex_key(lcm), i, j), and skips
    only those with coprime leading terms (the product criterion).
    ``regulus.groebner`` drops more pairs by the Gebauer-Moeller criteria,
    and must give the same basis, with as many pairs formed as this loop
    takes."""
    inputs = [f for f in gens if not f.is_zero()]
    if not inputs:
        return [], 0
    ring = inputs[0].ring
    p = ring.modulus
    divisors, pairs = [], []
    entries = _HeapEntries()

    def join(terms):
        d = _divisor(terms, p)
        for i, (ei, _, _) in enumerate(divisors):
            heapq.heappush(pairs, (grevlex_key(tuple(map(max, ei, d[0]))), i, len(divisors)))
        divisors.append(d)

    for f in inputs:
        join(_to_integers(f, p)[1])
    taken = 0
    while pairs:
        taken += 1
        _, i, j = heapq.heappop(pairs)
        if all(min(a, b) == 0 for a, b in zip(divisors[i][0], divisors[j][0])):
            continue
        r = _reduce(_s_polynomial(divisors[i], divisors[j]), divisors, p, entries)[0]
        if r:
            join(r)

    keep = []
    for k in sorted(range(len(divisors)), key=lambda k: grevlex_key(divisors[k][0])):
        if not any(_divides(divisors[m][0], divisors[k][0]) for m in keep):
            keep.append(k)
    minimal = [divisors[k] for k in reversed(keep)]
    basis = []
    for n, (e, a, tail) in enumerate(minimal):
        work = dict(tail)
        work[e] = a
        rem = _reduce(work, minimal[:n] + minimal[n + 1 :], p, entries)[0]
        basis.append(_from_integers(ring, inputs[0].vars, rem, rem[e]))
    return basis, taken


def standard_monomial_count(basis) -> int:
    """Number of monomials outside the leading-term ideal of a grevlex
    basis; -1 when the count is infinite (the quotient has positive
    dimension)."""
    if not basis:
        return -1
    n = len(basis[0].vars)
    lts = [grevlex_leading_term(g)[0] for g in basis]
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


def reference_cotangent_dimension(point, relations):
    """dim m/(I + m^2) over a field base the Groebner way: count the
    standard monomials of a grevlex basis of the relations and every
    g_i*g_j, and subtract one copy of the residue field."""
    gens = list(relations)
    g = point.generators
    gens += [g[i] * g[j] for i in range(len(g)) for j in range(i, len(g))]
    total = standard_monomial_count(groebner_basis(gens))
    assert total > 0 and total % point.residue_degree == 0
    return total // point.residue_degree - 1


def fraction_rank(rows):
    """Rank of a matrix of Fractions by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class ReferenceTower:
    """The residue tower of a triangular point with nested elements: a
    level-k element is a tuple of d_k level-(k-1) elements, base scalars at
    level 0 (residues in [0, p) over GF(p)), every exponent below its level
    degree.  Arithmetic is the plain recursion on that shape, and inversion
    the extended gcd over the level below, step for step as
    ``regulus.tower`` runs it, so witness texts can be compared.
    ``unnormalized`` counts witnesses printed without normalizing their
    leading coefficient (a deeper defect), ``scalar_inversions`` the
    inversions of base scalars, and ``witness_site`` names the call in the
    outermost inverse through which the last witness raised one level down
    left it: ("lead", k) from the leading-coefficient inversion of a
    division step, ("unit", k) from the final inversion of the gcd."""

    def __init__(self, point):
        self.base = residue_field(point).base
        self.p = self.base.modulus
        self.vars = point.vars
        self.names = tuple(chr(ord("a") + i) for i in range(len(self.vars)))
        self.degrees = []
        self.tails = []
        self.zeros = [self.base.zero()]
        self.unnormalized = 0
        self.scalar_inversions = 0
        self.witness_site = None
        for i, g in enumerate(point.generators):
            d = g.degree_in(i)
            tail = [self._neg(i, self.reduce(g.coefficient_in(i, j), i)) for j in range(d)]
            self.degrees.append(d)
            self.tails.append(tuple(tail))
            self.zeros.append((self.zeros[-1],) * d)

    # ---- the nested recursion ------------------------------------------

    def _embed(self, k, scalar):
        if k == 0:
            return scalar
        return (self._embed(k - 1, scalar),) + (self.zeros[k - 1],) * (self.degrees[k - 1] - 1)

    def _is_zero(self, k, a):
        return a == self.zeros[k]

    def _scalar(self, x):
        """A level-0 sum or product made canonical: its residue over GF(p)."""
        return x if self.p is None else x % self.p

    def _add(self, k, a, b):
        if k == 0:
            return self._scalar(a + b)
        return tuple(self._add(k - 1, x, y) for x, y in zip(a, b))

    def _neg(self, k, a):
        if k == 0:
            return self._scalar(-a)
        return tuple(self._neg(k - 1, x) for x in a)

    def _sub(self, k, a, b):
        return self._add(k, a, self._neg(k, b))

    def _mul(self, k, a, b):
        if k == 0:
            return self._scalar(a * b)
        d = self.degrees[k - 1]
        prod = [self.zeros[k - 1]] * (2 * d - 1)
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
        d = self.degrees[k - 1]
        for idx in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[idx]
            if self._is_zero(k - 1, c):
                continue
            for j, t in enumerate(self.tails[k - 1]):
                if self._is_zero(k - 1, t):
                    continue
                coeffs[idx - d + j] = self._add(
                    k - 1, coeffs[idx - d + j], self._mul(k - 1, c, t)
                )
        return tuple(coeffs[:d])

    def _utrim(self, k1, cs):
        while cs and self._is_zero(k1, cs[-1]):
            cs.pop()
        return cs

    def _uadd(self, k1, a, b):
        out = []
        for i in range(max(len(a), len(b))):
            x = a[i] if i < len(a) else self.zeros[k1]
            y = b[i] if i < len(b) else self.zeros[k1]
            out.append(self._add(k1, x, y))
        return self._utrim(k1, out)

    def _umul(self, k1, a, b):
        if not a or not b:
            return []
        out = [self.zeros[k1]] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self._add(k1, out[i + j], self._mul(k1, x, y))
        return self._utrim(k1, out)

    def _inverse_at(self, site, k1, a):
        try:
            return self._inv(k1, a)
        except IdealNotMaximal:
            self.witness_site = (site, k1 + 1)
            raise

    def _udivmod(self, k1, num, den):
        lead_inv = self._inverse_at("lead", k1, den[-1])
        rem = list(num)
        quo = [self.zeros[k1]] * max(len(num) - len(den) + 1, 0)
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
        return [self._neg(k - 1, t) for t in self.tails[k - 1]] + [
            self._embed(k - 1, self.base.one())
        ]

    def _inv(self, k, a):
        if k == 0:
            self.scalar_inversions += 1
            if self.base.is_zero(a):
                raise ZeroDivisionError("inverse of zero")
            return self.base.inv(a)
        if self._is_zero(k, a):
            raise ZeroDivisionError("inverse of zero")
        k1 = k - 1
        r0 = self._minpoly_dense(k)
        r1 = self._utrim(k1, list(a))
        s0, s1 = [], [self._embed(k1, self.base.one())]
        while r1 and len(r1) - 1 >= 1:
            q, r2 = self._udivmod(k1, r0, r1)
            s2 = self._uadd(k1, s0, [self._neg(k1, c) for c in self._umul(k1, q, s1)])
            r0, s0, r1, s1 = r1, s1, r2, s2
        if not r1:
            witness = self._witness_str(k, r0)
            raise IdealNotMaximal(
                "the ideal is not maximal: %s has the proper factor %s"
                % (self._upoly_str(k, self._minpoly_dense(k)), witness),
                witness=witness,
            )
        u_inv = self._inverse_at("unit", k1, r1[0])
        inv_poly = [self._mul(k1, c, u_inv) for c in s1]
        d = self.degrees[k - 1]
        return self._fold(k, inv_poly + [self.zeros[k1]] * (d - len(inv_poly)))

    # ---- printing ------------------------------------------------------

    def _witness_str(self, k, coeffs):
        k1 = k - 1
        try:
            lead_inv = self._inv(k1, coeffs[-1])
            coeffs = [self._mul(k1, c, lead_inv) for c in coeffs]
        except IdealNotMaximal:
            self.unnormalized += 1
        return self._upoly_str(k, coeffs)

    def _upoly_str(self, k, coeffs):
        k1 = k - 1

        def split(c):
            if self.base is QQ:
                flat = self._flatten(k1, c, (), {})
                if len(flat) == 1 and min(flat.values()) < 0:
                    return True, self._neg(k1, c)
            return False, c

        items = [
            ((j,), c) for j, c in reversed(list(enumerate(coeffs)))
            if not self._is_zero(k1, c)
        ]
        return reference_format_terms(
            items, (self.vars[k1],), lambda c: self._str_data(k1, c), split
        )

    def _flatten(self, k, data, prefix, out):
        if k == 0:
            if not self.base.is_zero(data):
                out[prefix] = data
            return out
        for e, c in enumerate(data):
            self._flatten(k - 1, c, (e,) + prefix, out)
        return out

    def _str_data(self, k, data):
        flat = self._flatten(k, data, (), {})
        items = sorted(flat.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
        split = reference_signed_split if self.base is QQ else None
        return reference_format_terms(items, self.names[:k], self.base.elem_str, split)

    # ---- public interface, on top-level elements ------------------------

    def reduce(self, f, k=None):
        """Image of a polynomial in the first k point variables (all by
        default): each term is its coefficient times generator powers."""
        k = len(self.degrees) if k is None else k
        total = self.zeros[k]
        for exps, c in f.terms.items():
            term = self._embed(k, self.base.coerce(c))
            for i, e in enumerate(exps[:k]):
                for _ in range(e):
                    term = self._mul(k, term, self.gen(i, k))
            total = self._add(k, total, term)
        return total

    def gen(self, i, k):
        """Image at level k of the i-th generator variable (0-based)."""
        coeffs = [self.zeros[i]] * (self.degrees[i] + 1)
        coeffs[1] = self._embed(i, self.base.one())
        data = self._fold(i + 1, coeffs)
        for level in range(i + 1, k):
            data = (data,) + (self.zeros[level],) * (self.degrees[level] - 1)
        return data

    def add(self, a, b):
        return self._add(len(self.degrees), a, b)

    def mul(self, a, b):
        return self._mul(len(self.degrees), a, b)

    def inv(self, a):
        return self._inv(len(self.degrees), a)

    def elem_str(self, a):
        return self._str_data(len(self.degrees), a)


def reference_fold(tower, k, prod, off=0):
    """The fold of a product's extended layout as one recursion per block:
    reduce the extended levels-1..k block at ``prod[off:]`` in place modulo
    the level polynomials, from the top overflow degree down, each block
    folded one level down first.  Afterwards leaf r sits at
    ``prod[off + ext[r]]``, multiplied by the level-k scale.  The tails and
    scale factors come from the levels, not from the tower's plans."""
    while k and tower.levels[k - 1].degree == 1:
        k -= 1
    if not k:
        return
    level = tower.levels[k - 1]
    d, width = level.degree, tower._ext_sizes[k - 1]
    low = tower._ext[: tower._sizes[k - 1]]
    den = math.lcm(*(c[1] for c in level.tail))
    tails = [[(low[r], v * (den // c[1])) for r, v in enumerate(c[0]) if v] for c in level.tail]
    factor = tower._scales[k - 1] * den
    for e in range(2 * d - 2, d - 1, -1):
        top = off + e * width
        for q in range(off, top):
            prod[q] *= factor
        reference_fold(tower, k - 1, prod, top)
        for j, tail in enumerate(tails):
            at = top - (d - j) * width
            for tq, v in tail:
                for q in low:
                    prod[at + tq + q] += prod[top + q] * v
    for e in range(d):
        reference_fold(tower, k - 1, prod, off + e * width)


def reference_build_tower(point, base):
    """The levels of a point's tower as the prefix-tower construction made
    them, one tower per prefix of levels: tail j of level i is the
    coefficient of t_i^j moved into ``base`` (zero residues dropped),
    reduced through levels 1..i-1 and negated.  The reduction is
    ``ReferenceTower``'s nested recursion, made canonical in the flat
    (leaves, den) form, so it shares no arithmetic with the tower's
    constructor.  Returns the (var, degree, tail) triples and the tower's
    ``_sig``."""
    ref = ReferenceTower(point)

    def flat(k, a):
        return (a,) if k == 0 else tuple(x for block in a for x in flat(k - 1, block))

    levels = []
    for i, g in enumerate(point.generators):
        d = g.degree_in(i)
        tail = []
        for power in range(d):
            coeff = MultiPoly(base, point.vars, g.coefficient_in(i, power).terms)
            xs = flat(i, ref._neg(i, ref.reduce(coeff, i)))
            den = 1
            if base is QQ:
                den = math.lcm(*(x.denominator for x in xs))
                xs = [x.numerator * (den // x.denominator) for x in xs]
                content = math.gcd(den, *xs)
                xs, den = tuple(x // content for x in xs), den // content
            tail.append((xs, den))
        levels.append((point.vars[i], d, tuple(tail)))
    return tuple(levels), (base.name, tuple(levels))


def nested_data(elem):
    """A flat tower element in the nested shape of ``ReferenceTower``: leaf
    r, whose mixed-radix digits (level 1 least significant) are its
    exponents, is the scalar at the matching nested position."""
    tower = elem.tower
    leaves, den = elem.data
    degrees = [level.degree for level in tower.levels]

    def build(k, off, size):
        if k == 0:
            x = leaves[off]
            return Fraction(x, den) if tower.base is QQ else tower.base.from_int(x)
        size //= degrees[k - 1]
        return tuple(build(k - 1, off + i * size, size) for i in range(degrees[k - 1]))

    return build(len(degrees), 0, len(leaves))


class IntegersMod:
    """Z/m as a coefficient ring for the reference divisions: plain ints that
    ``MultiPoly`` reduces to [0, m), as over GF(p)."""

    def __init__(self, m):
        self.modulus = m
        self.name = "Z/%d" % m

    def from_int(self, n):
        return n % self.modulus

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, a):
        return a % self.modulus == 0

    def elem_str(self, a):
        return str(a % self.modulus)


def reference_oracle_rows(point, relations):
    """The oracle's rows the plain way: every (rho, M) row divides rho*M,
    and every layer row divides it again and places the remainder on its
    layer.  Over ZZ rho runs over the relations and every p*g_k, reduced
    mod p^2; over a field over the relations alone.  Same rows, in the same
    order."""
    p = point.prime
    ring = point.ring if p is None else IntegersMod(p * p)
    n = point.n
    ghat = reference_normalized_generators(point, ring)
    system = TriangularPoint(tuple(ghat))
    degrees = [g.degree_in(i) for i, g in enumerate(ghat)]
    monomials = _canonical_monomials(degrees)
    d_t = 1
    for d in degrees:
        d_t *= d
    index_of = {mono: k for k, mono in enumerate(monomials)}
    width = (n + 1) * d_t

    def nf2_vector(h):
        quotients, rem = reference_triangular_divide(h, system)
        vec = [0] * width
        for e, c in rem.terms.items():
            vec[index_of[e]] = c
        for k, q in enumerate(quotients):
            _, qrem = reference_triangular_divide(q, system)
            for e, c in qrem.terms.items():
                vec[(k + 1) * d_t + index_of[e]] = c
        return vec

    def layer_vector(h, layer):
        # h * (M * ghat_layer) reduces to NF(h*M) placed on that layer,
        # because all products ghat_j * ghat_k vanish in A*
        _, rem = reference_triangular_divide(h, system)
        vec = [0] * width
        for e, c in rem.terms.items():
            vec[(layer + 1) * d_t + index_of[e]] = c
        return vec

    row_gens = [MultiPoly(ring, f.vars, f.terms) for f in relations]
    if p is not None:
        row_gens += [g.scale(p) for g in ghat]

    rows = []
    for rho in row_gens:
        for mono in monomials:
            mpoly = MultiPoly(ring, point.vars, {mono: 1})
            rows.append(nf2_vector(rho * mpoly))
            shifted = rho.shift(mono)
            for layer in range(n):
                rows.append(layer_vector(shifted, layer))
    return rows


def expand_copies(rows, n):
    """The rows with every copy formed, in the order of
    ``reference_oracle_rows``: after each row, its layer-0 head (the first
    of its n + 1 layers of equal width) placed on each layer 1..n in turn."""
    out = []
    for row in rows:
        d_t = len(row) // (n + 1)
        out.append(row)
        for k in range(1, n + 1):
            out.append([0] * (k * d_t) + row[:d_t] + [0] * ((n - k) * d_t))
    return out


def reference_unit_sweep(rows, p, m):
    """Eliminate over Z/m, for m = p or p^2, using unit pivots only, the
    plain way: each step rescans the rows from the start for a unit entry
    and updates every row at full width.

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


def reference_module_length(rows, p):
    """2u + r_p from two ``reference_unit_sweep`` runs: over Z/p^2, then
    over Z/p on the residual divided by p."""
    u, residual = reference_unit_sweep(rows, p, p * p)
    r_p, _ = reference_unit_sweep([[x // p for x in r] for r in residual], p, p)
    return 2 * u + r_p


def reference_divide_single(f, g, index):
    """Divide f by g, monic in the variable at ``index``, one top slice at a
    time with polynomial arithmetic: each step forms the slice, slice * g,
    its negation and ``rem - slice * g`` as polynomials.  Over ZZ and QQ
    each slice coefficient passes ``check_derived`` before it is used."""
    d = g.degree_in(index)
    quotient = MultiPoly.zero(f.ring, f.vars)
    rem = f
    numeric = f.ring is ZZ or f.ring is QQ
    while True:
        top = rem.degree_in(index)
        if top < d:
            return quotient, rem
        piece_terms = {
            e[:index] + (e[index] - d,) + e[index + 1 :]: c
            for e, c in rem.terms.items()
            if e[index] == top
        }
        if numeric:
            for c in piece_terms.values():
                check_derived(max(abs(c.numerator), c.denominator))
        piece = MultiPoly(f.ring, f.vars, piece_terms)
        quotient = quotient + piece
        rem = rem - piece * g


def reference_triangular_divide(f, point):
    """``triangular_divide`` by ``reference_divide_single``, from the last
    level down to the first."""
    gens = point.generators
    quotients = [None] * len(gens)
    rem = f
    for i in reversed(range(len(gens))):
        quotients[i], rem = reference_divide_single(rem, gens[i], i)
    return tuple(quotients), rem


def reference_normalized_generators(point, ring):
    """``normalized_generators`` by ``reference_divide_single``, as
    polynomials over ``ring``."""
    ghat = []
    for i, g in enumerate(point.generators):
        cur = MultiPoly(ring, g.vars, g.terms) if g.ring is ZZ else g
        for j in reversed(range(i)):
            _, cur = reference_divide_single(cur, ghat[j], j)
        ghat.append(cur)
    return ghat


def reference_clear(rows, ci, pivot, m):
    """``rows`` with column ci eliminated by ``pivot`` (1 there, the column
    already popped off it) and deleted, every row updated over its full
    width; zero rows are dropped."""
    out = []
    for r in rows:
        f = r.pop(ci)
        if f:
            r = [(a - f * b) % m for a, b in zip(r, pivot)]
            if not any(r):
                continue
        out.append(r)
    return out


def dense_unit_sweep(rows, p):
    """``oracle._unit_sweep`` with full-width row updates: the same pivots
    in the same order, so the same rank over GF(p)."""
    pending = [rr for rr in ([x % p for x in r] for r in reversed(rows)) if any(rr)]
    rank = 0
    while pending:
        row = pending.pop()
        ci = next(c for c, x in enumerate(row) if x)
        inv = pow(row.pop(ci), -1, p)
        row = [(x * inv) % p for x in row]
        pending = reference_clear(pending, ci, row, p)
        rank += 1
    return rank


class _HelpRequested(Exception):
    pass


class _ReferenceArgumentParser(argparse.ArgumentParser):
    # usage problems exit 1, as in the command line before it stopped
    # using argparse; a help request raises instead of printing and exiting
    def error(self, message):
        raise JobFileError("usage: %s" % message)

    def print_help(self, file=None):
        raise _HelpRequested


def reference_parse_args(argv):
    """The argparse command line that ``regulus.cli.parse_args`` replaced:
    ``(job_file, report, pretty)``, None for a help request, or the usage
    message of the JobFileError it raises."""
    parser = _ReferenceArgumentParser(
        prog="regulus",
        description="Decide regularity of closed points from a job file.",
    )
    parser.add_argument("job_file", help="path to a sectioned job file")
    parser.add_argument(
        "--report", metavar="PATH", help="also write the report document here"
    )
    parser.add_argument(
        "--pretty", action="store_true", help="indent the report for reading"
    )
    try:
        args = parser.parse_args(argv)
    except _HelpRequested:
        return None
    except JobFileError as exc:
        return exc.message
    return args.job_file, args.report, args.pretty
