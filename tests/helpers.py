"""Shared random-instance generators for the test suite.

Everything here does rejection sampling against construction-time
constraints only (irreducible level polynomials, degree budgets).  The
instances that come out are valid inputs by construction, so the tests
that consume them never need to swallow library errors.
"""

import itertools
from fractions import Fraction

from regulus import MultiPoly, PrimeField, QQ, TriangularPoint, ZZ, leading_term, parse_poly
from regulus.poly import lift_int
from regulus.tower import residue_field, tower_reduce

VAR_POOL = ("x", "y", "z", "w")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# squarefree non-squares: t^2 - r is irreducible over QQ, t^4 - r is
# Eisenstein, and distinct r, s give a degree-4 biquadratic compositum
QQ_RADICANDS = (2, 3, 5, 7)


def parse(text, vars, ring=QQ):
    return parse_poly(text, vars, ring)


def random_coeff(ring, rng):
    if ring is ZZ:
        return rng.randrange(-4, 5)
    if ring is QQ:
        return Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))
    return ring.from_int(rng.randrange(ring.p))


def random_poly(ring, vars, rng, max_exp=2, terms=3):
    data = {}
    n = len(vars)
    for _ in range(rng.randrange(1, terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(n))
        c = random_coeff(ring, rng)
        prev = data.get(e)
        data[e] = c if prev is None else prev + c
    return MultiPoly(ring, vars, data)


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
                ai, bi = irreducible_quadratic(field.p, rng)
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
    return tower.base.p ** total


def enumerate_tower_elements(tower):
    """All elements of a finite tower.

    The monomials gen_0^k0 * ... * gen_m^km with k_i below the level
    degrees form a GF(p)-basis; elements are their linear combinations.
    """
    p = tower.base.p
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


def reference_normal_form(f, divisors, key):
    """Remainder of f under full division by ``divisors``, the plain loop:
    take the leading term of what is left, subtract a multiple of the
    first divisor whose leading term divides it, else move it to the
    remainder.  Any divisor list works, Groebner basis or not."""
    ring = f.ring
    rem = {}
    work = f
    lts = [leading_term(g, key) for g in divisors]
    while not work.is_zero():
        exps, coeff = leading_term(work, key)
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
