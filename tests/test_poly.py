import pickle
import random
from fractions import Fraction

import pytest

from regulus import (
    InvalidPoint,
    OracleResourceError,
    MultiPoly,
    PolySyntaxError,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    membership_certificate,
    parse_job,
    parse_poly,
    partial_derivative,
    triangular_divide,
)
from regulus import poly
from regulus.poly import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    MAX_TERMS,
    _divide,
    lift_int,
    reduce_mod,
)
from regulus.oracle import normalized_generators

from helpers import (
    VAR_POOL,
    IntegersMod,
    evaluate,
    random_arithmetic_point,
    random_arithmetic_relation,
    random_member,
    random_point,
    random_coeff,
    random_poly,
    rationalize,
    reference_normalized_generators,
    reference_parse_poly,
    reference_poly_str,
    reference_triangular_divide,
)


def P(text, vars, ring=QQ):
    return parse_poly(text, vars, ring)


# ---- basic arithmetic --------------------------------------------------


def test_poly_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(120):
        ring = rng.choice((ZZ, QQ, PrimeField(5)))
        vars = VAR_POOL[: rng.randrange(1, 4)]
        f = random_poly(ring, vars, rng)
        g = random_poly(ring, vars, rng)
        h = random_poly(ring, vars, rng)
        assert (f + g) - g == f
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert (f - f).is_zero()


def test_constant_and_variable_builders():
    f = MultiPoly.variable(QQ, ("x", "y"), 1)
    assert str(f) == "y"
    c = MultiPoly.constant(QQ, ("x", "y"), QQ.fraction(3, 2))
    assert c.is_constant()
    assert c.constant_value() == QQ.fraction(3, 2)
    assert (f * c).total_degree() == 1


def test_degree_helpers():
    f = P("x^3*y + 2*x*y^2 - 5", ("x", "y"))
    assert f.total_degree() == 4
    assert f.degree_in(0) == 3
    assert f.degree_in(1) == 2
    assert MultiPoly.zero(QQ, ("x",)).total_degree() == 0


def test_power():
    f = P("x + 1", ("x",))
    assert f ** 3 == P("x^3 + 3*x^2 + 3*x + 1", ("x",))
    assert f ** 0 == P("1", ("x",))


def test_evaluate():
    f = P("x^2 + y", ("x", "y"))
    v = evaluate(f, [QQ.from_int(3), QQ.from_int(-2)], QQ)
    assert v == QQ.from_int(7)


def test_zero_coefficients_are_dropped():
    f = P("x + 1", ("x",)) - P("x", ("x",))
    assert f.terms == {(0,): QQ.one()}


# ---- display and parsing ----------------------------------------------


def test_display_examples():
    assert str(P("x^2 - 2*x + 1", ("x",))) == "x^2 - 2*x + 1"
    assert str(P("-x + 1/2", ("x",))) == "-x + 1/2"
    assert str(P("y^2 - x^3", ("x", "y"), ZZ)) == "-x^3 + y^2"
    assert str(MultiPoly.zero(QQ, ("x",))) == "0"


def test_display_matches_the_reference_printer():
    # the printer reads each coefficient's sign from its text; the
    # reference is told the sign by the caller, and both print alike
    rng = random.Random(26)
    rings = (ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(101))
    for _ in range(600):
        ring = rng.choice(rings)
        vars = VAR_POOL[: rng.randrange(1, 5)]
        f = random_poly(ring, vars, rng, max_exp=3, terms=6)
        if ring is not ZZ and rng.random() < 0.3:
            f = f.scale(ring.from_int(rng.choice((-1, 1))))
        if ring.modulus is None and rng.random() < 0.3:
            big = rng.randrange(1, 10**40)
            f = f.scale(ring.from_int(rng.choice((-big, big))))
        assert str(f) == reference_poly_str(f)


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolySyntaxError):
        parse_poly("x + q", ("x",), QQ)


def test_parse_rejects_garbage():
    with pytest.raises(PolySyntaxError):
        parse_poly("x +", ("x",), QQ)
    with pytest.raises(PolySyntaxError):
        parse_poly("", ("x",), QQ)
    with pytest.raises(PolySyntaxError):
        parse_poly("x & y", ("x", "y"), QQ)


def test_parse_rational_literals_only_over_qq():
    assert P("1/2*x", ("x",)) == P("x", ("x",)).scale(QQ.fraction(1, 2))
    with pytest.raises(PolySyntaxError):
        parse_poly("1/2*x", ("x",), ZZ)


def test_parse_parens_and_explicit_products():
    assert P("(x + 1)*(x - 1)", ("x",)) == P("x^2 - 1", ("x",))
    assert P("(x + 1)^2", ("x",)) == P("x^2 + 2*x + 1", ("x",))
    with pytest.raises(PolySyntaxError):
        # products need an explicit star
        parse_poly("2 x", ("x",), QQ)


def test_parse_nesting_limit():
    vars = ("x",)
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert P(deepest, vars) == P("x", vars)
    # the depth is per level, not per pair, so siblings at the limit parse
    assert P("%s*%s" % (deepest, deepest), vars) == P("x^2", vars)
    with pytest.raises(PolySyntaxError, match="nested deeper than %d" % MAX_NESTING):
        P("(%s)" % deepest, vars)
    with pytest.raises(PolySyntaxError):
        P("(" * 5000 + "x" + ")" * 5000, vars)


def test_parse_degree_limit():
    vars = ("x", "y")
    assert P("x^%d" % MAX_DEGREE, vars).total_degree() == MAX_DEGREE
    assert P("x^1000*y^1000", vars).total_degree() == 2000 == MAX_DEGREE
    with pytest.raises(PolySyntaxError, match="exponent 2001 is above the limit of 2000"):
        P("x^2001", vars)
    # a constant base is bounded by the exponent limit alone
    with pytest.raises(PolySyntaxError, match="exponent 200000 is above"):
        P("2^200000", vars)
    # products and powers are checked before they are expanded
    with pytest.raises(PolySyntaxError, match="total degree 2001 is above"):
        P("x^1000*y^1001", vars)
    with pytest.raises(PolySyntaxError, match="total degree 2002 is above"):
        P("(x*y + 1)^1001", vars)


def test_parse_term_limit(monkeypatch):
    vars = ("x", "y")
    # (x + 1)^k has k + 1 terms, exactly the bound from the degree.  At
    # k = 999 the term bound admits the power and the parse work limit then
    # stops it, so the count is checked with that limit lifted
    with pytest.raises(OracleResourceError, match="parse work limit"):
        P("(x + 1)^%d" % (MAX_TERMS - 1), vars)
    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 10**7)
    assert len(P("(x + 1)^%d" % (MAX_TERMS - 1), vars).terms) == MAX_TERMS
    monkeypatch.undo()
    with pytest.raises(PolySyntaxError, match="1001 terms are above the limit of 1000"):
        P("(x + 1)^%d" % MAX_TERMS, vars)
    # (x + y + 1)^60 has 1891 terms; the bound counts monomials of degree <= 60
    with pytest.raises(PolySyntaxError, match="1891 terms are above"):
        P("(x + y + 1)^60", vars)
    # a product of few-term factors is bounded by the product of the counts
    assert len(P("(x + 1)^499*(y + 1)", vars).terms) == MAX_TERMS
    with pytest.raises(PolySyntaxError, match="1002 terms are above"):
        P("(x + 1)^500*(y + 1)", vars)
    # a sum is checked once formed
    sum_text = " + ".join("x^%d" % e for e in range(MAX_TERMS + 1))
    with pytest.raises(PolySyntaxError, match="1001 terms are above"):
        P(sum_text, vars)
    assert len(P(sum_text.rsplit(" + ", 1)[0], vars).terms) == MAX_TERMS


def test_parse_digit_limit():
    vars = ("x",)
    top = "9" * MAX_DIGITS
    assert P("x - " + top, vars, ZZ) == P("x", vars, ZZ) - P(top, vars, ZZ)
    with pytest.raises(PolySyntaxError, match="a literal of 1001 digits is above the limit of 1000"):
        P("x - 1" + top, vars, ZZ)
    # products and powers are checked against the product of the factors'
    # coefficient sums before they are expanded: 2^2000 has 603 digits
    assert P("2^2000", vars, ZZ).constant_value() == 2**2000
    with pytest.raises(PolySyntaxError, match="coefficients of up to 1205 digits"):
        P("(2^2000)^2", vars, ZZ)
    with pytest.raises(PolySyntaxError, match="coefficients of up to 1205 digits"):
        P("2^2000*x*2^2000", vars, ZZ)
    with pytest.raises(PolySyntaxError, match="coefficients of up to 1204120 digits"):
        P("(2^2000)^2000", vars, QQ)
    # a sum is checked once formed: coprime denominators multiply
    with pytest.raises(PolySyntaxError, match="a coefficient is above the limit of 1000 digits"):
        P("1/1%s + 1/1%s1" % ("0" * 600, "0" * 599), vars, QQ)
    # GF(p) coefficients never grow
    F = PrimeField(7)
    assert P("(2^2000)^2000", vars, F) == P(str(pow(2, 2000 * 2000, 7)), vars, F)


# ---- the parser against the factor-by-factor reference ---------------


def _parse_outcome(parse, text, vars, ring):
    """The polynomial with its coefficient types, or (message, offset)."""
    try:
        f = parse(text, vars, ring)
    except PolySyntaxError as exc:
        return exc.message, exc.position
    return sorted((e, type(c), c) for e, c in f.terms.items())


def _random_atom(rng, ring):
    kind = rng.randrange(80)
    if kind < 40:
        text = rng.choice(("x", "y", "z"))
    elif kind < 64:
        text = str(rng.choice((0, 1, 2, 3, 7, 10, 14, 49, 9 ** 80)))
    elif kind < 76 and (ring is QQ or kind == 64):
        text = "%d/%d" % (rng.choice((0, 1, 3, 7, 14)), rng.choice((1, 2, 7, 9)))
    else:
        text = rng.choice(("10", "2", "9" * 300, "3/2" if ring is QQ else "3", "x", "y"))
        return "%s^%d" % (text, rng.choice((0, 999, 1000, 1001, 1500, 2000, 2001)))
    if rng.randrange(3) == 0:
        text += "^%d" % rng.choice((0, 1, 2, 3, 5, 14))
    return text


def _random_term(rng, ring, depth):
    factors = []
    for _ in range(rng.randrange(1, 5)):
        if depth and rng.randrange(6) == 0:
            factor = "(%s)" % _random_expr(rng, ring, depth - 1)
            if rng.randrange(2):
                factor += "^%d" % rng.randrange(4)
            factors.append(factor)
        else:
            factors.append(_random_atom(rng, ring))
    return "*".join(factors)


def _random_expr(rng, ring, depth=2):
    text = rng.choice(("", "", "-")) + _random_term(rng, ring, depth)
    for _ in range(rng.randrange(3)):
        text += rng.choice((" + ", " - ")) + _random_term(rng, ring, depth)
    return text


PARSER_BOUNDARY_CASES = [
    "10^999*10", "10^1000*10", "10^1000*1", "10^1000", "10^1001",
    "2^2000*x*2^2000", "2^1000*x*3^1000", "x^1000*y^1001", "x^1000*y^1000",
    "x^1000*y^1000*z", "x^2000*0*y^2000", "x^1500*x^1000*0", "7*x^1500*x^1000",
    "0^0*x", "7^0*x^2", "x^0*y^0", "9" * 1000 + "*" + "9" * 1000,
    "9" * 1000 + "*x", "3/2^1000*x*3/2^1000", "x*(y + 1)^2*x^1999",
    "2*x*(x^1998 + 1)", "(x + 1)*x^1999*2", "x^2*(1/0)", "x^2*3/x", "2^x",
    "x*y*", "x*", "x**y", "x^-1", "(x*y", "x*w", "x^2^3", "2^2000*x*(2^2000)",
]


@pytest.mark.parametrize("ring", [ZZ, QQ, PrimeField(7)], ids=["ZZ", "QQ", "GF7"])
def test_parser_matches_factor_by_factor_reference(ring):
    rng = random.Random({ZZ: 307, QQ: 311}.get(ring, 313))
    vars = ("x", "y", "z")
    texts = PARSER_BOUNDARY_CASES + [_random_expr(rng, ring) for _ in range(170)]
    failures = 0
    for text in texts:
        expected = _parse_outcome(reference_parse_poly, text, vars, ring)
        assert _parse_outcome(parse_poly, text, vars, ring) == expected, text
        failures += isinstance(expected, tuple)
    # both the polynomials and the errors are exercised
    assert 40 <= failures <= len(texts) - 60


def test_parser_zero_coefficient_resets_the_run():
    vars = ("x",)
    assert P("7*x^1500*x^1000", vars, PrimeField(7)).is_zero()
    with pytest.raises(PolySyntaxError) as info:
        P("x^1500*x^1000*0", vars, ZZ)
    assert info.value.message == (
        "total degree 2500 is above the limit of 2000 (at offset 6)"
    )


def test_negative_exponent_raises():
    f = P("x + 1", ("x",))
    with pytest.raises(ValueError, match="negative exponent"):
        f ** -1


def test_parser_roundtrip_random():
    rng = random.Random(23)
    for _ in range(220):
        ring = rng.choice((ZZ, QQ, PrimeField(7)))
        vars = VAR_POOL[: rng.randrange(1, 4)]
        f = random_poly(ring, vars, rng, max_exp=3, terms=4)
        assert parse_poly(str(f), vars, ring) == f


# ---- derivatives -------------------------------------------------------


def test_derivative_examples():
    f = P("x^3 + x + 3", ("x",), ZZ)
    assert partial_derivative(f, 0) == P("3*x^2 + 1", ("x",), ZZ)
    g = P("x*y^2", ("x", "y"))
    assert partial_derivative(g, 0) == P("y^2", ("x", "y"))
    assert partial_derivative(g, 1) == P("2*x*y", ("x", "y"))


def test_derivative_rules_random():
    rng = random.Random(31)
    for _ in range(150):
        ring = rng.choice((ZZ, QQ, PrimeField(3)))
        vars = VAR_POOL[: rng.randrange(1, 4)]
        i = rng.randrange(len(vars))
        j = rng.randrange(len(vars))
        f = random_poly(ring, vars, rng)
        g = random_poly(ring, vars, rng)
        assert partial_derivative(f + g, i) == partial_derivative(f, i) + partial_derivative(g, i)
        assert partial_derivative(f * g, i) == f * partial_derivative(g, i) + g * partial_derivative(f, i)
        assert partial_derivative(partial_derivative(f, i), j) == partial_derivative(
            partial_derivative(f, j), i
        )


# ---- triangular points -------------------------------------------------


def test_point_validation_rejects_bad_shapes():
    vars = ("x", "y")
    with pytest.raises(InvalidPoint, match=r"expected 2 generators for variables \(x, y\), got 1"):
        # generator count must match variable count
        TriangularPoint((P("x - 1", vars),))
    with pytest.raises(InvalidPoint, match="generator 2 must involve its main variable y"):
        # second generator must use the second variable
        TriangularPoint((P("x - 1", vars), P("x - 2", vars)))
    with pytest.raises(InvalidPoint, match="generator 1 is not monic in its main variable x"):
        # not monic in its main variable
        TriangularPoint((P("2*x - 1", vars), P("y", vars)))
    with pytest.raises(InvalidPoint, match="generator 1 may not involve the later variable y"):
        # later variable appears in an earlier generator
        TriangularPoint((P("x - y", vars), P("y", vars)))
    # non-canonical tails are tolerated; they reduce through lower levels
    from regulus import residue_field

    a = residue_field(TriangularPoint((P("x^2 - 2", vars), P("y - x^2", vars))))
    b = residue_field(TriangularPoint((P("x^2 - 2", vars), P("y - 2", vars))))
    assert a.describe() == b.describe()


def test_point_validation_arithmetic():
    vars = ("x",)
    g = P("x^2 + 1", vars, ZZ)
    TriangularPoint((g,), prime=3)
    with pytest.raises(InvalidPoint, match="4 is not prime"):
        TriangularPoint((g,), prime=4)
    with pytest.raises(InvalidPoint, match="a prime is only meaningful over ZZ"):
        # prime only makes sense with integer coefficients
        TriangularPoint((P("x^2 + 1", vars),), prime=3)
    with pytest.raises(InvalidPoint, match="points over ZZ need a prime"):
        # integer coefficients need a prime
        TriangularPoint((g,))


def test_divide_exactness_random():
    rng = random.Random(47)
    for _ in range(520):
        arithmetic = rng.randrange(2)
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        if arithmetic:
            p = rng.choice((2, 3, 5))
            _, point = random_arithmetic_point(vars, p, rng)
            ring = ZZ
        else:
            ring = rng.choice((QQ, PrimeField(2), PrimeField(3), PrimeField(5)))
            point = random_point(vars, ring, rng)
        f = random_poly(ring, vars, rng, max_exp=4, terms=4)
        quotients, rem = triangular_divide(f, point)
        recombined = rem
        for h, g in zip(quotients, point.generators):
            recombined = recombined + h * g
        assert recombined == f
        for i, g in enumerate(point.generators):
            assert rem.degree_in(i) < g.degree_in(i)


def test_divide_is_deterministic():
    vars = ("x", "y")
    point = TriangularPoint((P("x^2 - 2", vars), P("y^2 - x", vars)))
    f = P("y^4 + x*y^2 + 3", vars)
    assert triangular_divide(f, point) == triangular_divide(f, point)


def _random_monic_generators(ring, vars, rng):
    """Generators g_i monic of degree 1-3 in x_i, free of later variables,
    with a tail of up to four terms in x_1..x_i.  The tails are not reduced
    by the lower levels, so division also meets lower-level terms above
    their level degree."""
    n = len(vars)
    gens = []
    for i in range(n):
        d = rng.randrange(1, 4)
        terms = {tuple(d if k == i else 0 for k in range(n)): ring.one()}
        for _ in range(rng.randrange(5)):
            e = [rng.randrange(3) for _ in range(i)] + [rng.randrange(d)] + [0] * (n - i - 1)
            terms[tuple(e)] = random_coeff(ring, rng)
        gens.append(MultiPoly(ring, vars, terms))
    return tuple(gens)


def _assert_same_division(f, point):
    quotients, rem = triangular_divide(f, point)
    ref_quotients, ref_rem = reference_triangular_divide(f, point)
    # the kernel on the plain term dict, with the ring's modulus
    kernel = _divide(f.terms, point._levels, f.ring.modulus)
    assert kernel == ([q.terms for q in ref_quotients], ref_rem.terms)
    assert quotients == ref_quotients
    assert [list(q.terms) for q in quotients] == [list(q.terms) for q in ref_quotients]
    assert rem == ref_rem
    assert list(rem.terms) == list(ref_rem.terms)
    assert (rem is f) == (ref_rem is f)
    return quotients, rem


DIVISION_RINGS = (
    ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(101), IntegersMod(4), IntegersMod(9)
)


@pytest.mark.parametrize("ring", DIVISION_RINGS, ids=lambda r: r.name)
def test_divide_matches_the_reference_division(ring):
    # quotients, remainder and the insertion order of every term dict equal
    # those of dividing one top slice at a time with polynomial arithmetic
    rng = random.Random(467 + DIVISION_RINGS.index(ring))
    steps = reduced = 0
    for _ in range(60):
        vars = VAR_POOL[: rng.randrange(1, 4)]
        gens = _random_monic_generators(ring, vars, rng)
        prime = rng.choice((2, 3, 5)) if ring is ZZ else None
        point = TriangularPoint(gens, prime=prime)
        for _ in range(4):
            f = random_poly(ring, vars, rng, max_exp=rng.randrange(1, 7), terms=8)
            quotients, rem = _assert_same_division(f, point)
            steps += any(q.terms for q in quotients)
            # an already reduced f comes back itself, with zero quotients
            again, same = _assert_same_division(rem, point)
            assert same is rem
            assert not any(q.terms for q in again)
            reduced += 1
        ghat, levels = normalized_generators(point, ring.modulus)
        ref = reference_normalized_generators(point, ring)
        assert ghat == [g.terms for g in ref]
        assert [list(g) for g in ghat] == [list(g.terms) for g in ref]
        assert levels == TriangularPoint(tuple(ref), prime)._levels
        if prime:
            # the oracle's generators over Z/p^2 of a point over ZZ
            ghat, _ = normalized_generators(point, prime * prime)
            ref = reference_normalized_generators(point, IntegersMod(prime * prime))
            assert ghat == [g.terms for g in ref]
    assert steps >= 100 and reduced == 240


def test_parse_work_limit(monkeypatch):
    vars = ("x",)
    # 18 characters whose products once took seconds to multiply out
    with pytest.raises(OracleResourceError) as exc:
        P("(x - 1)^999 + x - 1", vars)
    assert str(exc.value) == (
        "multiplying out products and powers is above the parse work limit of %d"
        % poly.MAX_PARSE_WORK
    )
    # s*t units for factors of s and t terms, counted before each product,
    # each one inside a power included
    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 10)
    P("(x + 1)*(x + 2)*(x + 3)", vars)  # 2*2 + 3*2
    P("(x + 1)^3", vars)  # 2*2 + 2*3, counted from zero in a new call
    with pytest.raises(OracleResourceError):
        P("(x + 1)*(x + 2)*(x + 3)*(x + 4)", vars)  # 10 + 4*2
    with pytest.raises(OracleResourceError):
        P("(x + 1)^4", vars)  # 2*2 + 3*3
    # over ZZ and QQ 1 + b // 256 times as many, for a bound of b bits on
    # the product's coefficients: here 997 + 2 bits
    big = "(%s*x + 1)*(x + 1)" % ("9" * 300)
    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 4)
    P(big, vars, PrimeField(7))
    with pytest.raises(OracleResourceError):
        P(big, vars, ZZ)
    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 16)
    P(big, vars, ZZ)
    monkeypatch.setattr(poly, "MAX_PARSE_WORK", 15)
    with pytest.raises(OracleResourceError):
        P(big, vars, QQ)
    # a job totals the work of all its polynomials
    job = "[ring]\nvars = x\nbase = QQ\nrelations = %s\n[point]\ngenerators = x + 1\n"
    job += "[task]\nkind = check\n"
    parse_job(job % "(x + 1)*(x + 2)*(x + 3)")
    with pytest.raises(OracleResourceError, match="parse work limit of 15"):
        parse_job(job % "(x + 1)*(x + 2)*(x + 3), (x + 1)*(x + 2)*(x + 3)")
    # and a job that failed leaves no count behind
    P("(x + 1)*(x + 2)*(x + 3)", vars)


def test_division_trips_the_digit_limit_like_the_reference():
    # two oversize coefficients in one top slice, the smaller one first in
    # dict order and the larger one first in grlex order: the first one
    # checked, in dict order, names its digit count
    vars = ("x", "y")
    big, bigger = Fraction(10**4005, 3), Fraction(7, 10**4100)
    f = MultiPoly(QQ, vars, {(1, 1): big, (2, 1): bigger, (0, 0): Fraction(1, 2)})
    point = TriangularPoint((P("x^2 - 1/2", vars), P("y - 2/3*x", vars)))
    with pytest.raises(OracleResourceError) as ref:
        reference_triangular_divide(f, point)
    with pytest.raises(OracleResourceError) as got:
        triangular_divide(f, point)
    assert str(got.value) == str(ref.value)
    assert "about 4006 digits" in str(got.value)
    # a number that division itself grows trips at the same step
    n = 10**999
    g = MultiPoly(QQ, ("x",), {(1,): QQ.one(), (0,): Fraction(-n, 7)})
    f = MultiPoly(QQ, ("x",), {(6,): QQ.one(), (1,): Fraction(1, 3)})
    point = TriangularPoint((g,))
    with pytest.raises(OracleResourceError) as ref:
        reference_triangular_divide(f, point)
    with pytest.raises(OracleResourceError) as got:
        triangular_divide(f, point)
    assert str(got.value) == str(ref.value)


def test_point_keeps_its_fields_after_division():
    # the levels that division reads are kept on the point, but they are
    # not a field: equality, hash, repr and pickling are unchanged
    vars = ("x", "y")
    point = TriangularPoint((P("x^2 - 2", vars), P("y^2 - x", vars)))
    fresh = TriangularPoint(point.generators)
    before = repr(point)
    triangular_divide(P("y^4 + x*y^2 + 3", vars), point)
    assert point == fresh and hash(point) == hash(fresh)
    assert repr(point) == before
    # polynomials pickle from protocol 2 on
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(point, protocol))
        assert copy == point
        assert triangular_divide(P("y^3", vars), copy) == triangular_divide(P("y^3", vars), point)


def test_membership_random():
    rng = random.Random(59)
    for _ in range(120):
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        ring = rng.choice((QQ, PrimeField(3)))
        point = random_point(vars, ring, rng)
        f = random_member(point, rng)
        assert membership_certificate(f, point)
        # adding a nonzero constant leaves the maximal ideal
        assert not membership_certificate(f + MultiPoly.constant(ring, vars, ring.one()), point)


def test_membership_arithmetic():
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randrange(1, 3)
        vars = VAR_POOL[:n]
        p = rng.choice((2, 3, 5))
        fiber, point = random_arithmetic_point(vars, p, rng)
        f = random_arithmetic_relation(fiber, p, rng)
        assert membership_certificate(f, point)
        one = MultiPoly.constant(ZZ, vars, 1)
        assert not membership_certificate(f + one, point)
        # p itself is in the ideal
        assert membership_certificate(one.scale(p), point)


def test_reduce_and_lift():
    vars = ("x", "y")
    F = PrimeField(3)
    f = P("4*x^2 - y + 6", vars, ZZ)
    assert reduce_mod(f, F) == parse_poly("x^2 + 2*y", vars, F)
    g = parse_poly("2*x + 1", vars, F)
    assert reduce_mod(lift_int(g), F) == g
    assert rationalize(P("x - 2", vars, ZZ)) == P("x - 2", vars)
