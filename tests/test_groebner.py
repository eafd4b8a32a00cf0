import itertools
import operator
import random
from fractions import Fraction

import pytest

from regulus import (
    EmptyVariety,
    MultiPoly,
    OracleResourceError,
    PrimeField,
    QQ,
    ZZ,
    groebner_basis,
    ideal_dimension,
    normal_form,
)
from regulus import groebner

from helpers import (
    VAR_POOL,
    grevlex_leading_term,
    parse,
    random_coeff,
    random_poly,
    reference_groebner_basis,
    reference_normal_form,
    standard_monomial_count,
)


def _is_reduced_basis(basis):
    for i, g in enumerate(basis):
        lt_exp, lt_coeff = grevlex_leading_term(g)
        assert g.ring.is_zero(lt_coeff - g.ring.one()), "basis elements are monic"
        for j, other in enumerate(basis):
            if i == j:
                continue
            other_lt, _ = grevlex_leading_term(other)
            assert not all(a >= b for a, b in zip(lt_exp, other_lt)), "minimal"
            for exp in g.terms:
                assert not all(a >= b for a, b in zip(exp, other_lt)), "interreduced"
    return True


# ---- the monomial order ------------------------------------------------


def _grevlex_compare(a, b):
    """-1, 0 or 1 as the monomial a is smaller than, equal to or larger
    than b in grevlex, from the definition: the higher total degree is
    larger; at equal degree, the one whose last differing exponent is
    smaller is larger."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x > y else 1
    return 0


def test_order_keys():
    pack = groebner._packing(2, groebner._width(2))[0]
    # y^2 > x in grevlex (vars ordered as given)
    assert pack((0, 2)) > pack((1, 0))
    # same total degree: x*y > y^2, and x^2*y > x*y^2
    assert pack((1, 1)) > pack((0, 2))
    assert pack((2, 1)) > pack((1, 2))


def test_packed_monomials_keep_order_shift_and_divisibility(monkeypatch):
    # random exponent tuples of length 1 to 4, up to the largest exponent M
    # the field width admits: int order on the packed monomials is grevlex,
    # the guard-bit test is divisibility, and a shift is one addition
    rng = random.Random(379)
    for _ in range(300):
        n, w = rng.randrange(1, 5), groebner._width(rng.randrange(7))
        pack, unpack, guard = groebner._packing(n, w)
        top = (1 << w - 1) - 1
        exps = [tuple(rng.choice((0, top, rng.randrange(top + 1))) for _ in range(n))
                for _ in range(rng.randrange(1, 12))]
        for a in exps:
            assert unpack(pack(a)) == a
            for b in exps:
                assert (pack(a) > pack(b)) - (pack(a) < pack(b)) == _grevlex_compare(a, b)
                assert (not (pack(a) - pack(b)) & guard) == all(map(operator.le, a, b))
            s = tuple(rng.randrange(top - x + 1) for x in a)
            t = tuple(rng.randrange(top - x + 1) for x in s)
            shifted = tuple(map(operator.add, a, s))
            assert pack(t) + pack(shifted) - pack(a) == pack(tuple(map(operator.add, t, s)))
    # a normal form never refuses: the width grows with its input degrees
    x = ("x",)
    assert normal_form(parse("x^200 - 1", x), [parse("x - 1", x)]).is_zero()
    # with M = 3, pair lcms of degree 3 fit and one of degree 4 is refused
    monkeypatch.setattr(groebner, "_width", lambda degree: 3)
    assert groebner_basis([parse("x^3 - 1", x), parse("x^2 - 1", x)]) == [parse("x - 1", x)]
    vars = ("x", "y")
    with pytest.raises(OracleResourceError, match=r"^basis computation supports pair degree at most 3, got 4$"):
        groebner_basis([parse("x^2 + y", vars), parse("y^2 + x", vars)])


def test_leading_term():
    # the divisor data of x^2*y + x*y^2 + y leads with x^2*y in grevlex
    f = parse("x^2*y + x*y^2 + y", ("x", "y"))
    pack, unpack, _ = groebner._packing(2, groebner._width(3))
    exp, coeff, _ = groebner._divisor(groebner._to_integers(f, None, pack)[1], None)
    assert (unpack(exp), coeff) == ((2, 1), 1)
    assert grevlex_leading_term(groebner_basis([f])[0])[0] == (2, 1)


# ---- basis computation -------------------------------------------------

def test_known_grevlex_basis():
    # y - x^2 leads with x^2 in grevlex, so x*y and y^2 join the basis
    vars = ("y", "x")
    gens = [parse("y - x^2", vars), parse("x^3", vars)]
    basis = groebner_basis(gens)
    assert _is_reduced_basis(basis)
    assert [str(g) for g in basis] == ["y^2", "y*x", "x^2 - y"]


def test_basis_membership_by_normal_form():
    vars = ("x", "y")
    gens = [parse("x^2 + y", vars), parse("x*y - 1", vars)]
    basis = groebner_basis(gens)
    for g in gens:
        assert normal_form(g, basis).is_zero()
    # a random combination is also in the ideal
    combo = gens[0] * parse("x - 2", vars) + gens[1] * parse("y", vars)
    assert normal_form(combo, basis).is_zero()
    # 1 is not in this ideal
    assert not normal_form(parse("1", vars), basis).is_zero()


def test_normal_form_matches_reference_division():
    # division by a set that is not a Groebner basis depends on the order
    # in which divisors are tried, so this pins the first-divisor rule
    rng = random.Random(347)
    for _ in range(400):
        ring = rng.choice((QQ, PrimeField(7)))
        vars = VAR_POOL[: rng.randrange(1, 4)]
        f = random_poly(ring, vars, rng, max_exp=3, terms=6)
        divisors = [random_poly(ring, vars, rng, max_exp=2, terms=3) for _ in range(4)]
        divisors = [g for g in divisors[: rng.randrange(5)] if not g.is_zero()]
        assert normal_form(f, divisors) == reference_normal_form(f, divisors)


def test_normal_form_matches_reference_division_large_coefficients():
    # reduction is fraction-free over QQ: non-unit leading coefficients
    # scale what is left, and the scaling is divided out again exactly
    rng = random.Random(349)
    scalars = (Fraction(7, 5), Fraction(10**30, 7), Fraction(-3, 10**25), Fraction(2**89 - 1, 3**40))
    for _ in range(200):
        vars = VAR_POOL[: rng.randrange(1, 4)]
        f = random_poly(QQ, vars, rng, max_exp=3, terms=6).scale(rng.choice(scalars))
        divisors = []
        for _ in range(rng.randrange(1, 5)):
            g = random_poly(QQ, vars, rng, max_exp=2, terms=3)
            if not g.is_zero():
                lead, c = grevlex_leading_term(g)
                g = g + MultiPoly(QQ, vars, {lead: rng.choice(scalars) - c})
                divisors.append(g.scale(rng.choice(scalars)))
        assert normal_form(f, divisors) == reference_normal_form(f, divisors)


@pytest.mark.parametrize("ring", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_normal_form_edge_cases(ring):
    vars = ("x", "y")
    f = parse("3*x^2*y - x*y + 2*y^2 - 5", vars, ring)
    zero = MultiPoly.zero(ring, vars)
    divisors = [parse("2*x*y - 1", vars, ring), parse("3*y^2 + x", vars, ring)]
    constant = parse("4", vars, ring)
    assert normal_form(zero, divisors) == zero
    assert normal_form(f, []) == f
    assert normal_form(f, [constant]) == zero
    assert normal_form(f, divisors + [constant]) == zero
    for basis in ([], divisors, divisors[::-1], [constant]):
        assert normal_form(f, basis) == reference_normal_form(f, basis)
    # neither engine entry point consumes its inputs' terms
    before = [dict(g.terms) for g in [f] + divisors]
    normal_form(f, groebner_basis(divisors))
    assert [g.terms for g in [f] + divisors] == before


def test_reduced_basis_properties_random():
    rng = random.Random(307)
    done = 0
    while done < 60:
        ring = rng.choice((QQ, PrimeField(2), PrimeField(5)))
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        gens = [random_poly(ring, vars, rng, max_exp=2, terms=3) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        try:
            basis = groebner_basis(gens)
        except OracleResourceError:
            continue
        assert _is_reduced_basis(basis)
        for g in gens:
            assert normal_form(g, basis).is_zero()
        done += 1


def test_basis_is_order_sorted_and_deterministic():
    vars = ("x", "y")
    gens = [parse("x^2 + y", vars), parse("x*y - 1", vars)]
    b1 = groebner_basis(gens)
    b2 = groebner_basis(list(reversed(gens)))
    assert [str(g) for g in b1] == [str(g) for g in b2]


# ---- dimension ---------------------------------------------------------


def test_dimension_examples():
    vars = ("x", "y")
    assert ideal_dimension([parse("x*y - 2", vars)]) == 1
    assert ideal_dimension([parse("x", vars), parse("y", vars)]) == 0
    assert ideal_dimension([MultiPoly.zero(QQ, vars)]) == 2
    three = ("x", "y", "z")
    assert ideal_dimension([parse("x*y", three), parse("x*z", three)]) == 2


def test_dimension_of_hypersurface_random():
    rng = random.Random(311)
    done = 0
    while done < 40:
        ring = rng.choice((QQ, PrimeField(3)))
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        f = random_poly(ring, vars, rng, max_exp=2, terms=3)
        if f.is_constant():
            continue
        assert ideal_dimension([f]) == n - 1
        done += 1


def test_unit_ideal_is_empty_variety():
    vars = ("x",)
    with pytest.raises(EmptyVariety):
        ideal_dimension([parse("1", vars)])
    with pytest.raises(EmptyVariety):
        # no common zero
        ideal_dimension([parse("x", vars), parse("x - 1", vars)])


def test_dimension_needs_at_least_one_generator():
    with pytest.raises(ValueError):
        ideal_dimension([])


# ---- standard monomials ------------------------------------------------


def test_standard_monomial_count():
    vars = ("x", "y")
    basis = groebner_basis([parse("x^2", vars), parse("y^3", vars)])
    assert standard_monomial_count(basis) == 6
    basis = groebner_basis([parse("x^2 - 2", vars), parse("y^2 - x", vars)])
    assert standard_monomial_count(basis) == 4
    # positive-dimensional: infinitely many standard monomials
    basis = groebner_basis([parse("x*y - 2", vars)])
    assert standard_monomial_count(basis) == -1


# ---- guards ------------------------------------------------------------


def test_variable_guard():
    vars = ("x", "y", "z", "w", "v")
    gens = [MultiPoly.variable(QQ, vars, i) for i in range(5)]
    with pytest.raises(OracleResourceError):
        groebner_basis(gens)


def test_degree_guard():
    with pytest.raises(OracleResourceError):
        groebner_basis([parse("x^7 - 1", ("x",))])


def test_basis_needs_field_coefficients():
    with pytest.raises(ValueError, match="^basis computation needs field coefficients$"):
        groebner_basis([parse("x^2 - 2", ("x",), ZZ)])


@pytest.mark.parametrize("first, second, message", [
    (("x - 6", ("x",), PrimeField(7)), ("y", ("y",), PrimeField(5)), "mixed coefficient rings"),
    (("x - 1/2", ("x",), QQ), ("x", ("x",), PrimeField(5)), "mixed coefficient rings"),
    (("x", ("x",), QQ), ("y", ("x", "y"), QQ), "mixed variable tuples"),
], ids=["GF7-GF5", "QQ-GF5", "vars"])
def test_inputs_must_agree(first, second, message):
    # the engine takes the ring and the variables from its first input, so
    # a second input of another ring or variable tuple is refused up front
    f, g = parse(*first), parse(*second)
    with pytest.raises(ValueError, match="^%s$" % message):
        groebner_basis([f, g])
    with pytest.raises(ValueError, match="^%s$" % message):
        groebner_basis([f, MultiPoly.zero(g.ring, g.vars)])
    with pytest.raises(ValueError, match="^%s$" % message):
        normal_form(f, [g])


def test_reduction_work_is_bounded_per_call(monkeypatch):
    # each PAIR_COUNTS ideal subtracts exactly `work` weighted tail terms in
    # one basis computation, and the normal form of a member 3; the count
    # starts again at every call
    for ring, vars, texts, _, size, work in PAIR_COUNTS:
        gens = [parse(s, vars, ring) for s in texts]
        monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", work)
        assert len(groebner_basis(gens)) == len(groebner_basis(gens)) == size
        monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", work - 1)
        with pytest.raises(OracleResourceError, match=r"reduction work limit \(%d terms subtracted\)" % (work - 1)):
            groebner_basis(gens)
    vars = ("x", "y")
    basis = [parse("x^2 + y", vars), parse("x*y - 1", vars), parse("y^2 + x", vars)]
    member = parse("x^3 - 2*x^2 + x*y^2 + x*y - 3*y", vars)
    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 3)
    assert normal_form(member, basis).is_zero() and normal_form(member, basis).is_zero()
    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 2)
    with pytest.raises(OracleResourceError):
        normal_form(member, basis)


# each ideal forms exactly `pairs` pairs, dropped ones included, and
# subtracts `work` weighted tail terms: the smallest PAIR_BUDGET and
# MAX_REDUCTION_WORK with which its basis computation succeeds
PAIR_COUNTS = [
    (QQ, ("x", "y", "z"), ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1"), 10, 3, 17),
    (PrimeField(7), ("x", "y", "z"), ("x^2 + y*z - 1", "y^2 - x*z + 2", "z^2 + x*y + 3"), 21, 3, 20),
    (QQ, ("x", "y", "z"), ("x^2 + y^2 + z^2 - 1", "x*y - z", "x - y^2 + z"), 15, 6, 172),
    (QQ, ("x", "y"), ("x^2*y - y^3 + 1", "x*y^2 - x - 2"), 6, 4, 12),
]


def test_pair_budget_counts_every_pair_taken(monkeypatch):
    for ring, vars, texts, pairs, size, _ in PAIR_COUNTS:
        gens = [parse(s, vars, ring) for s in texts]
        monkeypatch.setattr("regulus.groebner.PAIR_BUDGET", pairs)
        assert len(groebner_basis(gens)) == size
        monkeypatch.setattr("regulus.groebner.PAIR_BUDGET", pairs - 1)
        with pytest.raises(OracleResourceError):
            groebner_basis(gens)


def test_criteria_skip_pairs(monkeypatch):
    # S-polynomials reduced on the PAIR_COUNTS ideals: each count is below
    # the pairs formed, so disabling a criterion changes one of them
    reduced = [0]
    s_polynomial = groebner._s_polynomial

    def counted(top, di, dj):
        reduced[0] += 1
        return s_polynomial(top, di, dj)

    monkeypatch.setattr(groebner, "_s_polynomial", counted)
    counts = []
    for ring, vars, texts, pairs, _, _ in PAIR_COUNTS:
        reduced[0] = 0
        groebner_basis([parse(s, vars, ring) for s in texts])
        assert reduced[0] < pairs
        counts.append(reduced[0])
    assert counts == [2, 6, 8, 3]


def test_basis_and_pairs_match_reference_loop(monkeypatch):
    # the criteria drop pairs, never a basis element: the reduced basis is
    # that of the loop taking every pair, and as many pairs are formed as
    # it takes (the budget trips one below that count)
    rng = random.Random(367)
    for _ in range(250):
        ring = rng.choice((QQ, PrimeField(7), PrimeField(101)))
        vars = VAR_POOL[: rng.randrange(2, 5)]
        monomials = [e for e in itertools.product(range(4), repeat=len(vars)) if sum(e) <= 3]
        gens = []
        for _ in range(rng.randrange(2, 5)):
            exps = rng.sample(monomials, rng.randrange(1, 4))
            gens.append(MultiPoly(ring, vars, {e: random_coeff(ring, rng) for e in exps}))
        basis, taken = reference_groebner_basis(gens)
        monkeypatch.setattr(groebner, "PAIR_BUDGET", taken)
        assert groebner_basis(gens) == basis
        monkeypatch.setattr(groebner, "PAIR_BUDGET", taken - 1)
        with pytest.raises(OracleResourceError):
            groebner_basis(gens)


def test_reduced_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def monic_set(polys):
        return {f.monic() for f in polys if not f.is_zero}

    rng = random.Random(331)
    done = 0
    while done < 60:
        ring = rng.choice((QQ, PrimeField(7)))
        vars = VAR_POOL[: rng.randrange(2, 4)]
        gens = [random_poly(ring, vars, rng, max_exp=2, terms=3) for _ in range(rng.randrange(2, 4))]
        if all(g.is_zero() for g in gens):
            continue
        syms = sympy.symbols(vars)
        if ring is QQ:
            domain = {"domain": "QQ"}
            coeff = lambda c: sympy.Rational(c.numerator, c.denominator)
        else:
            domain = {"modulus": 7}
            coeff = int

        def to_sympy(f):
            return sympy.Poly.from_dict({e: coeff(c) for e, c in f.terms.items()}, syms, **domain)

        ours = monic_set(to_sympy(g) for g in groebner_basis(gens))
        theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order="grevlex", **domain)
        assert ours == monic_set(theirs.polys)
        done += 1


def test_reduced_basis_matches_sympy_large_coefficients():
    # degree-3 ideals with coefficients up to 1000/1000: the integers of
    # fraction-free reduction grow, the reduced basis must not change
    sympy = pytest.importorskip("sympy")
    rng = random.Random(353)
    done = 0
    while done < 12:
        vars = VAR_POOL[: rng.randrange(2, 4)]
        monomials = [e for e in itertools.product(range(4), repeat=len(vars)) if sum(e) <= 3]
        gens = []
        for _ in vars:
            exps = rng.sample(monomials, rng.randrange(3, 5))
            gens.append(MultiPoly(QQ, vars, {
                e: Fraction(rng.randrange(-1000, 1001), rng.randrange(1, 1001)) for e in exps
            }))
        ours = groebner_basis(gens)
        if ours[0].is_constant():
            continue
        syms = sympy.symbols(vars)

        def to_sympy(f):
            terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
            return sympy.Poly.from_dict(terms, syms, domain="QQ")

        theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order="grevlex", domain="QQ")
        assert {to_sympy(g).monic() for g in ours} == {g.monic() for g in theirs.polys}
        done += 1
