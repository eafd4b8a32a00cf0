import itertools
import random
from fractions import Fraction

import pytest

from regulus import (
    EmptyVariety,
    MultiPoly,
    OracleResourceError,
    PrimeField,
    QQ,
    groebner_basis,
    ideal_dimension,
    leading_term,
    normal_form,
    order_key,
)
from regulus import groebner

from helpers import (
    VAR_POOL,
    parse,
    random_coeff,
    random_poly,
    reference_groebner_basis,
    reference_normal_form,
    standard_monomial_count,
)


def _is_reduced_basis(basis, key):
    for i, g in enumerate(basis):
        lt_exp, lt_coeff = leading_term(g, key)
        assert g.ring.is_zero(lt_coeff - g.ring.one()), "basis elements are monic"
        for j, other in enumerate(basis):
            if i == j:
                continue
            other_lt, _ = leading_term(other, key)
            assert not all(a >= b for a, b in zip(lt_exp, other_lt)), "minimal"
            for exp in g.terms:
                assert not all(a >= b for a, b in zip(exp, other_lt)), "interreduced"
    return True


# ---- order keys --------------------------------------------------------


def test_order_keys():
    lex = order_key("lex")
    grevlex = order_key("grevlex")
    # x > y^2 in lex, y^2 > x in grevlex (vars ordered as given)
    assert lex((1, 0)) > lex((0, 2))
    assert grevlex((0, 2)) > grevlex((1, 0))
    # same total degree: x*y > y^2 in both
    assert lex((1, 1)) > lex((0, 2))
    assert grevlex((1, 1)) > grevlex((0, 2))
    with pytest.raises(ValueError):
        order_key("degrevlex")


def test_leading_term():
    f = parse("x^2*y + x*y^2 + y", ("x", "y"))
    exp, coeff = leading_term(f, order_key("lex"))
    assert exp == (2, 1)
    assert coeff == QQ.one()


# ---- basis computation -------------------------------------------------

def test_known_lex_basis():
    vars = ("y", "x")
    gens = [parse("y - x^2", vars), parse("x^3", vars)]
    basis = groebner_basis(gens, "lex")
    key = order_key("lex")
    assert _is_reduced_basis(basis, key)
    lts = sorted(leading_term(g, key)[0] for g in basis)
    assert lts == [(0, 3), (1, 0)]


def test_basis_membership_by_normal_form():
    vars = ("x", "y")
    gens = [parse("x^2 + y", vars), parse("x*y - 1", vars)]
    basis = groebner_basis(gens, "grevlex")
    key = order_key("grevlex")
    for g in gens:
        assert normal_form(g, basis, key).is_zero()
    # a random combination is also in the ideal
    combo = gens[0] * parse("x - 2", vars) + gens[1] * parse("y", vars)
    assert normal_form(combo, basis, key).is_zero()
    # 1 is not in this ideal
    assert not normal_form(parse("1", vars), basis, key).is_zero()


def test_normal_form_matches_reference_division():
    # division by a set that is not a Groebner basis depends on the order
    # in which divisors are tried, so this pins the first-divisor rule
    rng = random.Random(347)
    for _ in range(400):
        ring = rng.choice((QQ, PrimeField(7)))
        vars = VAR_POOL[: rng.randrange(1, 4)]
        key = order_key(rng.choice(("lex", "grlex", "grevlex")))
        f = random_poly(ring, vars, rng, max_exp=3, terms=6)
        divisors = [random_poly(ring, vars, rng, max_exp=2, terms=3) for _ in range(4)]
        divisors = [g for g in divisors[: rng.randrange(5)] if not g.is_zero()]
        assert normal_form(f, divisors, key) == reference_normal_form(f, divisors, key)


def test_normal_form_matches_reference_division_large_coefficients():
    # reduction is fraction-free over QQ: non-unit leading coefficients
    # scale what is left, and the scaling is divided out again exactly
    rng = random.Random(349)
    scalars = (Fraction(7, 5), Fraction(10**30, 7), Fraction(-3, 10**25), Fraction(2**89 - 1, 3**40))
    for _ in range(200):
        vars = VAR_POOL[: rng.randrange(1, 4)]
        key = order_key(rng.choice(("lex", "grlex", "grevlex")))
        f = random_poly(QQ, vars, rng, max_exp=3, terms=6).scale(rng.choice(scalars))
        divisors = []
        for _ in range(rng.randrange(1, 5)):
            g = random_poly(QQ, vars, rng, max_exp=2, terms=3)
            if not g.is_zero():
                lead, c = leading_term(g, key)
                g = g + MultiPoly(QQ, vars, {lead: rng.choice(scalars) - c})
                divisors.append(g.scale(rng.choice(scalars)))
        assert normal_form(f, divisors, key) == reference_normal_form(f, divisors, key)


@pytest.mark.parametrize("ring", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("order", ["lex", "grlex", "grevlex"])
def test_normal_form_edge_cases(ring, order):
    vars = ("x", "y")
    key = order_key(order)
    f = parse("3*x^2*y - x*y + 2*y^2 - 5", vars, ring)
    zero = MultiPoly.zero(ring, vars)
    divisors = [parse("2*x*y - 1", vars, ring), parse("3*y^2 + x", vars, ring)]
    constant = parse("4", vars, ring)
    assert normal_form(zero, divisors, key) == zero
    assert normal_form(f, [], key) == f
    assert normal_form(f, [constant], key) == zero
    assert normal_form(f, divisors + [constant], key) == zero
    for basis in ([], divisors, divisors[::-1], [constant]):
        assert normal_form(f, basis, key) == reference_normal_form(f, basis, key)
    # neither engine entry point consumes its inputs' terms
    before = [dict(g.terms) for g in [f] + divisors]
    normal_form(f, groebner_basis(divisors, order), key)
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
        order = rng.choice(("lex", "grevlex"))
        key = order_key(order)
        try:
            basis = groebner_basis(gens, order)
        except OracleResourceError:
            continue
        assert _is_reduced_basis(basis, key)
        for g in gens:
            assert normal_form(g, basis, key).is_zero()
        done += 1


def test_basis_is_order_sorted_and_deterministic():
    vars = ("x", "y")
    gens = [parse("x^2 + y", vars), parse("x*y - 1", vars)]
    b1 = groebner_basis(gens, "grevlex")
    b2 = groebner_basis(list(reversed(gens)), "grevlex")
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
    key = order_key("grevlex")
    vars = ("x", "y")
    basis = groebner_basis([parse("x^2", vars), parse("y^3", vars)], "grevlex")
    assert standard_monomial_count(basis, key) == 6
    basis = groebner_basis([parse("x^2 - 2", vars), parse("y^2 - x", vars)], "grevlex")
    assert standard_monomial_count(basis, key) == 4
    # positive-dimensional: infinitely many standard monomials
    basis = groebner_basis([parse("x*y - 2", vars)], "grevlex")
    assert standard_monomial_count(basis, key) == -1


# ---- guards ------------------------------------------------------------


def test_variable_guard():
    vars = ("x", "y", "z", "w", "v")
    gens = [MultiPoly.variable(QQ, vars, i) for i in range(5)]
    with pytest.raises(OracleResourceError):
        groebner_basis(gens)


def test_degree_guard():
    with pytest.raises(OracleResourceError):
        groebner_basis([parse("x^7 - 1", ("x",))])


# each ideal forms exactly `pairs` pairs, dropped ones included: the
# smallest PAIR_BUDGET with which its basis computation succeeds
PAIR_COUNTS = [
    (QQ, ("x", "y", "z"), ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1"), "grevlex", 10, 3),
    (PrimeField(7), ("x", "y", "z"), ("x^2 + y*z - 1", "y^2 - x*z + 2", "z^2 + x*y + 3"), "grevlex", 21, 3),
    (QQ, ("x", "y", "z"), ("x^2 + y^2 + z^2 - 1", "x*y - z", "x - y^2 + z"), "lex", 66, 3),
    (QQ, ("x", "y"), ("x^2*y - y^3 + 1", "x*y^2 - x - 2"), "lex", 15, 2),
]


def test_pair_budget_counts_every_pair_taken(monkeypatch):
    for ring, vars, texts, order, pairs, size in PAIR_COUNTS:
        gens = [parse(s, vars, ring) for s in texts]
        monkeypatch.setattr("regulus.groebner.PAIR_BUDGET", pairs)
        assert len(groebner_basis(gens, order)) == size
        monkeypatch.setattr("regulus.groebner.PAIR_BUDGET", pairs - 1)
        with pytest.raises(OracleResourceError):
            groebner_basis(gens, order)


def test_criteria_skip_pairs(monkeypatch):
    # S-polynomials reduced on the PAIR_COUNTS ideals: each count is below
    # the pairs formed, so disabling a criterion changes one of them
    reduced = [0]
    s_polynomial = groebner._s_polynomial

    def counted(di, dj):
        reduced[0] += 1
        return s_polynomial(di, dj)

    monkeypatch.setattr(groebner, "_s_polynomial", counted)
    counts = []
    for ring, vars, texts, order, pairs, _ in PAIR_COUNTS:
        reduced[0] = 0
        groebner_basis([parse(s, vars, ring) for s in texts], order)
        assert reduced[0] < pairs
        counts.append(reduced[0])
    assert counts == [2, 6, 11, 5]


def test_basis_and_pairs_match_reference_loop(monkeypatch):
    # the criteria drop pairs, never a basis element: the reduced basis is
    # that of the loop taking every pair, and as many pairs are formed as
    # it takes (the budget trips one below that count)
    rng = random.Random(367)
    for _ in range(250):
        ring = rng.choice((QQ, PrimeField(7), PrimeField(101)))
        order = rng.choice(("lex", "grlex", "grevlex"))
        vars = VAR_POOL[: rng.randrange(2, 5)]
        monomials = [e for e in itertools.product(range(4), repeat=len(vars)) if sum(e) <= 3]
        gens = []
        for _ in range(rng.randrange(2, 5)):
            exps = rng.sample(monomials, rng.randrange(1, 4))
            gens.append(MultiPoly(ring, vars, {e: random_coeff(ring, rng) for e in exps}))
        basis, taken = reference_groebner_basis(gens, order)
        monkeypatch.setattr(groebner, "PAIR_BUDGET", taken)
        assert groebner_basis(gens, order) == basis
        monkeypatch.setattr(groebner, "PAIR_BUDGET", taken - 1)
        with pytest.raises(OracleResourceError):
            groebner_basis(gens, order)


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
        order = rng.choice(("lex", "grevlex"))
        syms = sympy.symbols(vars)
        if ring is QQ:
            domain = {"domain": "QQ"}
            coeff = lambda c: sympy.Rational(c.numerator, c.denominator)
        else:
            domain = {"modulus": 7}
            coeff = int

        def to_sympy(f):
            return sympy.Poly.from_dict({e: coeff(c) for e, c in f.terms.items()}, syms, **domain)

        ours = monic_set(to_sympy(g) for g in groebner_basis(gens, order))
        theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order=order, **domain)
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
        order = "lex" if len(vars) == 2 else "grevlex"
        ours = groebner_basis(gens, order)
        if ours[0].is_constant():
            continue
        syms = sympy.symbols(vars)

        def to_sympy(f):
            terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
            return sympy.Poly.from_dict(terms, syms, domain="QQ")

        theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order=order, domain="QQ")
        assert {to_sympy(g).monic() for g in ours} == {g.monic() for g in theirs.polys}
        done += 1
