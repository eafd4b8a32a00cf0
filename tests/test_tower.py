import itertools
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from regulus import (
    IdealNotMaximal,
    MultiPoly,
    OracleResourceError,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    parse_poly,
    partial_derivative,
    residue_field,
    tower_reduce,
)
from regulus import tower as tower_module
from regulus.cli import main
from regulus.tower import MAX_RESIDUE_DEGREE, ResidueTower, TowerElem

from helpers import (
    VAR_POOL,
    IntegersMod,
    ReferenceTower,
    enumerate_tower_elements,
    evaluate,
    nested_data,
    random_finite_tower,
    random_member,
    random_point,
    random_poly,
    random_rational_tower,
    random_tower_element,
    reference_build_tower,
    reference_fold,
    random_scalar,
    split_level_point,
    tower_size,
    parse,
)


def gf9_point():
    F = PrimeField(3)
    return TriangularPoint((parse_poly("x^2 + 1", ("x",), F),))


def quartic_point():
    vars = ("x", "y")
    return TriangularPoint((parse("x^2 - 2", vars), parse("y^2 - x", vars)))


# ---- pinned examples ---------------------------------------------------


def test_describe_strings():
    assert residue_field(gf9_point()).describe() == "GF(3)[a]/(a^2+1)"
    assert residue_field(quartic_point()).describe() == "QQ[a]/(a^2-2)[b]/(b^2-a)"


def test_degree_one_levels_are_omitted_from_description():
    vars = ("x", "y")
    point = TriangularPoint((parse("x - 3", vars), parse("y^2 - 2", vars)))
    assert residue_field(point).describe() == "QQ[b]/(b^2-2)"


def test_reduction_examples():
    tower = residue_field(quartic_point())
    vars = ("x", "y")
    # y^4 = (y^2)^2 = x^2 = 2 in this tower
    assert tower_reduce(parse("y^4", vars), tower) == tower.from_int(2)
    assert tower_reduce(parse("y^2 - x", vars), tower).is_zero()

    gf9 = residue_field(gf9_point())
    F = PrimeField(3)
    assert tower_reduce(parse_poly("x^2", ("x",), F), gf9) == gf9.from_int(2)


def test_inversion_example_gf9():
    tower = residue_field(gf9_point())
    a = tower.gen(0)
    two_a = tower.from_int(2) * a
    inv = tower.inv(two_a)
    assert (two_a * inv - tower.one()).is_zero()
    assert inv == a


def test_inversion_rational_tower():
    tower = residue_field(quartic_point())
    b = tower.gen(1)
    # 1/b = b^3/2 since b^4 = 2
    inv = tower.inv(b)
    assert (b * inv - tower.one()).is_zero()
    assert inv == b ** 3 * tower.coerce(QQ.fraction(1, 2))


def test_arithmetic_residue_field_uses_the_prime():
    point = TriangularPoint((parse_poly("x^2 + 1", ("x",), ZZ),), prime=3)
    tower = residue_field(point)
    assert tower.base is PrimeField(3)
    assert tower.describe() == "GF(3)[a]/(a^2+1)"


def test_residue_degree_is_bounded_before_any_level_is_built():
    # four levels of degree 4 make D = 256, the limit; one level of degree
    # 257 is refused before its power chain is folded
    vars = ("x", "y", "z", "w")
    gens = tuple(parse_poly("%s^4 + %s + 2" % (v, v), vars, ZZ) for v in vars)
    top = TriangularPoint(gens, prime=3)
    assert top.residue_degree == 256
    assert len(residue_field(top).levels) == 4
    point = TriangularPoint((parse_poly("x^257 + x + 2", ("x",), ZZ),), prime=3)
    for build in (residue_field, ResidueTower):
        with pytest.raises(OracleResourceError) as info:
            build(point)
        assert info.value.message == "a residue degree of 257 is above the limit of 256"


def test_the_point_fixes_the_base():
    # GF(p) for a ZZ point at p, the point's own field otherwise
    vars, gf3, gf5 = ("x",), PrimeField(3), PrimeField(5)
    for point, base, described in (
        (TriangularPoint((parse_poly("x^2 + 1", vars, ZZ),), prime=3), gf3, "GF(3)[a]/(a^2+1)"),
        (TriangularPoint((parse_poly("x^2 + 2", vars, gf5),)), gf5, "GF(5)[a]/(a^2+2)"),
        (TriangularPoint((parse("x^2 + 2", vars),)), QQ, "QQ[a]/(a^2+2)"),
    ):
        tower = ResidueTower(point)
        assert tower.base is base
        assert tower.describe() == described
        assert tower == residue_field(point)


def test_inverting_zero_divisor_reports_witness():
    # x^2 - 4 splits, so x - 2 is a zero divisor and the ideal is not maximal
    point = TriangularPoint((parse("x^2 - 4", ("x",)),))
    tower = residue_field(point)
    elem = tower.gen(0) - tower.from_int(2)
    with pytest.raises(IdealNotMaximal) as info:
        tower.inv(elem)
    assert info.value.witness == "x - 2"
    assert "x - 2" in info.value.message


def test_level_two_printers():
    vars = ("x", "y")
    point = TriangularPoint((parse("x^2 - 1/2", vars), parse("y^2 + 1/3*x*y - 3/2", vars)))
    tower = residue_field(point)
    assert tower.describe() == "QQ[a]/(a^2-1/2)[b]/(1/3*a*b+b^2-3/2)"
    # b carries the multi-term coefficient a - 1
    elem = tower_reduce(parse("(x - 1)*y - 2/3*x + 5", vars), tower)
    assert tower.elem_str(elem) == "a*b - 2/3*a - b + 5"
    assert tower.elem_str(-elem) == "-a*b + 2/3*a + b - 5"


def test_level_two_witness_over_finite_field():
    # y^2 - 3 splits over GF(7)[a]/(a^2 - 3) as (y - a)(y + a)
    vars = ("x", "y")
    F = PrimeField(7)
    point = TriangularPoint((parse_poly("x^2 - 3", vars, F), parse_poly("y^2 - 3", vars, F)))
    tower = residue_field(point)
    assert tower.describe() == "GF(7)[a]/(a^2+4)[b]/(b^2+4)"
    with pytest.raises(IdealNotMaximal) as info:
        tower.inv(tower_reduce(parse_poly("y - x", vars, F), tower))
    assert info.value.witness == "y + 6*a"
    assert info.value.message == (
        "the ideal is not maximal: y^2 + 4 has the proper factor y + 6*a"
    )


def test_level_two_witness_with_a_signed_constant_coefficient():
    # y^2 - 2*x - 3 = (y - x - 1)(y + x + 1) over QQ(sqrt 2): the witness's
    # constant coefficient -a - 1 prints its own leading sign
    vars = ("x", "y")
    point = TriangularPoint((parse("x^2 - 2", vars), parse("y^2 - 2*x - 3", vars)))
    tower = residue_field(point)
    with pytest.raises(IdealNotMaximal) as info:
        tower.inv(tower_reduce(parse("y - x - 1", vars), tower))
    assert info.value.witness == "y - a - 1"
    assert info.value.message == (
        "the ideal is not maximal: y^2 - 2*a - 3 has the proper factor y - a - 1"
    )


def test_inverting_zero_raises():
    tower = residue_field(gf9_point())
    with pytest.raises(ZeroDivisionError):
        tower.inv(tower.zero())


# ---- field axioms ------------------------------------------------------


def _axiom_battery(tower, rng, rounds):
    checks = 0
    one = tower.one()
    zero = tower.zero()
    for _ in range(rounds):
        u = random_tower_element(tower, rng)
        v = random_tower_element(tower, rng)
        w = random_tower_element(tower, rng)
        assert ((u + v) + w - (u + (v + w))).is_zero()
        assert ((u * v) * w - (u * (v * w))).is_zero()
        assert (u + v - (v + u)).is_zero()
        assert (u * v - v * u).is_zero()
        assert (u * (v + w) - (u * v + u * w)).is_zero()
        assert (u * one - u).is_zero()
        assert (u + zero - u).is_zero()
        assert (u + (-u)).is_zero()
        checks += 8
        if not u.is_zero():
            inv = tower.inv(u)
            assert (u * inv - one).is_zero()
            assert (tower.inv(inv) - u).is_zero()
            checks += 2
    return checks


def test_field_axioms_finite_towers():
    rng = random.Random(101)
    total = 0
    for _ in range(40):
        _, tower = random_finite_tower(rng)
        total += _axiom_battery(tower, rng, 2)
    assert total >= 500


def test_field_axioms_rational_towers():
    rng = random.Random(103)
    total = 0
    for _ in range(25):
        _, tower = random_rational_tower(rng)
        total += _axiom_battery(tower, rng, 1)
    assert total >= 150


def test_every_nonzero_element_of_small_towers_is_invertible():
    rng = random.Random(107)
    seen = 0
    while seen < 8:
        _, tower = random_finite_tower(rng)
        size = tower_size(tower)
        if size > 81:
            continue
        elems = enumerate_tower_elements(tower)
        assert len(elems) == size
        assert len({str(e) for e in elems}) == size
        nonzero = 0
        for e in elems:
            if e.is_zero():
                continue
            nonzero += 1
            assert (e * tower.inv(e) - tower.one()).is_zero()
        assert nonzero == size - 1
        seen += 1


# ---- reduction is a ring homomorphism ----------------------------------


def test_reduce_is_ring_hom():
    rng = random.Random(109)
    for _ in range(60):
        n = rng.randrange(1, 4)
        vars = ("x", "y", "z")[:n]
        field = rng.choice((QQ, PrimeField(2), PrimeField(5)))
        point = random_point(vars, field, rng)
        tower = residue_field(point)
        f = random_poly(field, vars, rng, max_exp=3)
        g = random_poly(field, vars, rng, max_exp=3)
        assert tower_reduce(f + g, tower) == tower_reduce(f, tower) + tower_reduce(g, tower)
        assert tower_reduce(f * g, tower) == tower_reduce(f, tower) * tower_reduce(g, tower)
        for gen_poly in point.generators:
            assert tower_reduce(gen_poly, tower).is_zero()
        member = random_member(point, rng)
        assert tower_reduce(member, tower).is_zero()


def test_reduce_rejects_var_mismatch():
    tower = residue_field(quartic_point())
    with pytest.raises(ValueError):
        tower_reduce(parse("x", ("x",)), tower)


def test_reduce_rejects_a_prime_field_other_than_the_base():
    vars = ("x",)
    f = parse_poly("3*x + 3", vars, PrimeField(7))
    gf25 = residue_field(TriangularPoint((parse_poly("x^2 + 2", vars, PrimeField(5)),)))
    with pytest.raises(TypeError, match=r"element of GF\(7\) used in GF\(5\)"):
        tower_reduce(f, gf25)
    qq = residue_field(TriangularPoint((parse("x^2 - 2", vars),)))
    with pytest.raises(TypeError):
        tower_reduce(f, qq)
    # integers reduce into GF(p), and integers and rationals into QQ
    assert tower_reduce(parse_poly("8*x - 1", vars, ZZ), gf25) == tower_reduce(
        parse_poly("3*x + 4", vars, PrimeField(5)), gf25
    )
    assert tower_reduce(parse_poly("x^2 + 1", vars, ZZ), qq) == qq.from_int(3)
    assert tower_reduce(parse("1/2*x^2", vars), qq) == qq.one()


def test_reduce_rejects_an_unsupported_ring():
    ring = IntegersMod(9)
    with pytest.raises(ValueError, match="^unsupported coefficient ring %s$" % re.escape(repr(ring))):
        tower_reduce(MultiPoly(ring, ("x", "y"), {(1, 0): 1}), residue_field(quartic_point()))


def test_build_tower_reduces_tails():
    vars = ("x", "y")
    F = PrimeField(5)
    point = TriangularPoint(
        (
            parse_poly("x^2 + 2", vars, F),
            parse_poly("y - x", vars, F),
        )
    )
    tower = ResidueTower(point)
    # y's image is x's image, so reducing y - x gives zero
    assert tower_reduce(parse_poly("y - x", vars, F), tower).is_zero()
    assert tower_reduce(parse_poly("y^2", vars, F), tower) == tower.from_int(-2)


def test_tower_equality_and_hash():
    t1 = residue_field(quartic_point())
    t2 = residue_field(quartic_point())
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != residue_field(gf9_point())


def test_coerce_accepts_base_scalars():
    tower = residue_field(quartic_point())
    assert tower.coerce(QQ.fraction(3, 4)) == tower.from_int(3) * tower.coerce(QQ.fraction(1, 4))
    gf9 = residue_field(gf9_point())
    assert gf9.coerce(PrimeField(3).from_int(2)) == gf9.from_int(2)


def test_elements_of_another_tower_are_rejected():
    tower, gf9 = residue_field(quartic_point()), residue_field(gf9_point())
    with pytest.raises(TypeError, match="^element belongs to a different tower$"):
        tower.coerce(gf9.one())
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError, match="^mixed towers in arithmetic$"):
            op(tower.one(), gf9.one())


def test_negative_exponent_raises():
    a = residue_field(gf9_point()).gen(0)
    with pytest.raises(ValueError, match="^negative exponent -1$"):
        a ** -1


def test_powers_by_squaring():
    tower = residue_field(quartic_point())
    b = tower.gen(1)
    assert b ** 0 == tower.one() and b ** 1 == b
    assert b ** 7 == b * b * b * b * b * b * b == tower.from_int(2) * b ** 3


# ---- the flat layout against the nested reference ----------------------


def _random_level_point(field, rng, deep=False):
    """Triangular point with random, not necessarily irreducible, levels of
    degree 1 to 3 whose coefficients are random polynomials in the earlier
    variables (rational over QQ), so tails carry denominators and degree-1
    levels sit between the others.  Residue degree at most 12; a ``deep``
    point has 4 or 5 levels and residue degree up to 32, as the towers of
    jobbench's ``tower-rank`` workload."""
    n = rng.randrange(4, 6) if deep else rng.randrange(2, 5)
    vars = VAR_POOL[:n] if n <= len(VAR_POOL) else tuple("x%d" % i for i in range(n))
    gens, degrees = [], []
    for i in range(n):
        d = rng.choice((1, 2, 2, 3)) if i else rng.choice((2, 3))
        while d > 1 and math.prod(degrees) * d > (32 if deep else 12):
            d -= 1
        lead = tuple(d if k == i else 0 for k in range(n))
        terms = {lead: field.one()}
        for j in range(d):
            for _ in range(rng.randrange(3)):
                e = tuple(j if k == i else rng.randrange(3) if k < i else 0 for k in range(n))
                terms[e] = random_scalar(field, rng)
        gens.append(MultiPoly(field, vars, terms))
        degrees.append(d)
    return TriangularPoint(tuple(gens)), degrees


def _random_element_poly(field, vars, degrees, rng):
    """Dense below the level degrees, plus a few terms that need reducing."""
    ranges = [range(d) for d in degrees]
    terms = {e: random_scalar(field, rng) for e in itertools.product(*ranges) if rng.randrange(4)}
    for _ in range(2):
        terms[tuple(rng.randrange(d + 2) for d in degrees)] = random_scalar(field, rng)
    return MultiPoly(field, vars, terms)


def _compare_inverse(tower, ref, u):
    """Invert u in both representations and check that both agree and
    invert as many base scalars, so both ran the same Euclid steps.  The
    proven-level count is forced below 0 meanwhile: level 1 lies over the
    base field, which needs no proof, so at 0 a quadratic level 1 would still
    take the norm route, which inverts fewer scalars
    (``test_norm_route_matches_euclid`` compares the two routes).  Returns
    the level of the witness, 0 if u is a unit, and the reference's
    ``witness_site`` when a witness raised one level down left the top."""
    scalar_inv, calls = tower._scalar_inv, []
    tower._scalar_inv = lambda a: calls.append(a) or scalar_inv(a)
    tower.proven, proven = -1, tower.proven
    ref.scalar_inversions, ref.witness_site = 0, None
    try:
        try:
            expected = ref.inv(nested_data(u))
        except IdealNotMaximal as exc:
            with pytest.raises(IdealNotMaximal) as info:
                tower.inv(u)
            assert info.value.message == exc.message
            assert info.value.witness == exc.witness
            (var,) = set(re.findall(r"[a-z_0-9]+", exc.witness)) & set(tower.vars)
            site = ref.witness_site
            level = tower.vars.index(var) + 1
        else:
            assert nested_data(tower.inv(u)) == expected
            site, level = None, 0
    finally:
        del tower._scalar_inv
        tower.proven = proven
    assert len(calls) == ref.scalar_inversions
    return level, site if site and site[1] == len(tower.levels) else None


def _reference_battery(field, rng, rounds):
    """Every third tower is deep.  The nested reduction of a deep tower's
    elements would take seconds, so there the reference starts from the
    flat reduction; shallow towers check the reduction too."""
    deep = rng.randrange(3) == 0
    point, degrees = _random_level_point(field, rng, deep)
    tower = residue_field(point)
    ref = ReferenceTower(point)
    witnesses, sites = [], []
    for _ in range(rounds):
        f = _random_element_poly(field, point.vars, degrees, rng)
        g = _random_element_poly(field, point.vars, degrees, rng)
        u, v = tower_reduce(f, tower), tower_reduce(g, tower)
        nu, nv = nested_data(u), nested_data(v)
        if not deep:
            assert nu == ref.reduce(f) and nv == ref.reduce(g)
        assert nested_data(u + v) == ref.add(nu, nv)
        assert nested_data(u * v) == ref.mul(nu, nv)
        assert str(u * v) == ref.elem_str(ref.mul(nu, nv))
        assert str(u) == ref.elem_str(nu)
        if not u.is_zero():
            level, site = _compare_inverse(tower, ref, u)
            witnesses.append(level)
            sites.append(site and site[0])
    return witnesses, sites, ref.unnormalized, deep


def test_flat_layout_matches_reference_over_rationals():
    rng = random.Random(211)
    inverted, deep_inverted = 0, 0
    for _ in range(30):
        found, _, _, deep = _reference_battery(QQ, rng, 3)
        inverted += found.count(0)
        deep_inverted += found.count(0) if deep else 0
    assert inverted >= 60
    assert deep_inverted >= 15


def test_flat_layout_matches_reference_over_prime_fields():
    rng = random.Random(223)
    levels, sites, unnormalized, deep_levels = [], [], 0, []
    for _ in range(60):
        found, at, deeper, deep = _reference_battery(
            PrimeField(rng.choice((2, 3, 5, 7))), rng, 3
        )
        levels += found
        sites += at
        unnormalized += deeper
        deep_levels += found if deep else []
    # units, and witnesses at level 1 and at level 2 or higher
    assert levels.count(0) >= 40
    assert levels.count(1) >= 5
    assert sum(1 for k in levels if k >= 2) >= 5
    # witnesses raised one level down, by the leading-coefficient inversion
    # of a division step and by the final inversion of the gcd
    assert sites.count("lead") >= 5
    assert sites.count("unit") >= 5
    assert deep_levels.count(0) >= 10
    # the reference still has the branch that prints a witness unnormalized
    # when its leading coefficient is no unit; it never runs, since the gcd
    # was the divisor of the last Euclid step and its leading coefficient
    # was inverted there
    assert unnormalized == 0


def test_non_maximal_witnesses_match_reference():
    # level 1 over QQ, level 2 over QQ and GF(7) (the pinned examples above)
    cases = [
        (("x",), QQ, ("x^2 - 4",), "x - 2"),
        (("x", "y"), QQ, ("x^2 - 2", "y^2 - 2"), "y - x"),
        (("x", "y"), PrimeField(7), ("x^2 - 3", "y^2 - 3"), "y - x"),
        (("x", "y", "z"), QQ, ("x^2 - 2", "y - 1/2*x", "z^2 - 1/2"), "z - y"),
    ]
    for vars, field, gens, elem in cases:
        point = TriangularPoint(tuple(parse_poly(g, vars, field) for g in gens))
        tower = residue_field(point)
        u = tower_reduce(parse_poly(elem, vars, field), tower)
        assert _compare_inverse(tower, ReferenceTower(point), u)[0] == len(vars)


def test_a_level_at_the_residue_degree_limit_matches_reference():
    # one level of degree MAX_RESIDUE_DEGREE: the fold plan skips, one
    # position at a time, the overflow degrees a sparse product leaves empty
    F = PrimeField(3)
    point = TriangularPoint((parse_poly("x^%d + x + 2" % MAX_RESIDUE_DEGREE, ("x",), F),))
    tower, ref = residue_field(point), ReferenceTower(point)
    rng = random.Random(239)
    x = tower.gen(0)
    u = tower_reduce(random_poly(F, ("x",), rng, max_exp=MAX_RESIDUE_DEGREE - 1, terms=40), tower)
    v = x ** (MAX_RESIDUE_DEGREE - 1)
    for a, b in ((u, u), (u, v), (v, x), (x ** 200, x ** 100)):
        assert nested_data(a * b) == ref.mul(nested_data(a), nested_data(b))
    assert _compare_inverse(tower, ref, u)[0] in (0, 1)


# ---- one stacked tower per point against the prefix towers -----------


def _assert_matches_prefix_towers(point):
    tower = residue_field(point)
    levels, sig = reference_build_tower(point, tower.base)
    assert tuple((lv.var, lv.degree, lv.tail) for lv in tower.levels) == levels
    assert tower._sig == sig
    return tower


def test_stacked_levels_match_the_prefix_towers():
    rng = random.Random(263)
    fields = (QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7))
    rational_tails = 0
    for round_no in range(20):
        point, _ = _random_level_point(fields[round_no % len(fields)], rng, deep=True)
        tower = _assert_matches_prefix_towers(point)
        rational_tails += any(c[1] > 1 for lv in tower.levels for c in lv.tail)
    assert rational_tails >= 2


@pytest.mark.parametrize(
    "gens",
    [
        ("x^2 - 1/2", "y - 1/3*x", "z^2 + 1/5*x*z - 3/7"),
        ("x^3 - 1/2*x + 1/3", "y^2 - 2/5*x^2*y + 1/4", "z - 1/6*x*y", "w^2 + 1/7*z*w - y"),
    ],
)
def test_stacked_levels_match_the_prefix_towers_with_denominators(gens):
    vars = VAR_POOL[: len(gens)]
    tower = _assert_matches_prefix_towers(TriangularPoint(tuple(parse(g, vars) for g in gens)))
    # tails above level 1 carry denominators
    assert sum(c[1] > 1 for lv in tower.levels[1:] for c in lv.tail) >= 2


def _zz_level_point(p, rng):
    """A ZZ point at p: a deep GF(p) level point with every coefficient below
    the leading one moved by a random multiple of p, plus terms whose
    coefficients are nonzero multiples of p, so they vanish mod p."""
    point, _ = _random_level_point(PrimeField(p), rng, deep=True)
    gens = []
    for i, g in enumerate(point.generators):
        d = g.degree_in(i)
        terms = {e: c + p * rng.randrange(-3, 4) if e[i] < d else c for e, c in g.terms.items()}
        for _ in range(2):
            e = [rng.randrange(3) if k < i else 0 for k in range(len(g.vars))]
            e[i] = rng.randrange(d)
            terms.setdefault(tuple(e), p * rng.choice((-2, -1, 1, 3)))
        gens.append(MultiPoly(ZZ, g.vars, terms))
    return TriangularPoint(tuple(gens), prime=p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_stacked_levels_match_the_prefix_towers_over_zz(p):
    rng = random.Random(269 + p)
    for _ in range(4):
        point = _zz_level_point(p, rng)
        assert any(c % p == 0 for g in point.generators for c in g.terms.values())
        _assert_matches_prefix_towers(point)


def test_residue_field_builds_one_tower_per_point(monkeypatch):
    init = ResidueTower.__init__
    built = []

    def counted(self, point):
        built.append(point)
        init(self, point)

    monkeypatch.setattr(ResidueTower, "__init__", counted)
    rng = random.Random(271)
    for field in (QQ, PrimeField(3)):
        point, degrees = _random_level_point(field, rng, deep=True)
        built.clear()
        assert len(residue_field(point).levels) == len(degrees) >= 4
        assert len(built) == 1 and built[0] is point


# ---- the flat fold plans against the recursive fold -------------------


def _plans_match_reference_fold(tower):
    """Fold a unit vector at every extended position of every level, formed
    by ``_prod`` as the product of two leaves whose exponents add up to it,
    and compare the leaves with ``reference_fold``.  The fold is linear, so
    equal leaves on every unit vector make the plans equal to the recursion
    on every input."""
    for k in range(1, len(tower.levels) + 1):
        degrees = [lv.degree for lv in tower.levels[:k]]
        size, ext = tower._sizes[k], tower._ext[: tower._sizes[k]]
        for digits in itertools.product(*(range(2 * d - 1) for d in degrees)):
            xs, ys = [0] * size, [0] * size
            i = sum(min(e, d - 1) * s for e, d, s in zip(digits, degrees, tower._sizes))
            j = sum((e - min(e, d - 1)) * s for e, d, s in zip(digits, degrees, tower._sizes))
            xs[i] = ys[j] = 1
            prod = [0] * tower._ext_sizes[k]
            prod[ext[i] + ext[j]] = 1
            reference_fold(tower, k, prod)
            assert tower._prod(k, xs, ys) == [prod[q] for q in ext]


def _scale_offsets(plan):
    return {at.start for at, step in plan if step.__class__ is int}


def test_fold_plans_match_reference_fold_on_deep_towers():
    rng = random.Random(241)
    fields = (QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7))
    scaled = 0
    for round_no in range(15):
        point, _ = _random_level_point(fields[round_no % len(fields)], rng, deep=True)
        tower = residue_field(point)
        _plans_match_reference_fold(tower)
        scaled += bool(_scale_offsets(tower._plans[-1]))
    assert scaled >= 2


@pytest.mark.parametrize(
    "gens",
    [
        ("x^2 - 1/2", "y - 1/3*x", "z^2 + 1/5*x*z - 3/7"),
        ("x^3 - 1/2*x + 1/3", "y - 2/5*x^2", "z^2 - 1/3*y*z + x", "w^2 + 1/7*z - y"),
    ],
)
def test_fold_plans_match_reference_fold_with_shifted_scale_steps(gens):
    # two folding levels whose tails have denominators, a degree-1 level
    # between them: the top plan scales its own blocks from offset 0 and
    # holds the lower level's scale steps shifted to each block
    vars = VAR_POOL[: len(gens)]
    tower = residue_field(TriangularPoint(tuple(parse(g, vars) for g in gens)))
    _plans_match_reference_fold(tower)
    offsets = _scale_offsets(tower._plans[-1])
    assert 0 in offsets and len(offsets) > 1


def test_each_level_plan_is_made_once_per_tower(monkeypatch):
    vars = ("x", "y", "z")
    point = TriangularPoint(
        (parse("x^2 - 1/2", vars), parse("y - 1/3*x", vars), parse("z^2 + x*z - 3", vars))
    )
    plan = tower_module._plan
    made = []

    def counted(d, *args):
        made.append(d)
        return plan(d, *args)

    monkeypatch.setattr(tower_module, "_plan", counted)
    tower = residue_field(point)
    assert made == [2, 1, 2]
    assert tower._plans[2] == tower._plans[1]  # a degree-1 level folds like the one below
    made.clear()
    u = tower_reduce(parse("x*y*z + 2*z - x", vars), tower)
    for _ in range(3):
        v = tower.inv(u * u) * u
        assert v * u * u == u
        u = u + v
    assert made == []


@pytest.mark.parametrize("shape", ["quadratic", "quartic", "dense"])
def test_fold_plans_at_the_residue_degree_limit(shape):
    # D = 256 over GF(101) as eight quadratic levels, four quartic levels
    # (both the field of the 256th root of 2) or one level with a dense
    # tail: the tower makes every plan within 2 MB, and a product stays
    # within 2 MB too
    F, rng = PrimeField(101), random.Random(251)
    if shape == "dense":
        vars = ("x",)
        tail = " + ".join("%d*x^%d" % (rng.randrange(1, 101), j) for j in range(256))
        gens = ("x^%d + %s" % (MAX_RESIDUE_DEGREE, tail),)
    else:
        d = 2 if shape == "quadratic" else 4
        vars = tuple("x%d" % i for i in range(16 // d))
        gens = ("x0^%d - 2" % d,) + tuple("x%d^%d - x%d" % (i, d, i - 1) for i in range(1, len(vars)))
    point = TriangularPoint(tuple(parse(g, vars, F) for g in gens))

    def peak(make):
        tracemalloc.start()
        try:
            return make(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tower, built = peak(lambda: residue_field(point))
    assert point.residue_degree == MAX_RESIDUE_DEGREE
    u, v = (
        TowerElem(tower, tower._norm([rng.randrange(101) for _ in range(MAX_RESIDUE_DEGREE)], 1))
        for _ in range(2)
    )
    w, multiplied = peak(lambda: u * v)
    assert built < 2 * 10**6 and multiplied < 2 * 10**6
    assert nested_data(w) == ReferenceTower(point).mul(nested_data(u), nested_data(v))
    try:
        assert tower.inv(u) * u == tower.one()
    except IdealNotMaximal:
        assert shape == "dense"


def test_products_are_canonical_over_rationals():
    vars = ("x", "y")
    point = TriangularPoint((parse("x^2 - 1/2", vars), parse("y^2 + 1/3*x*y - 3/2", vars)))
    tower = residue_field(point)
    rng = random.Random(227)
    for _ in range(20):
        u, v, w = (
            tower_reduce(_random_element_poly(QQ, vars, [2, 2], rng), tower) for _ in range(3)
        )
        left, right = (u * v) * w, u * (v * w)
        assert left == right
        assert hash(left) == hash(right)


# ---- reduction through the monomial table ------------------------------


def test_table_reduction_matches_evaluate():
    # helpers.evaluate forms every power and term product afresh; the
    # table must give the same canonical element, also when later
    # polynomials reuse entries the earlier ones formed
    rng = random.Random(229)
    fields = (QQ, PrimeField(2), PrimeField(3), PrimeField(7))
    linear_between, rational_tails = 0, 0
    for round_no in range(48):
        field = fields[round_no % len(fields)]
        point, degrees = _random_level_point(field, rng)
        tower = residue_field(point)
        gens = [tower.gen(i) for i in range(len(degrees))]
        linear_between += 1 in degrees[1:-1]
        rational_tails += any(c[1] > 1 for lv in tower.levels for c in lv.tail)
        for _ in range(4):
            terms = {
                tuple(rng.randrange(3 * d + 1) for d in degrees): random_scalar(field, rng)
                for _ in range(rng.randrange(1, 9))
            }
            f = MultiPoly(field, point.vars, terms)
            assert tower_reduce(f, tower) == evaluate(f, gens, tower)
    assert linear_between >= 5
    assert rational_tails >= 5


def test_second_reduction_forms_no_tower_product(monkeypatch):
    vars = ("x", "y", "z")
    point = TriangularPoint(
        (parse("x^2 - 1/2", vars), parse("y - 1/3*x", vars), parse("z^2 + x*z - 3", vars))
    )
    tower = residue_field(point)
    f = parse("x^5*y^3*z^4 - 2/3*x^2*z^7 + y^4 + x*y*z - 1", vars)
    mul = ResidueTower._mul
    products = []

    def counted(self, k, a, b):
        products.append(k)
        return mul(self, k, a, b)

    monkeypatch.setattr(ResidueTower, "_mul", counted)
    first = tower_reduce(f, tower)
    assert products
    products.clear()
    assert tower_reduce(f, tower) == first
    assert products == []


@pytest.mark.parametrize("text", ["x^20 + y^25", "x^20*y^25", "x^14*y + y^10"])
def test_table_meets_the_same_first_oversized_power(text):
    # both chains pass the digit limit; whichever the sorted terms reach
    # first, in variable order within a term, names the number
    vars = ("x", "y")
    point = TriangularPoint((parse("x - " + "9" * 300, vars), parse("y - " + "7" * 200, vars)))
    f = parse(text, vars)
    tower = residue_field(point)
    with pytest.raises(OracleResourceError) as expected:
        evaluate(f, [tower.gen(0), tower.gen(1)], tower)
    with pytest.raises(OracleResourceError) as got:
        tower_reduce(f, residue_field(point))
    assert got.value.message == expected.value.message


# ---- the field certificate and the norm route --------------------------


def _inverse_outcome(tower, u, proven):
    """The inverse of u with the proven-level count set to ``proven``: its
    data, or the error it raises, as comparable values."""
    tower.proven, kept = proven, tower.proven
    try:
        return "unit", tower.inv(u).data
    except IdealNotMaximal as exc:
        return "not maximal", exc.message, exc.witness
    except ZeroDivisionError as exc:
        return "zero", str(exc)
    finally:
        tower.proven = kept


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 101])
def test_norm_route_matches_euclid(p):
    # with the count forced below 0 every inverse runs Euclid; with the
    # certificate's count a quadratic level above proven levels takes the
    # norm and falls back to Euclid when N = 0.  The two must agree on every
    # element: unit, zero divisor (a multiple of a known factor) or zero
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(281 + (p or 0))
    outcomes, norm_routes, fallbacks = [], 0, 0
    while len(outcomes) < 240:
        point, degrees, factors = split_level_point(field, rng)
        tower = residue_field(point)
        rel_norm, norms = tower._rel_norm, []

        def spied(k, c0, c1, rel_norm=rel_norm, norms=norms):
            result = rel_norm(k, c0, c1)
            norms.append(result[1])
            return result

        tower._rel_norm = spied
        for _ in range(8):
            f = _random_element_poly(field, point.vars, degrees, rng)
            if factors and rng.randrange(2):
                f = f * rng.choice(factors)
            u = tower_reduce(f, tower) if rng.randrange(10) else tower.zero()
            euclid = _inverse_outcome(tower, u, -1)
            assert not norms
            assert _inverse_outcome(tower, u, tower.proven) == euclid
            outcomes.append(euclid[0])
            norm_routes += bool(norms)
            fallbacks += any(tower._is_zero(n) for n in norms)
            norms.clear()
    assert outcomes.count("unit") >= 30
    assert outcomes.count("not maximal") >= 50
    assert outcomes.count("zero") >= 15
    assert norm_routes >= 60
    assert fallbacks >= 10


def _has_root(point, k):
    """Whether generator k (1-based) has a root in the field of levels
    1..k-1, by trying every element there."""
    field, g = point.ring, point.generators[k - 1]
    if k == 1:
        return any(
            sum(c * b ** e[0] for e, c in g.terms.items()) % field.modulus == 0
            for b in range(field.modulus)
        )
    vars = point.vars[: k - 1]

    def cut(h, keep=lambda e: True):
        return MultiPoly(field, vars, {e[: k - 1]: c for e, c in h.terms.items() if keep(e)})

    prefix = residue_field(TriangularPoint(tuple(cut(h) for h in point.generators[: k - 1])))
    degree = max(e[k - 1] for e in g.terms)
    coeffs = [tower_reduce(cut(g, lambda e: e[k - 1] == j), prefix) for j in range(degree + 1)]
    for b in enumerate_tower_elements(prefix):
        value = prefix.zero()
        for c in reversed(coeffs):
            value = value * b + c
        if value.is_zero():
            return True
    return False


def test_certificate_over_prime_fields_matches_a_root_search():
    # a quadratic level has no root in the field below exactly when it is
    # irreducible; over GF(p), p odd, the certificate proves every level
    # below a failure, stops at the first reducible quadratic level and at
    # the first level of degree 3, and over GF(2) at the first quadratic one
    rng = random.Random(293)
    seen = {"proven": 0, "reducible": 0, "cubic": 0, "GF(2)": 0}
    for _ in range(400):
        field = PrimeField(rng.choice((2, 3, 5, 7)))
        if rng.randrange(4):
            point, degrees, _ = split_level_point(field, rng, rng.choice((2, 2, 3)))
        else:
            point, degrees = _random_level_point(field, rng)
        tower = residue_field(point)
        proven = tower.proven
        assert 0 <= proven <= len(degrees)
        assert all(d <= 2 for d in degrees[:proven])
        searched = lambda k: field.modulus ** math.prod(degrees[: k - 1]) <= 625
        for k in range(1, proven + 1):
            if degrees[k - 1] == 2 and searched(k):
                assert not _has_root(point, k)
                seen["proven"] += 1
        if proven == len(degrees):
            # every level separable over a field: G has no zero on its diagonal
            assert all(
                not tower_reduce(partial_derivative(g, k), tower).is_zero()
                for k, g in enumerate(point.generators)
            )
            continue
        top = proven + 1
        if degrees[top - 1] == 3:
            seen["cubic"] += 1
        elif field.modulus == 2:
            seen["GF(2)"] += 1
        elif searched(top):
            assert _has_root(point, top)
            seen["reducible"] += 1
    assert min(seen.values()) >= 40


def test_certificate_over_rationals_agrees_with_sympy_on_two_levels():
    # level 1: x^2 + a*x + b; level 2: y^2 + (c + e*x)*y + (f + g*x), or the
    # product of two such factors in y.  Every level proven must be
    # irreducible, and here every irreducible level is proven
    sympy = pytest.importorskip("sympy")
    rng = random.Random(307)
    x, y = sympy.symbols("x y")
    vars = ("x", "y")
    rat = lambda: sympy.Rational(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3)))
    checked = {0: 0, 1: 0, 2: 0}
    for _ in range(30):
        if rng.randrange(4):
            a, b = rat(), rat()
        else:
            r, s = rat(), rat()
            a, b = -r - s, r * s
        level1 = x**2 + a * x + b
        if rng.randrange(3):
            level2 = y**2 + (rat() + rat() * x) * y + rat() + rat() * x
        else:
            level2 = sympy.expand((y - rat() - rat() * x) * (y - rat() - rat() * x))
        point = TriangularPoint(tuple(
            MultiPoly(QQ, vars, {e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(g, x, y).terms()})
            for g in (level1, level2)
        ))
        proven = residue_field(point).proven
        disc = a**2 - 4 * b
        first = len(sympy.factor_list(level1)[1]) == 1 and disc != 0
        assert (proven >= 1) == first
        if first:
            alpha = (-a + sympy.sqrt(disc)) / 2
            over = sympy.expand(level2.subs(x, alpha))
            _, factors = sympy.factor_list(over, y, extension=sympy.sqrt(disc))
            assert (proven == 2) == (len(factors) == 1 and factors[0][1] == 1)
        checked[proven] += 1
    assert min(checked.values()) >= 5


def test_split_level_over_rationals_stays_unproven_in_bounded_time():
    # y^2 - 2 splits over QQ(sqrt 2), so no prime can certify it: every one
    # of the CERTIFICATE_PRIMES primes is tried and level 2 stays unproven
    vars = ("x", "y")
    point = TriangularPoint((parse("x^2 - 2", vars), parse("y^2 - 2", vars)))
    start = time.perf_counter()
    tower = residue_field(point)
    assert time.perf_counter() - start < 1.0
    assert tower.proven == 1


NON_FIELDS = [
    # (base, ring, vars, relations, generators, prime, first level that
    # fails, rank)
    ("QQ", QQ, "x, y", "", "x^2 - 2, y^2 - 2", None, 2, 0),
    ("GF(7)", PrimeField(7), "x, y", "x*y - 1", "x^2 - 1, y - x", None, 1, 1),
    ("ZZ", ZZ, "x", "x^2 + 1", "x^2 + 1", 5, 1, 1),
]


@pytest.mark.parametrize("base, ring, vars, relations, generators, prime, bad, rank", NON_FIELDS)
def test_non_fields_stay_unproven_and_keep_their_reports(
    base, ring, vars, relations, generators, prime, bad, rank, tmp_path, capsys
):
    # three points whose residue ring is not a field: the certificate proves
    # no level from the bad one on, so the rank path runs as it always has
    # and the report is unchanged.  That report is wrong: it still says
    # regular, because maximality is not yet refuted with a witness
    names = tuple(v.strip() for v in vars.split(","))
    gens = tuple(parse_poly(g, names, ring) for g in generators.split(", "))
    assert residue_field(TriangularPoint(gens, prime=prime)).proven < bad
    path = tmp_path / "job.rg"
    path.write_text(
        "[ring]\nvars = %s\nbase = %s\nrelations = %s\n[point]\n%sgenerators = %s\n"
        "[task]\nkind = check\n"
        % (vars, base, relations, "prime = %d\n" % prime if prime else "", generators)
    )
    assert main([str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["rank"], doc["regular"]) == (rank, True)
