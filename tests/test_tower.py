import random

import pytest

from regulus import (
    IdealNotMaximal,
    MultiPoly,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    parse_poly,
    residue_field,
    tower_invert,
    tower_reduce,
)
from regulus.tower import build_tower

from helpers import (
    enumerate_tower_elements,
    random_finite_tower,
    random_member,
    random_point,
    random_poly,
    random_rational_tower,
    random_tower_element,
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
    inv = tower_invert(two_a)
    assert (two_a * inv - tower.one()).is_zero()
    assert inv == a


def test_inversion_rational_tower():
    tower = residue_field(quartic_point())
    b = tower.gen(1)
    # 1/b = b^3/2 since b^4 = 2
    inv = b.inverse()
    assert (b * inv - tower.one()).is_zero()
    assert inv == b ** 3 * tower.coerce(QQ.fraction(1, 2))


def test_arithmetic_residue_field_uses_the_prime():
    point = TriangularPoint((parse_poly("x^2 + 1", ("x",), ZZ),), prime=3)
    tower = residue_field(point)
    assert tower.base is PrimeField(3)
    assert tower.describe() == "GF(3)[a]/(a^2+1)"


def test_inverting_zero_divisor_reports_witness():
    # x^2 - 4 splits, so x - 2 is a zero divisor and the ideal is not maximal
    point = TriangularPoint((parse("x^2 - 4", ("x",)),))
    tower = residue_field(point)
    elem = tower.gen(0) - tower.from_int(2)
    with pytest.raises(IdealNotMaximal) as info:
        tower_invert(elem)
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
        tower_invert(tower_reduce(parse_poly("y - x", vars, F), tower))
    assert info.value.witness == "y + 6*a"
    assert info.value.message == (
        "the ideal is not maximal: y^2 + 4 has the proper factor y + 6*a"
    )


def test_inverting_zero_raises():
    tower = residue_field(gf9_point())
    with pytest.raises(ZeroDivisionError):
        tower_invert(tower.zero())


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
            inv = u.inverse()
            assert (u * inv - one).is_zero()
            assert (inv.inverse() - u).is_zero()
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
            assert (e * e.inverse() - tower.one()).is_zero()
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


def test_build_tower_reduces_tails():
    vars = ("x", "y")
    F = PrimeField(5)
    point = TriangularPoint(
        (
            parse_poly("x^2 + 2", vars, F),
            parse_poly("y - x", vars, F),
        )
    )
    tower = build_tower(point, F)
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
