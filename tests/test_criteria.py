import random

import pytest

from regulus import (
    DimensionMismatch,
    FieldMatrix,
    GeneratorsNotIndependent,
    InvalidPoint,
    MultiPoly,
    PointNotOnVariety,
    PointNotRegular,
    PresentedVariety,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    base_change_verdict,
    check_point,
    default_dimension,
    generalized_jacobian,
    ideal_dimension,
    parse_poly,
    partial_derivative,
    special_fiber_verdict,
    tower_reduce,
    triangular_divide,
)
from regulus.groebner import MAX_INPUT_DEGREE
from regulus.poly import reduce_mod

from helpers import (
    VAR_POOL,
    evaluate,
    parse,
    random_arithmetic_point,
    random_arithmetic_relation,
    random_coeff,
    random_member,
    random_point,
)


def number_ring_fixture():
    X = PresentedVariety(("x",), ZZ, (parse("x^3 + x + 3", ("x",), ZZ),))
    point = TriangularPoint((parse("x^2 + 1", ("x",), ZZ),), prime=3)
    return X, point


def hyperbola_fixture():
    vars = ("x", "y")
    X = PresentedVariety(vars, ZZ, (parse("x*y - 2", vars, ZZ),))
    point = TriangularPoint((parse("x", vars, ZZ), parse("y", vars, ZZ)), prime=2)
    return X, point


# ---- presented varieties ----------------------------------------------


def test_variety_validation():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    assert X.n == 2
    with pytest.raises(ValueError):
        PresentedVariety(vars, QQ, (parse_poly("x", ("x",), QQ),))
    with pytest.raises(ValueError):
        PresentedVariety(vars, QQ, (parse_poly("x*y", vars, PrimeField(3)),))
    with pytest.raises(ValueError):
        PresentedVariety((), QQ, ())
    with pytest.raises(ValueError):
        PresentedVariety(("x", "x"), QQ, ())


def test_jacobian_validation_rejects_mismatched_points():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    with pytest.raises(InvalidPoint):
        generalized_jacobian(X, TriangularPoint((parse_poly("x", ("x",), QQ),)))
    F = PrimeField(3)
    with pytest.raises(InvalidPoint):
        generalized_jacobian(
            X, TriangularPoint((parse_poly("x", vars, F), parse_poly("y", vars, F)))
        )


def test_jacobian_validation_checks_membership():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    with pytest.raises(PointNotOnVariety):
        generalized_jacobian(
            X, TriangularPoint((parse("x - 1", vars), parse("y - 1", vars)))
        )
    J, extra = generalized_jacobian(
        X, TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    )
    assert J.field.describe() == "QQ"
    assert extra is None


def test_jacobian_validation_rejects_dependent_generators():
    # x^2 + 1 = (x + 1)^2 over GF(2): derivative vanishes identically
    F = PrimeField(2)
    X = PresentedVariety(("x",), F, ())
    with pytest.raises(GeneratorsNotIndependent):
        generalized_jacobian(X, TriangularPoint((parse_poly("x^2 + 1", ("x",), F),)))


def test_generalized_jacobian_carries_the_extra_column_over_zz():
    X, point = number_ring_fixture()
    J, extra = generalized_jacobian(X, point)
    assert J.field.describe() == "GF(3)[a]/(a^2+1)"
    assert [[str(e) for e in row] for row in J.rows] == [["a"]]
    assert [str(e) for e in extra] == ["1"]


def test_check_point_rejects_a_zz_point_without_a_prime():
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("x^2 + 1", vars, ZZ),))
    with pytest.raises(InvalidPoint, match="points over ZZ need a prime"):
        check_point(X, TriangularPoint((parse("x^2 + 1", vars, ZZ),)))


def test_base_change_routes_need_a_prime():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    point = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    with pytest.raises(ValueError, match="needs a point with a prime"):
        base_change_verdict(X, point, ramified=True)
    with pytest.raises(ValueError, match="needs a point with a prime"):
        special_fiber_verdict(X, point, [point], ramified=True)


# ---- geometric checks --------------------------------------------------


def test_geometric_smooth_point():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    point = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    report = check_point(X, point)
    assert report.rank == 1
    assert report.local_dimension == 1
    assert report.dimension_provenance == "oracle-global-dimension"
    assert report.regular


def test_geometric_singular_node():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("y^2 - x^3 - x^2", vars),))
    point = TriangularPoint((parse("x", vars), parse("y", vars)))
    report = check_point(X, point)
    assert report.rank == 0
    assert report.local_dimension == 1
    assert not report.regular


def test_geometric_quartic_field_point():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("y^2 - x^3 + x", vars),))
    point = TriangularPoint((parse("x^2 - 2", vars), parse("y^2 - x", vars)))
    report = check_point(X, point)
    assert report.rank == 1
    assert report.local_dimension == 1
    assert report.regular
    assert [str(e) for e in report.jacobian.rows[0]] == ["-a", "1"]


def test_dimension_override_on_smaller_component():
    # union of the plane x = 0 and the line y = z = 0; the point sits on
    # the line, whose dimension is 1, not the global 2
    vars = ("x", "y", "z")
    X = PresentedVariety(vars, QQ, (parse("x*y", vars), parse("x*z", vars)))
    point = TriangularPoint(
        (parse("x - 1", vars), parse("y", vars), parse("z", vars))
    )
    with pytest.raises(DimensionMismatch) as info:
        check_point(X, point)
    assert "oracle-global-dimension" in str(info.value)
    report = check_point(X, point, dim_override=1)
    assert report.regular
    assert report.dimension_provenance == "user-supplied"


def test_dimension_override_mismatch_names_user():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    point = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    with pytest.raises(DimensionMismatch) as info:
        check_point(X, point, dim_override=2)
    assert "user-supplied" in str(info.value)


# ---- arithmetic checks -------------------------------------------------


def test_number_ring_fixture_report():
    X, point = number_ring_fixture()
    report = check_point(X, point)
    assert report.tower.describe() == "GF(3)[a]/(a^2+1)"
    assert [[str(e) for e in row] for row in report.jacobian.rows] == [["a"]]
    assert [str(e) for e in report.extra_column] == ["1"]
    assert report.rank == 1
    assert report.local_dimension == 1
    assert report.regular


def test_hyperbola_fixture_report():
    X, point = hyperbola_fixture()
    report = check_point(X, point)
    assert report.rank == 1
    assert report.local_dimension == 2
    assert report.regular
    assert [[str(e) for e in row] for row in report.jacobian.rows] == [["0", "0"]]
    assert [str(e) for e in report.extra_column] == ["1"]


def test_check_point_dispatches_on_prime():
    X, point = number_ring_fixture()
    assert check_point(X, point).regular
    vars = ("x", "y")
    Xg = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    pg = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    assert check_point(Xg, pg).regular


@pytest.mark.parametrize(
    "ring, relations, generators, prime",
    [
        (ZZ, ("x^2 + 1 - 3*y", "(y - x)*(x^2 + 1)"), ("x^2 + 1", "y - x"), 3),
        (QQ, ("y^2 - x", "x^2 - 2", "(x*y - y)*(y^2 - x)"), ("x^2 - 2", "y^2 - x"), None),
    ],
)
def test_check_divides_each_relation_once(monkeypatch, ring, relations, generators, prime):
    import regulus.criteria
    import regulus.poly

    vars = ("x", "y")
    X = PresentedVariety(vars, ring, tuple(parse(f, vars, ring) for f in relations))
    point = TriangularPoint(tuple(parse(g, vars, ring) for g in generators), prime=prime)
    calls = []

    def counting_divide(f, pt):
        calls.append(f)
        return triangular_divide(f, pt)

    # membership_certificate looks the division up in poly, so count there too
    monkeypatch.setattr(regulus.poly, "triangular_divide", counting_divide)
    monkeypatch.setattr(regulus.criteria, "triangular_divide", counting_divide)
    check_point(X, point)
    assert calls == list(X.relations)


def test_arithmetic_singular_point():
    # x^2 - 12 at (x, 2): remainder -12 = 4*(-3) contributes nothing mod 4
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("x^2 - 12", vars, ZZ),))
    point = TriangularPoint((parse("x", vars, ZZ),), prime=2)
    report = check_point(X, point)
    assert not report.regular


def test_default_dimensions():
    X, point = number_ring_fixture()
    assert default_dimension(X, point) == 1
    Xh, ph = hyperbola_fixture()
    assert default_dimension(Xh, ph) == 2
    vars = ("x", "y")
    no_rel = PresentedVariety(vars, QQ, ())
    point = TriangularPoint((parse("x", vars), parse("y", vars)))
    assert default_dimension(no_rel, point) == 2
    no_rel_z = PresentedVariety(vars, ZZ, ())
    point_z = TriangularPoint((parse("x", vars, ZZ), parse("y", vars, ZZ)), prime=5)
    assert default_dimension(no_rel_z, point_z) == 3


# ---- base change -------------------------------------------------------


def test_base_change_ramified_hyperbola():
    X, point = hyperbola_fixture()
    verdict = base_change_verdict(X, point, ramified=True)
    assert verdict.report.regular
    assert verdict.system_solvable is False
    assert verdict.fiber_regular is False
    assert verdict.witness is None


def test_base_change_unramified_hyperbola():
    X, point = hyperbola_fixture()
    verdict = base_change_verdict(X, point, ramified=False)
    assert verdict.fiber_regular is True
    assert verdict.system_solvable is None
    assert verdict.witness is None


def test_base_change_ramified_solvable_case():
    # x^2 - 2 at (x, 2): J = (0), extra = (-1); unsolvable
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("x^2 - 2", vars, ZZ),))
    point = TriangularPoint((parse("x", vars, ZZ),), prime=2)
    verdict = base_change_verdict(X, point, ramified=True)
    assert verdict.fiber_regular is False
    # x - 6 at (x, 2): J = (1), extra = (-3); v = -3 solves it
    X2 = PresentedVariety(vars, ZZ, (parse("x - 6", vars, ZZ),))
    verdict2 = base_change_verdict(X2, point, ramified=True)
    assert verdict2.fiber_regular is True
    assert verdict2.witness is not None
    # the witness actually solves J v = extra
    J = verdict2.report.jacobian
    got = J.rows[0][0] * verdict2.witness[0]
    assert (got - verdict2.report.extra_column[0]).is_zero()


def test_base_change_requires_regular_point():
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("x^2 - 12", vars, ZZ),))
    point = TriangularPoint((parse("x", vars, ZZ),), prime=2)
    with pytest.raises(PointNotRegular):
        base_change_verdict(X, point, ramified=True)


# ---- special fiber route ----------------------------------------------


def test_special_fiber_hyperbola():
    X, point = hyperbola_fixture()
    F = PrimeField(2)
    vars = ("x", "y")
    fiber_point = TriangularPoint((parse_poly("x", vars, F), parse_poly("y", vars, F)))
    result = special_fiber_verdict(X, point, [fiber_point], ramified=True)
    assert result.upstairs.regular
    assert not result.fiber[0][1].regular
    assert result.regular_after_base_change is False
    direct = base_change_verdict(X, point, ramified=True)
    assert result.regular_after_base_change == direct.fiber_regular


def test_special_fiber_unramified_preserves():
    X, point = hyperbola_fixture()
    F = PrimeField(2)
    vars = ("x", "y")
    fiber_point = TriangularPoint((parse_poly("x", vars, F), parse_poly("y", vars, F)))
    result = special_fiber_verdict(X, point, [fiber_point], ramified=False)
    assert result.regular_after_base_change is True
    assert not result.fiber[0][1].regular


def test_special_fiber_gaussian_integers():
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("x^2 + 1", vars, ZZ),))
    point = TriangularPoint((parse("x - 1", vars, ZZ),), prime=2)
    F = PrimeField(2)
    fiber_point = TriangularPoint((parse_poly("x - 1", vars, F),))
    result = special_fiber_verdict(X, point, [fiber_point], ramified=True)
    assert result.upstairs.regular
    assert not result.fiber[0][1].regular
    assert result.regular_after_base_change is False
    direct = base_change_verdict(X, point, ramified=True)
    assert result.regular_after_base_change == direct.fiber_regular


def test_special_fiber_good_prime():
    # x^2 + 1 is still irreducible mod 3; the fiber point stays regular
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("x^2 + 1", vars, ZZ),))
    point = TriangularPoint((parse("x^2 + 1", vars, ZZ),), prime=3)
    F = PrimeField(3)
    fiber_point = TriangularPoint((parse_poly("x^2 + 1", vars, F),))
    result = special_fiber_verdict(X, point, [fiber_point], ramified=True)
    assert result.fiber[0][1].regular
    assert result.regular_after_base_change is True


def test_special_fiber_rejects_fiber_point_off_variety():
    X, point = hyperbola_fixture()
    F = PrimeField(2)
    vars = ("x", "y")
    off = TriangularPoint((parse_poly("x - 1", vars, F), parse_poly("y - 1", vars, F)))
    with pytest.raises(PointNotOnVariety):
        special_fiber_verdict(X, point, [off], ramified=True)


@pytest.mark.parametrize(
    "ramified, dim_override, dimension_calls",
    [(True, None, 1), (False, None, 1), (True, 2, 0), (False, 2, 0)],
)
def test_special_fiber_derives_the_dimension_once(
    monkeypatch, ramified, dim_override, dimension_calls
):
    # the parabola y = x^2 at (5, x, y), with three regular fiber points;
    # (x - 3, y - 4) lifts to a point where y - x^2 leaves -5
    import regulus.criteria

    vars = ("x", "y")
    X = PresentedVariety(vars, ZZ, (parse("y - x^2", vars, ZZ),))
    point = TriangularPoint((parse("x", vars, ZZ), parse("y", vars, ZZ)), prime=5)
    F = PrimeField(5)
    fiber_points = [
        TriangularPoint((parse_poly(gx, vars, F), parse_poly(gy, vars, F)))
        for gx, gy in (("x", "y"), ("x - 1", "y - 1"), ("x - 3", "y - 4"))
    ]
    calls = []

    def counting_dimension(gens):
        calls.append(gens)
        return ideal_dimension(gens)

    monkeypatch.setattr(regulus.criteria, "ideal_dimension", counting_dimension)
    result = special_fiber_verdict(X, point, fiber_points, ramified, dim_override)
    assert len(calls) == dimension_calls
    upstairs = result.upstairs
    assert upstairs.local_dimension == 2
    assert len(result.fiber) == 3
    for _, freport in result.fiber:
        assert freport.regular
        assert freport.local_dimension == upstairs.local_dimension - 1
        assert freport.dimension_provenance == upstairs.dimension_provenance
    assert result.regular_after_base_change is True


def test_special_fiber_rejects_a_negative_fiber_dimension():
    # Z/(3) at (3, x) is regular of dimension 0, so the fiber would have -1
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("3", vars, ZZ), parse("x", vars, ZZ)))
    point = TriangularPoint((parse("x", vars, ZZ),), prime=3)
    assert check_point(X, point, 0).regular
    fiber_point = TriangularPoint((parse_poly("x", vars, PrimeField(3)),))
    with pytest.raises(ValueError, match="cannot be negative"):
        special_fiber_verdict(X, point, [fiber_point], ramified=True, dim_override=0)


# ---- the defining identity, checked from outside -----------------------


def test_jacobian_identity_geometric():
    rng = random.Random(501)
    for _ in range(30):
        p = rng.choice((3, 5))
        field = PrimeField(p)
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        point = random_point(vars, field, rng)
        rels = tuple(random_member(point, rng) for _ in range(rng.randrange(1, 3)))
        X = PresentedVariety(vars, field, rels)
        J, _ = generalized_jacobian(X, point)
        tower = J.field
        for i, f in enumerate(rels):
            for j in range(n):
                lhs = tower_reduce(partial_derivative(f, j), tower)
                rhs = tower.zero()
                for k, g in enumerate(point.generators):
                    rhs = rhs + J.rows[i][k] * tower_reduce(partial_derivative(g, j), tower)
                assert (lhs - rhs).is_zero()


def test_jacobian_identity_arithmetic():
    rng = random.Random(503)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 3)
        vars = VAR_POOL[:n]
        fiber, point = random_arithmetic_point(vars, p, rng)
        rels = tuple(random_arithmetic_relation(fiber, p, rng) for _ in range(rng.randrange(1, 3)))
        X = PresentedVariety(vars, ZZ, rels)
        J, extra = generalized_jacobian(X, point)
        tower = J.field
        F = PrimeField(p)
        for i, f in enumerate(rels):
            for j in range(n):
                lhs = tower_reduce(reduce_mod(partial_derivative(f, j), F), tower)
                rhs = tower.zero()
                for k, g in enumerate(point.generators):
                    dgk = tower_reduce(reduce_mod(partial_derivative(g, j), F), tower)
                    rhs = rhs + J.rows[i][k] * dgk
                assert (lhs - rhs).is_zero()


# ---- rational points match the classical matrix ------------------------


def test_rational_points_reduce_to_classical_jacobian():
    rng = random.Random(509)
    for _ in range(40):
        field = rng.choice((QQ, PrimeField(3), PrimeField(7)))
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        coords = [random_coeff(field, rng) for _ in range(n)]
        gens = []
        for i, a in enumerate(coords):
            g = MultiPoly.variable(field, vars, i) - MultiPoly.constant(field, vars, a)
            gens.append(g)
        point = TriangularPoint(tuple(gens))
        rels = tuple(random_member(point, rng, multiplier_exp=2) for _ in range(rng.randrange(1, 3)))
        X = PresentedVariety(vars, field, rels)
        J, _ = generalized_jacobian(X, point)
        tower = J.field
        for i, f in enumerate(rels):
            for j in range(n):
                classical = evaluate(partial_derivative(f, j), coords, field)
                assert J.rows[i][j] == tower.coerce(classical)


# ---- presentation invariance -------------------------------------------


def test_rank_is_stable_under_relation_permutation():
    from regulus import cotangent_dimension

    rng = random.Random(521)
    for _ in range(25):
        field = rng.choice((QQ, PrimeField(5)))
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        point = random_point(vars, field, rng)
        rels = [random_member(point, rng) for _ in range(rng.randrange(1, 4))]
        X = PresentedVariety(vars, field, tuple(rels))
        rank = generalized_jacobian(X, point)[0].rank()
        cot = cotangent_dimension(point, rels)
        perm = rels[:]
        rng.shuffle(perm)
        Xp = PresentedVariety(vars, field, tuple(perm))
        assert generalized_jacobian(Xp, point)[0].rank() == rank
        assert cotangent_dimension(point, perm) == cot


def test_report_is_stable_under_renaming():
    vars = ("x", "y")
    new = ("u", "v")

    def rename(f):
        return MultiPoly(f.ring, new, dict(f.terms))

    X = PresentedVariety(vars, QQ, (parse("y^2 - x^3 + x", vars),))
    point = TriangularPoint((parse("x^2 - 2", vars), parse("y^2 - x", vars)))
    r1 = check_point(X, point)
    X2 = PresentedVariety(new, QQ, tuple(rename(f) for f in X.relations))
    point2 = TriangularPoint(tuple(rename(g) for g in point.generators))
    r2 = check_point(X2, point2)
    assert r1.rank == r2.rank
    assert r1.local_dimension == r2.local_dimension
    assert r1.regular == r2.regular


def _random_in(ring, vars, k, rng, degree):
    """A small random polynomial in the first k variables, of total degree
    at most ``degree``: a constant when k is 0."""
    terms = {}
    for _ in range(rng.randrange(3)):
        e = [0] * len(vars)
        for _ in range(rng.randrange(degree + 1)):
            if k:
                e[rng.randrange(k)] += 1
        e = tuple(e)
        terms[e] = terms.get(e, ring.zero()) + random_coeff(ring, rng)
    return MultiPoly(ring, vars, terms)


def _substitute(f, images):
    """f with x_i replaced by images[i]."""
    total = MultiPoly.zero(f.ring, f.vars)
    for exps, c in f.terms.items():
        term = MultiPoly.constant(f.ring, f.vars, c)
        for image, e in zip(images, exps):
            term = term * image**e
        total = total + term
    return total


def _verdict(X, point, dim):
    """Rank, dimension and verdict of a check, and over ZZ the ramified
    base-change answer; the error kind where the check raises."""
    try:
        report = check_point(X, point, dim)
    except DimensionMismatch:
        return "dimension-mismatch"
    out = (report.rank, report.local_dimension, report.regular)
    if point.prime is not None and report.regular:
        out += (base_change_verdict(X, point, True, dim).fiber_regular,)
    return out


def test_verdict_is_stable_under_changes_of_presentation():
    # three changes that keep the ideal of the point and of the variety up to
    # an automorphism; the Jacobian may change under the third, its rank and
    # the verdict may not
    rng = random.Random(1026)
    seen = set()
    for _ in range(300):
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        base = rng.choice((QQ, PrimeField(5), PrimeField(7), ZZ))
        if base is ZZ:
            p = rng.choice((3, 5))
            fiber, point = random_arithmetic_point(vars, p, rng)
            rels = [random_arithmetic_relation(fiber, p, rng) for _ in range(rng.randrange(1, 4))]
        else:
            point = random_point(vars, base, rng)
            rels = [random_member(point, rng) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.4:  # a relation in m^2 makes singular points likely
            rels[0] = rels[0] * rels[-1]
        gens = list(point.generators)
        ring = gens[0].ring

        # a triangular change of coordinates x_i -> x_i + h_i(x_1..x_{i-1})
        h_degree = rng.randrange(1, 3)
        images = [
            MultiPoly.variable(ring, vars, i) + _random_in(ring, vars, i, rng, h_degree)
            for i in range(n)
        ]
        moved = (
            [_substitute(f, images) for f in rels],
            [_substitute(g, images) for g in gens],
        )
        # a redundant relation h*f_1 + f_2
        h = _random_in(ring, vars, n, rng, 1)
        redundant = (rels + [h * rels[0] + rels[-1]], gens)
        # a generator reduced by an earlier one, g_i + h*g_j with j < i
        reduced = list(gens)
        if n > 1:
            i = rng.randrange(1, n)
            j = rng.randrange(i)
            reduced[i] = gens[i] + _random_in(ring, vars, i, rng, 2) * gens[j]
        presentations = [(rels, gens), moved, redundant, (rels, reduced)]

        checks = [
            (PresentedVariety(vars, ring, tuple(fs)), TriangularPoint(tuple(gs), point.prime))
            for fs, gs in presentations
        ]
        # without dim the global dimension is computed, within the Groebner
        # engine's degree bound; a supplied dim is mostly the cotangent one,
        # so that regular points and base-change answers come up
        degree = max(f.total_degree() for fs, _ in presentations for f in fs)
        dim = None
        if degree > MAX_INPUT_DEGREE or rng.random() < 0.5:
            ambient = n + (base is ZZ)
            dim = ambient - check_point(*checks[0], 0).rank
            if rng.random() < 0.3:
                dim = rng.randrange(ambient + 1)
        verdicts = [_verdict(X, pt, dim) for X, pt in checks]
        assert verdicts.count(verdicts[0]) == 4, verdicts
        seen.add(verdicts[0] if isinstance(verdicts[0], str) else verdicts[0][2:])
    assert {"dimension-mismatch", (False,), (True,), (True, True), (True, False)} <= seen
