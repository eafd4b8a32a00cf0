"""Acceptance suite: one test per criterion, named in order.

Each test prints a single summary line; `pytest -v` shows one pass/fail
row per criterion.  Timing bounds are asserted where the contract pins
them.
"""

import json
import random
import subprocess
import sys
import time

from regulus import (
    FieldMatrix,
    PresentedVariety,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    base_change_verdict,
    check_point,
    cotangent_dimension,
    generalized_jacobian,
    parse_poly,
    partial_derivative,
    special_fiber_verdict,
    tower_reduce,
)
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


def test_criterion_01_number_ring_regularity():
    start = time.monotonic()
    X, point = number_ring_fixture()
    report = check_point(X, point)
    assert report.tower.describe() == "GF(3)[a]/(a^2+1)"
    assert [[str(e) for e in row] for row in report.jacobian.rows] == [["a"]]
    assert [str(e) for e in report.extra_column] == ["1"]
    assert report.rank == 1
    assert report.local_dimension == 1
    assert report.regular is True
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print("criterion 1 PASS: rank 1, dimension 1, regular (%.3fs)" % elapsed)


def test_criterion_02_base_change_split():
    start = time.monotonic()
    X, point = hyperbola_fixture()
    ramified = base_change_verdict(X, point, ramified=True)
    assert ramified.report.regular is True
    assert ramified.system_solvable is False
    assert ramified.fiber_regular is False
    unramified = base_change_verdict(X, point, ramified=False)
    assert unramified.fiber_regular is True
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        "criterion 2 PASS: ramified loses regularity, unramified keeps it "
        "(%.3fs)" % elapsed
    )


def test_criterion_03_special_fiber_route():
    X, point = hyperbola_fixture()
    F2 = PrimeField(2)
    vars = ("x", "y")
    fiber_point = TriangularPoint(
        (parse_poly("x", vars, F2), parse_poly("y", vars, F2))
    )
    via_fiber = special_fiber_verdict(X, point, [fiber_point], ramified=True)
    direct = base_change_verdict(X, point, ramified=True)
    assert via_fiber.regular_after_base_change == direct.fiber_regular == False

    Xg = PresentedVariety(("x",), ZZ, (parse("x^2 + 1", ("x",), ZZ),))
    pg = TriangularPoint((parse("x - 1", ("x",), ZZ),), prime=2)
    fg = TriangularPoint((parse_poly("x - 1", ("x",), PrimeField(2)),))
    via_fiber2 = special_fiber_verdict(Xg, pg, [fg], ramified=True)
    direct2 = base_change_verdict(Xg, pg, ramified=True)
    assert via_fiber2.regular_after_base_change == direct2.fiber_regular == False
    print("criterion 3 PASS: fiber route and direct route agree on both fixtures")


def test_criterion_04_geometric_oracle_agreement():
    start = time.monotonic()
    rng = random.Random(20260401)
    count = 0
    for _ in range(210):
        p = rng.choice((2, 3, 5))
        field = PrimeField(p)
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        point = random_point(vars, field, rng)
        rels = tuple(random_member(point, rng) for _ in range(rng.randrange(3)))
        X = PresentedVariety(vars, field, rels)
        rank = generalized_jacobian(X, point)[0].rank()
        assert n - rank == cotangent_dimension(point, list(rels))
        count += 1
    elapsed = time.monotonic() - start
    assert count >= 200
    assert elapsed < 60.0
    print(
        "criterion 4 PASS: %d geometric instances agree with the length "
        "oracle (%.1fs)" % (count, elapsed)
    )


def test_criterion_05_arithmetic_oracle_agreement():
    start = time.monotonic()
    rng = random.Random(20260405)
    count = 0
    for _ in range(110):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        fiber, point = random_arithmetic_point(vars, p, rng)
        rels = tuple(
            random_arithmetic_relation(fiber, p, rng) for _ in range(rng.randrange(3))
        )
        X = PresentedVariety(vars, ZZ, rels)
        J, extra = generalized_jacobian(X, point)
        aug = FieldMatrix(J.field, [row + [e] for row, e in zip(J.rows, extra)])
        assert n + 1 - aug.rank() == cotangent_dimension(point, list(rels))
        count += 1
    elapsed = time.monotonic() - start
    assert count >= 100
    assert elapsed < 120.0
    print(
        "criterion 5 PASS: %d arithmetic instances agree with the length "
        "oracle (%.1fs)" % (count, elapsed)
    )


def test_criterion_06_defining_identity_holds():
    rng = random.Random(20260406)
    geometric = 0
    for _ in range(60):
        p = rng.choice((2, 3, 5))
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
                    rhs = rhs + J.rows[i][k] * tower_reduce(
                        partial_derivative(g, j), tower
                    )
                assert (lhs - rhs).is_zero()
        geometric += 1
    arithmetic = 0
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 3)
        vars = VAR_POOL[:n]
        fiber, point = random_arithmetic_point(vars, p, rng)
        rels = tuple(
            random_arithmetic_relation(fiber, p, rng) for _ in range(rng.randrange(1, 3))
        )
        X = PresentedVariety(vars, ZZ, rels)
        J, _ = generalized_jacobian(X, point)
        tower = J.field
        F = PrimeField(p)
        for i, f in enumerate(rels):
            for j in range(n):
                lhs = tower_reduce(reduce_mod(partial_derivative(f, j), F), tower)
                rhs = tower.zero()
                for k, g in enumerate(point.generators):
                    rhs = rhs + J.rows[i][k] * tower_reduce(
                        reduce_mod(partial_derivative(g, j), F), tower
                    )
                assert (lhs - rhs).is_zero()
        arithmetic += 1
    print(
        "criterion 6 PASS: defining identity re-verified on %d geometric and "
        "%d arithmetic instances" % (geometric, arithmetic)
    )


def test_criterion_07_rational_points_match_classical():
    rng = random.Random(20260407)
    count = 0
    for _ in range(110):
        field = rng.choice((QQ, PrimeField(3), PrimeField(5), PrimeField(7)))
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        coords = [random_coeff(field, rng) for _ in range(n)]
        gens = []
        from regulus import MultiPoly

        for i, a in enumerate(coords):
            gens.append(
                MultiPoly.variable(field, vars, i)
                - MultiPoly.constant(field, vars, a)
            )
        point = TriangularPoint(tuple(gens))
        rels = tuple(
            random_member(point, rng, multiplier_exp=2)
            for _ in range(rng.randrange(1, 3))
        )
        X = PresentedVariety(vars, field, rels)
        J, _ = generalized_jacobian(X, point)
        tower = J.field
        for i, f in enumerate(rels):
            for j in range(n):
                classical = evaluate(partial_derivative(f, j), coords, field)
                assert J.rows[i][j] == tower.coerce(classical)
        count += 1
    assert count >= 100
    print(
        "criterion 7 PASS: %d rational points reduce to the classical "
        "Jacobian" % count
    )


def test_criterion_08_elliptic_curve_closed_point():
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("y^2 - x^3 + x", vars),))
    point = TriangularPoint((parse("x^2 - 2", vars), parse("y^2 - x", vars)))
    report = check_point(X, point)
    assert report.rank == 1
    assert report.regular is True
    tower = report.tower
    a = tower.gen(0)
    b = tower.gen(1)
    f = X.relations[0]
    fx = partial_derivative(f, 0)
    fy = partial_derivative(f, 1)

    def at(poly, xv, yv):
        acc = tower.zero()
        for (e1, e2), c in poly.terms.items():
            acc = acc + tower.coerce(c) * xv ** e1 * yv ** e2
        return acc

    for yv in (b, -b):
        row = [at(fx, a, yv), at(fy, a, yv)]
        assert row[0] == tower.from_int(-5)
        assert row[1] == tower.from_int(2) * yv
        assert FieldMatrix(tower, [row]).rank() == 1
    print(
        "criterion 8 PASS: closed point has rank 1 and both rational points "
        "over the degree-4 field have classical rank 1"
    )


def test_criterion_09_cli_rejections(tmp_path):
    bad_ideal = tmp_path / "bad_ideal.rg"
    bad_ideal.write_text(
        """\
[ring]
vars = x
base = QQ
relations = x^3 - 2*x^2 - 4*x + 8, x^2 - 4

[point]
generators = x^2 - 4

[task]
kind = check
"""
    )
    result = subprocess.run(
        [sys.executable, "-m", "regulus.cli", str(bad_ideal)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "ideal-not-maximal"
    assert doc["error"]["witness"] == "x - 2"

    off_point = tmp_path / "off_point.rg"
    off_point.write_text(
        """\
[ring]
vars = x
base = QQ
relations = x - 1

[point]
generators = x - 2

[task]
kind = check
"""
    )
    result2 = subprocess.run(
        [sys.executable, "-m", "regulus.cli", str(off_point)],
        capture_output=True,
        text=True,
    )
    assert result2.returncode == 2
    doc2 = json.loads(result2.stdout)
    assert doc2["error"]["kind"] == "point-not-on-variety"
    print(
        "criterion 9 PASS: non-maximal ideal reported with witness, "
        "off-variety point rejected, both with exit code 2"
    )
