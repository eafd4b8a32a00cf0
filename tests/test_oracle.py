import random
from fractions import Fraction

import pytest

from regulus import (
    FieldMatrix,
    OracleResourceError,
    PointNotOnVariety,
    PresentedVariety,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    cotangent_dimension,
    generalized_jacobian,
)
from regulus import oracle
from regulus.oracle import _oracle_rows, _rational_rank, _row_module_length, _unit_sweep
from regulus.poly import lift_int

from helpers import (
    QQ_RADICANDS,
    VAR_POOL,
    dense_unit_sweep,
    expand_copies,
    fraction_rank,
    irreducible_quadratic,
    parse,
    random_arithmetic_point,
    random_arithmetic_relation,
    random_member,
    random_point,
    reference_cotangent_dimension,
    reference_module_length,
    reference_oracle_rows,
    reference_unit_sweep,
)


# ---- pinned geometric values ------------------------------------------


def test_geometric_origin_of_plane_no_relations():
    F = PrimeField(5)
    vars = ("x", "y")
    point = TriangularPoint((parse("x", vars, F), parse("y", vars, F)))
    assert cotangent_dimension(point, []) == 2


def test_geometric_smooth_hyperbola_point():
    vars = ("x", "y")
    point = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    assert cotangent_dimension(point, [parse("x*y - 2", vars)]) == 1


def test_geometric_elliptic_curve_point():
    vars = ("x", "y")
    point = TriangularPoint((parse("x^2 - 2", vars), parse("y^2 - x", vars)))
    assert cotangent_dimension(point, [parse("y^2 - x^3 + x", vars)]) == 1


def test_geometric_singular_point():
    # node of y^2 = x^3 + x^2 at the origin: two branches, cotangent space
    # stays two-dimensional
    vars = ("x", "y")
    point = TriangularPoint((parse("x", vars), parse("y", vars)))
    assert cotangent_dimension(point, [parse("y^2 - x^3 - x^2", vars)]) == 2


# ---- pinned arithmetic values -----------------------------------------


def test_arithmetic_number_ring_point():
    point = TriangularPoint((parse("x^2 + 1", ("x",), ZZ),), prime=3)
    assert cotangent_dimension(point, [parse("x^3 + x + 3", ("x",), ZZ)]) == 1


def test_arithmetic_hyperbola_bad_fiber():
    vars = ("x", "y")
    point = TriangularPoint((parse("x", vars, ZZ), parse("y", vars, ZZ)), prime=2)
    assert cotangent_dimension(point, [parse("x*y - 2", vars, ZZ)]) == 2


def test_arithmetic_affine_line():
    point = TriangularPoint((parse("x", ("x",), ZZ),), prime=2)
    assert cotangent_dimension(point, []) == 2


def test_arithmetic_ramified_style_relation():
    # x^2 - 2 at the point (x, 2): f = x^2 - 2 has remainder -2 = 2*(-1)
    point = TriangularPoint((parse("x", ("x",), ZZ),), prime=2)
    assert cotangent_dimension(point, [parse("x^2 - 2", ("x",), ZZ)]) == 1


# ---- input validation --------------------------------------------------


def test_oracle_rejects_relation_off_the_point():
    # the first relation off the point is named; over ZZ a remainder
    # divisible by p is on it
    vars = ("x", "y")
    point = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    with pytest.raises(PointNotOnVariety, match=r"^relation x\*y - 3 does not vanish"):
        cotangent_dimension(point, [parse("x*y - 2", vars), parse("x*y - 3", vars)])
    point = TriangularPoint((parse("x - 1", ("x",), ZZ),), prime=3)
    with pytest.raises(PointNotOnVariety, match=r"^relation x \+ 1 does not vanish"):
        cotangent_dimension(point, [parse("x + 2", ("x",), ZZ), parse("x + 1", ("x",), ZZ)])
    # membership is read from the rows, so a bound is met first
    vars = ("x", "y", "z", "w", "v")
    F = PrimeField(3)
    point = TriangularPoint(tuple(parse(v, vars, F) for v in vars))
    with pytest.raises(OracleResourceError):
        cotangent_dimension(point, [parse("x + 1", vars, F)])


def test_oracle_variable_guard():
    vars = ("x", "y", "z", "w", "v")
    F = PrimeField(3)
    point = TriangularPoint(tuple(parse(v, vars, F) for v in vars))
    with pytest.raises(OracleResourceError):
        cotangent_dimension(point, [])


def test_field_count_bounds_its_matrix_before_forming_rows(monkeypatch):
    vars = ("x", "y")
    F = PrimeField(3)
    point = TriangularPoint((parse("x", vars, F), parse("y^2 + 1", vars, F)))
    # one relation, D = 2: 2 rows of 3*2 entries
    monkeypatch.setattr(oracle, "MAX_ORACLE_ENTRIES", 11)
    monkeypatch.setattr(oracle, "_oracle_rows", lambda *args: pytest.fail("rows formed"))
    with pytest.raises(OracleResourceError, match=r"the GF\(3\) count needs 12 matrix entries"):
        cotangent_dimension(point, [parse("x*y", vars, F)])


# ---- the walked count over a field matches the Groebner count ----------


def test_field_count_matches_the_groebner_count():
    rng = random.Random(443)
    points = []
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(101)):
        for _ in range(25):
            points.append(random_point(VAR_POOL[: rng.randrange(1, 4)], field, rng))
    # multiquadratic towers of degree 8 over QQ
    for _ in range(8):
        radicands = rng.sample(QQ_RADICANDS, 3)
        vars = VAR_POOL[:3]
        points.append(TriangularPoint(tuple(
            parse("%s^2 - %d" % (v, r), vars) for v, r in zip(vars, radicands)
        )))
    dims = set()
    fractional = 0
    for point in points:
        rels = [random_member(point, rng) for _ in range(rng.randrange(3))]
        expected = reference_cotangent_dimension(point, rels)
        assert cotangent_dimension(point, rels) == expected
        dims.add(expected)
        fractional += any(
            isinstance(c, Fraction) and c.denominator > 1 for f in rels for c in f.terms.values()
        )
    assert dims == {0, 1, 2, 3}
    assert fractional >= 10


def test_rational_rank_matches_fraction_elimination():
    rng = random.Random(449)

    def entry():
        return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))

    deficient = 0
    for _ in range(200):
        nrows, ncols, inner = rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(1, 5)
        if rng.randrange(2):
            # a product through `inner` columns keeps the rank at most `inner`
            a = [[entry() for _ in range(inner)] for _ in range(nrows)]
            b = [[entry() for _ in range(ncols)] for _ in range(inner)]
            rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]
        else:
            # int zeros among Fractions, as in the walked rows
            rows = [[entry() if rng.randrange(3) else 0 for _ in range(ncols)] for _ in range(nrows)]
        before = [list(r) for r in rows]
        expected = fraction_rank(rows)
        assert _rational_rank(rows) == expected
        assert rows == before
        deficient += expected < min(nrows, ncols)
    assert deficient >= 50


# ---- agreement with the rank route ------------------------------------


def test_geometric_agreement_random():
    rng = random.Random(401)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        field = PrimeField(p)
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        point = random_point(vars, field, rng)
        rels = tuple(random_member(point, rng) for _ in range(rng.randrange(3)))
        X = PresentedVariety(vars, field, rels)
        rank = generalized_jacobian(X, point)[0].rank()
        assert n - rank == cotangent_dimension(point, list(rels))


def test_arithmetic_agreement_random():
    rng = random.Random(409)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        vars = VAR_POOL[:n]
        fiber, point = random_arithmetic_point(vars, p, rng)
        rels = tuple(random_arithmetic_relation(fiber, p, rng) for _ in range(rng.randrange(3)))
        X = PresentedVariety(vars, ZZ, rels)
        J, extra = generalized_jacobian(X, point)
        aug = FieldMatrix(J.field, [row + [e] for row, e in zip(J.rows, extra)])
        rank = aug.rank()
        assert n + 1 - rank == cotangent_dimension(point, list(rels))


def test_unit_sweep_modulo_p_is_the_field_rank():
    rng = random.Random(419)
    for _ in range(80):
        p = rng.choice((2, 3, 5, 13))
        nrows, ncols, inner = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 5)
        # a product through `inner` columns keeps the rank at most `inner`
        a = [[rng.randrange(-p, 2 * p) for _ in range(inner)] for _ in range(nrows)]
        b = [[rng.randrange(-p, 2 * p) for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]
        field = PrimeField(p)
        expected = FieldMatrix(field, [[field.from_int(x) for x in r] for r in rows]).rank()
        assert _unit_sweep(rows, p, p) == (expected, [])


def test_unit_sweep_matches_the_dense_reference():
    # updating only the pivot's nonzero columns gives the same pivots, the
    # same u and the same residual, row for row, as full-width updates
    rng = random.Random(439)
    dropped = 0
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        m = rng.choice((p, p * p))
        ncols = rng.randrange(1, 9)
        rows = []
        for _ in range(rng.randrange(1, 9)):
            kind = rng.randrange(4)
            if kind == 0 and rows:
                # a multiple of an earlier row, which the sweep can clear to zero
                rows.append([rng.randrange(m) * x for x in rng.choice(rows)])
            elif kind == 1:
                rows.append([0 if rng.randrange(2) else rng.randrange(m) for _ in range(ncols)])
            else:
                rows.append([rng.randrange(-m, 2 * m) for _ in range(ncols)])
        before = [list(r) for r in rows]
        expected = dense_unit_sweep(rows, p, m)
        assert _unit_sweep(rows, p, m) == expected
        assert rows == before
        u, residual = expected
        dropped += sum(1 for r in rows if any(x % m for x in r)) > u + len(residual)
    assert dropped >= 50


def _sweep_invariants(rows, p):
    u, residual = _unit_sweep(rows, p, p * p)
    r_p, _ = _unit_sweep([[x // p for x in r] for r in residual], p, p)
    return u, r_p


def test_unit_sweep_invariants_ignore_row_order_and_repeats():
    # u and the F_p rank of the residual over p describe the row module
    # over Z/p^2, not the list that spans it
    rng = random.Random(421)
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        m = p * p
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [
            [rng.randrange(m) if rng.randrange(3) else p * rng.randrange(p) for _ in range(ncols)]
            if rng.randrange(2)
            else [p * rng.randrange(p) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        expected = _sweep_invariants(rows, p)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert _sweep_invariants(shuffled, p) == expected
        repeated = rows + [rows[rng.randrange(nrows)]]
        rng.shuffle(repeated)
        assert _sweep_invariants(repeated, p) == expected


def test_row_module_length_matches_the_reference():
    rng = random.Random(433)
    unit_pivots = residuals = 0
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        m = p * p
        n, d_t = rng.randrange(1, 4), rng.randrange(1, 7)
        width = (n + 1) * d_t
        rows = []
        for _ in range(rng.randrange(1, 9)):
            kind = rng.randrange(5)
            pmul = [rng.randrange(p) for _ in range(width)]
            if kind == 0 and rows:
                rows.append(list(rng.choice(rows)))
            elif kind == 1:
                rows.append([p * x for x in pmul])
            elif kind == 2:
                # a head divisible by p, as every head of the oracle's rows
                rows.append([p * x for x in pmul[:d_t]] + [rng.randrange(m) for _ in pmul[d_t:]])
            else:
                rows.append([rng.randrange(m) if rng.randrange(3) else p * x for x in pmul])
        before = [list(r) for r in rows]
        assert _row_module_length(rows, p) == reference_module_length(rows, p)
        assert rows == before
        u, residual = reference_unit_sweep(rows, p, m)
        unit_pivots += u > 0
        residuals += bool(residual)
    assert unit_pivots >= 100
    assert residuals >= 100


# ---- the walked rows match the divided rows ------------------------------


def _quadratic_linear_quadratic(p, rng):
    """Fiber over GF(p) and its integer lift with levels of degree 2, 1, 2.
    The top level's tail mentions y, which ``normalized_generators`` reduces
    by the linear level.  The rows need only a monic triangular system, so
    the top level need not be irreducible."""
    field = PrimeField(p)
    vars = VAR_POOL[:3]
    a, b = irreducible_quadratic(p, rng)
    texts = [
        "x^2 + %d*x + %d" % (a, b),
        "y - %d*x - %d" % (rng.randrange(p), rng.randrange(p)),
        "z^2 + %d*x*z + %d*y + %d" % (rng.randrange(p), rng.randrange(p), rng.randrange(p)),
    ]
    fiber = TriangularPoint(tuple(parse(t, vars, field) for t in texts))
    lifted = TriangularPoint(tuple(lift_int(g) for g in fiber.generators), prime=p)
    return fiber, lifted


def test_oracle_rows_match_reference_rows():
    rng = random.Random(431)
    cases = []
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        cases.append((p,) + random_arithmetic_point(VAR_POOL[:n], p, rng))
    for p in (2, 3, 5):
        cases.append((p,) + _quadratic_linear_quadratic(p, rng))
    relation_heads = 0
    for p, fiber, point in cases:
        for count in (0, 1, 2):
            rels = [random_arithmetic_relation(fiber, p, rng) for _ in range(count)]
            # the builder emits the walked rows only; each is followed by
            # its layer-0 head on layers 1..n in the reference
            walked = _oracle_rows(point, rels)
            reference = reference_oracle_rows(point, rels)
            assert expand_copies(walked, point.n) == reference
            # the heads' copies on layers 1..n add nothing to the walked
            # rows' span: the rows of each p*g_k already contain them
            assert _row_module_length(walked, p) == reference_module_length(reference, p)
            d_t = len(walked[0]) // (point.n + 1)
            relation_heads += any(any(r[:d_t]) for r in walked[: count * d_t])
    assert relation_heads >= 20


def test_field_oracle_rows_match_reference_rows():
    # over QQ and GF(p) the row generators are the relations alone, and the
    # walked rows give the rank that the divided rows give
    rng = random.Random(433)
    cases = []
    for _ in range(30):
        field = rng.choice((QQ, PrimeField(2), PrimeField(3), PrimeField(5)))
        cases.append(random_point(VAR_POOL[: rng.randrange(1, 4)], field, rng))
    for p in (2, 3, 5):
        cases.append(_quadratic_linear_quadratic(p, rng)[0])
    layered = 0
    for point in cases:
        for count in (1, 2):
            rels = [random_member(point, rng) for _ in range(count)]
            walked = _oracle_rows(point, rels)
            reference = reference_oracle_rows(point, rels)
            assert expand_copies(walked, point.n) == reference
            q = point.ring.modulus
            if q:
                assert _unit_sweep(walked, q, q)[0] == reference_unit_sweep(reference, q, q)[0]
            else:
                assert _rational_rank(walked) == fraction_rank(reference)
            d_t = len(walked[0]) // (point.n + 1)
            layered += any(any(r[d_t:]) for r in walked)
    assert layered >= 30
