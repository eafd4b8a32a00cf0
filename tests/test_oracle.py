import random
from fractions import Fraction

import pytest

from regulus import (
    FieldMatrix,
    MultiPoly,
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
from regulus.errors import InternalConsistencyError
from regulus.oracle import _oracle_rows, _rational_rank, _rows_mod_p, _unit_sweep
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
    random_coeff,
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


def test_oracle_rejects_a_relation_in_other_variables_or_ring():
    vars = ("x", "y")
    point = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    for f in (parse("x - 2", ("x", "z")), parse("x - 2", vars, PrimeField(5))):
        with pytest.raises(ValueError, match="^relation and point disagree on variables or ring$"):
            cotangent_dimension(point, [f])


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
        assert _unit_sweep(rows, p) == expected


def test_unit_sweep_matches_the_dense_reference():
    # updating only the pivot's nonzero columns gives the rank that
    # full-width updates give, and leaves the input rows as they were
    rng = random.Random(439)
    dropped = 0
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        ncols = rng.randrange(1, 9)
        rows = []
        for _ in range(rng.randrange(1, 9)):
            kind = rng.randrange(4)
            if kind == 0 and rows:
                # a multiple of an earlier row, which the sweep can clear to zero
                rows.append([rng.randrange(p) * x for x in rng.choice(rows)])
            elif kind == 1:
                rows.append([0 if rng.randrange(2) else rng.randrange(p) for _ in range(ncols)])
            else:
                rows.append([rng.randrange(-p, 2 * p) for _ in range(ncols)])
        before = [list(r) for r in rows]
        expected = dense_unit_sweep(rows, p)
        assert _unit_sweep(rows, p) == expected
        assert rows == before
        dropped += sum(1 for r in rows if any(x % p for x in r)) > expected
    assert dropped >= 50


def _relation_rows(p, n, d_t, rng):
    """Random rows over Z/p^2 shaped as the oracle's relation rows: n + 1
    layers of width d_t, every layer-0 entry divisible by p."""
    width = (n + 1) * d_t
    rows = []
    for _ in range(rng.randrange(1, 9)):
        kind = rng.randrange(4)
        pmul = [rng.randrange(p) for _ in range(width)]
        if kind == 0 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind == 1:
            rows.append([p * x for x in pmul])
        else:
            rows.append([p * x for x in pmul[:d_t]] + [
                rng.randrange(p * p) if kind == 2 or rng.randrange(3) else p * x
                for x in pmul[d_t:]
            ])
    return rows


def _zz_length(rows, p, n, d_t):
    """The oracle's length over Z/p^2 of span(rows) + p*F_B."""
    return n * d_t + _unit_sweep(_rows_mod_p(rows, p, d_t), p)


def test_unit_sweep_invariants_ignore_row_order_and_repeats():
    # the length of span(rows) + p*F_B describes the module over Z/p^2,
    # not the list of rows that spans it
    rng = random.Random(421)
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        n, d_t = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = _relation_rows(p, n, d_t, rng)
        expected = _zz_length(rows, p, n, d_t)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert _zz_length(shuffled, p, n, d_t) == expected
        repeated = rows + [rng.choice(rows)]
        rng.shuffle(repeated)
        assert _zz_length(repeated, p, n, d_t) == expected


def _p_times_layers(p, n, d_t):
    """p times the unit vectors of layers 1..n: the rows of every p*g_j*M."""
    width = (n + 1) * d_t
    return [[p * (j == k) for j in range(width)] for k in range(d_t, width)]


def test_mod_p_rank_matches_the_two_phase_module_length():
    # one F_p rank of the mapped rows, plus n*d_t for p*F_B, is the length
    # that two eliminations, over Z/p^2 and then over Z/p, give for the
    # relation rows together with the rows of every p*g_j*M
    rng = random.Random(433)
    unit_pivots = residuals = 0
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        n, d_t = rng.randrange(1, 4), rng.randrange(1, 7)
        rows = _relation_rows(p, n, d_t, rng)
        before = [list(r) for r in rows]
        full = rows + _p_times_layers(p, n, d_t)
        rng.shuffle(full)
        assert _zz_length(rows, p, n, d_t) == reference_module_length(full, p)
        assert rows == before
        u, residual = reference_unit_sweep(full, p, p * p)
        unit_pivots += u > 0
        residuals += bool(residual)
    assert unit_pivots >= 100
    assert residuals >= 100


def test_mod_p_rows_refuse_a_layer_zero_entry_prime_to_p():
    # layer 0 is divided by p; layers 1..n are left for the sweep to reduce
    assert _rows_mod_p([[3, 6, 1, 7]], 3, 2) == [[1, 2, 1, 7]]
    with pytest.raises(InternalConsistencyError, match="layer 0 is not divisible by 3"):
        _rows_mod_p([[3, 6, 1, 7], [0, 4, 0, 0]], 3, 2)


def _zz_relation_mix(fiber, point, p, rng):
    """0-3 relations through a ZZ point: members of the lifted ideal, p*f
    for an integer polynomial f, p^2, products of two members, and the
    product of the last and the first generator."""
    vars = point.vars
    rels = []
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(5)
        if kind == 0:
            rels.append(random_arithmetic_relation(fiber, p, rng))
        elif kind == 1:
            f = MultiPoly.zero(ZZ, vars)
            for _ in range(rng.randrange(1, 4)):
                e = tuple(rng.randrange(3) for _ in vars)
                f = f + MultiPoly(ZZ, vars, {e: rng.randrange(-4, 5) or 1})
            rels.append(f.scale(p))
        elif kind == 2:
            rels.append(MultiPoly.constant(ZZ, vars, p * p))
        elif kind == 3:
            f1 = random_arithmetic_relation(fiber, p, rng)
            rels.append(f1 * random_arithmetic_relation(fiber, p, rng))
        else:
            rels.append(point.generators[-1] * point.generators[0])
    return rels


def test_zz_count_matches_the_two_phase_length():
    # the count with one F_p rank against the length over Z/p^2 of the
    # relation rows and the walked rows of every p*g_j, from two
    # eliminations (over Z/p^2, then over Z/p)
    rng = random.Random(461)
    counts = set()
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7, 13))
        fiber, point = random_arithmetic_point(VAR_POOL[: rng.randrange(1, 5)], p, rng)
        rels = _zz_relation_mix(fiber, point, p, rng)
        n, d_t = point.n, point.residue_degree
        rows = _oracle_rows(point, rels + [g.scale(p) for g in point.generators])
        length = 2 * (n + 1) * d_t - reference_module_length(rows, p)
        assert (length - d_t) % d_t == 0
        expected = (length - d_t) // d_t
        assert cotangent_dimension(point, rels) == expected
        counts.add(expected)
    assert counts >= {0, 1, 2, 3, 4}


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


# level degrees of the stacked towers: the corpus chain t^2 = c, u^2 = t,
# cubic levels, and degree-1 levels between them
STACKED_DEGREES = ((2, 2), (2, 1, 3), (2, 2, 3), (2, 2, 1, 3), (3, 1, 2, 2))


def _stacked_tower(field, degrees, rng):
    """A monic triangular system over ``field`` with levels of the given
    degrees.  A quadratic level right after a quadratic level is the
    chain's u^2 - t; every other level has a random tail in its own
    variable below its degree and in each lower variable up to that
    level's degree, so ``normalized_generators`` must reduce it.  The
    top columns of x_i then come from the maps of every lower variable.
    The rows need only a monic triangular system, so no level need be
    irreducible."""
    n = len(degrees)
    gens = []
    for i, d in enumerate(degrees):
        terms = {tuple(d if k == i else 0 for k in range(n)): field.one()}
        if i and d == degrees[i - 1] == 2:
            terms[tuple(int(k == i - 1) for k in range(n))] = -field.one()
        else:
            for _ in range(3):
                e = tuple(
                    rng.randrange(degrees[k] + 1) if k < i else rng.randrange(d) if k == i else 0
                    for k in range(n)
                )
                prev = terms.get(e)
                c = random_coeff(field, rng)
                terms[e] = c if prev is None else prev + c
        gens.append(MultiPoly(field, VAR_POOL[:n], terms))
    return TriangularPoint(tuple(gens))


def test_oracle_rows_match_reference_rows():
    rng = random.Random(431)
    cases = []
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        cases.append((p,) + random_arithmetic_point(VAR_POOL[:n], p, rng))
    for p in (2, 3, 5):
        cases.append((p,) + _quadratic_linear_quadratic(p, rng))
        for degrees in STACKED_DEGREES:
            fiber = _stacked_tower(PrimeField(p), degrees, rng)
            lifted = TriangularPoint(tuple(lift_int(g) for g in fiber.generators), prime=p)
            cases.append((p, fiber, lifted))
    relation_heads = 0
    for p, fiber, point in cases:
        n, d_t = point.n, point.residue_degree
        for count in (0, 1, 2):
            rels = [random_arithmetic_relation(fiber, p, rng) for _ in range(count)]
            # the builder walks the relations' rows only; each is followed
            # by its layer-0 head on layers 1..n in the reference, whose
            # rows of every p*g_k come after the relations' rows
            walked = _oracle_rows(point, rels)
            reference = reference_oracle_rows(point, rels)
            assert len(walked) == count * d_t
            assert expand_copies(walked, n) == reference[: count * d_t * (n + 1)]
            # the heads' copies and the rows of each p*g_k span p*F_B, which
            # the count adds as n*d_t without forming it
            assert _zz_length(walked, p, n, d_t) == reference_module_length(reference, p)
            relation_heads += any(any(r[:d_t]) for r in walked)
    assert relation_heads >= 20


def test_zz_count_walks_the_relations_and_ranks_mod_p(monkeypatch):
    rng = random.Random(457)
    moduli = []
    sweep = oracle._unit_sweep
    monkeypatch.setattr(oracle, "_unit_sweep", lambda rows, p: moduli.append(p) or sweep(rows, p))
    for _ in range(20):
        p = rng.choice((2, 3, 5, 7))
        fiber, point = random_arithmetic_point(VAR_POOL[: rng.randrange(1, 4)], p, rng)
        rels = [random_arithmetic_relation(fiber, p, rng) for _ in range(rng.randrange(4))]
        assert len(_oracle_rows(point, rels)) == len(rels) * point.residue_degree
        calls = len(moduli)
        cotangent_dimension(point, rels)
        assert moduli[calls:] == [p]


def _field_chain(field, vars):
    """x^2 = 2, y^2 = x, z linear, w^3 = y: the field 2^(1/12) over QQ and
    over GF(13), where 2 is a primitive root.  The last two levels carry
    terms above the canonical degrees, which ``normalized_generators``
    reduces, the last level to w^3 - y."""
    texts = ("x^2 - 2", "y^2 - x", "z - x^3*y - 2*y^2", "w^3 + x^2*w - 2*w + z - 2*x*y - 2*x - y")
    return TriangularPoint(tuple(parse(t, vars, field) for t in texts))


def test_the_count_divides_only_the_generators_and_each_relation(monkeypatch):
    # n divisions interreduce the generators, and each relation's row takes
    # 1 + n: its remainder and its n quotients.  The top columns of
    # multiplication by x_i come from the generators' tails, with none
    rng = random.Random(461)
    divisions = []
    divide = oracle._divide
    monkeypatch.setattr(oracle, "_divide", lambda *a: divisions.append(a) or divide(*a))
    vars = VAR_POOL[:4]
    rational, chain = _field_chain(QQ, vars), _field_chain(PrimeField(13), vars)
    cases = [(rational, [random_member(rational, rng)], 4)]
    cases.append((chain, [random_member(chain, rng) for _ in range(2)], 4))
    lifted = TriangularPoint(tuple(lift_int(g) for g in chain.generators), prime=13)
    cases.append((lifted, [random_arithmetic_relation(chain, 13, rng) for _ in range(3)], 5))
    for _ in range(12):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 5)
        fiber, point = random_arithmetic_point(VAR_POOL[:n], p, rng)
        rels = [random_arithmetic_relation(fiber, p, rng) for _ in range(rng.randrange(3))]
        cases.append((point, rels, n + 1))
        rels = [random_member(fiber, rng) for _ in range(rng.randrange(3))]
        cases.append((fiber, rels, n))
    for point, rels, ambient in cases:
        n = point.n
        del divisions[:]
        count = cotangent_dimension(point, rels)
        assert len(divisions) == n + len(rels) * (n + 1)
        # the rank path's count, so the points are what they claim to be
        X = PresentedVariety(point.vars, point.ring, tuple(rels))
        J, extra = generalized_jacobian(X, point)
        if point.prime:
            J = FieldMatrix(J.field, [row + [e] for row, e in zip(J.rows, extra)])
        assert count == ambient - J.rank()


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
    for field in (QQ, PrimeField(2), PrimeField(7)):
        cases.extend(_stacked_tower(field, degrees, rng) for degrees in STACKED_DEGREES)
    layered = 0
    for point in cases:
        for count in (1, 2):
            rels = [random_member(point, rng) for _ in range(count)]
            walked = _oracle_rows(point, rels)
            reference = reference_oracle_rows(point, rels)
            assert expand_copies(walked, point.n) == reference
            q = point.ring.modulus
            if q:
                assert _unit_sweep(walked, q) == reference_unit_sweep(reference, q, q)[0]
            else:
                assert _rational_rank(walked) == fraction_rank(reference)
            d_t = len(walked[0]) // (point.n + 1)
            layered += any(any(r[d_t:]) for r in walked)
    assert layered >= 30
