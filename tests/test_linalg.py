import random

import pytest

from regulus import (
    FieldMatrix,
    IdealNotMaximal,
    PrimeField,
    QQ,
    TriangularPoint,
    residue_field,
)

from helpers import parse, random_finite_tower, random_tower_element, transpose


def random_matrix(tower, rows, cols, rng):
    return FieldMatrix(
        tower,
        [[random_tower_element(tower, rng, depth=0) for _ in range(cols)] for _ in range(rows)],
    )


def mat_vec(matrix, vec):
    out = []
    for row in matrix.rows:
        acc = matrix.field.zero()
        for a, x in zip(row, vec):
            acc = acc + a * x
        out.append(acc)
    return out


# ---- pinned examples ---------------------------------------------------


def gf9():
    F = PrimeField(3)
    return residue_field(TriangularPoint((parse("x^2 + 1", ("x",), F),)))


def test_rank_examples():
    tower = gf9()
    a = tower.gen(0)
    assert FieldMatrix(tower, [[a, tower.one()]]).rank() == 1
    assert FieldMatrix(tower, [[a, tower.one()], [a + a, tower.from_int(2)]]).rank() == 1
    assert FieldMatrix(tower, [[tower.zero(), tower.zero()]]).rank() == 0
    assert FieldMatrix(tower, []).rank() == 0


def test_solve_examples():
    tower = gf9()
    a = tower.gen(0)
    one = tower.one()
    # over GF(9): a * v = 1 has the witness v = -a = 2a
    sol = FieldMatrix(tower, [[a]]).solve([one])
    assert sol is not None
    assert (a * sol[0] - one).is_zero()
    assert sol[0] == tower.from_int(2) * a
    # inconsistent: 0 * v = 1
    assert FieldMatrix(tower, [[tower.zero(), tower.zero()]]).solve([one]) is None


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    tower = gf9()
    with pytest.raises(ValueError, match="^right-hand side length mismatch$"):
        FieldMatrix(tower, [[tower.one()], [tower.zero()]]).solve([tower.one()])


def test_solve_prefers_zero_free_variables():
    tower = gf9()
    sol = FieldMatrix(tower, [[tower.one(), tower.one()]]).solve([tower.from_int(2)])
    assert sol == [tower.from_int(2), tower.zero()]


def test_rank_forces_inversion_only_when_needed():
    # x^2 - 4 is not maximal, but a 1x1 rank question touching only one
    # nonzero entry never needs an inverse, so it succeeds
    bad = residue_field(TriangularPoint((parse("x^2 - 4", ("x",)),)))
    elem = bad.gen(0) - bad.from_int(2)
    assert FieldMatrix(bad, [[elem]]).rank() == 1
    # a second row forces elimination, which needs 1/(x - 2) and fails
    with pytest.raises(IdealNotMaximal) as info:
        FieldMatrix(bad, [[elem], [bad.one()]]).rank()
    assert info.value.witness == "x - 2"


# ---- random properties -------------------------------------------------


def test_rank_transpose_random():
    rng = random.Random(211)
    done = 0
    while done < 300:
        _, tower = random_finite_tower(rng, max_total=4)
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = random_matrix(tower, rows, cols, rng)
        r = m.rank()
        assert r == transpose(m).rank()
        assert r <= min(rows, cols)
        done += 1


def test_solutions_verify_by_multiplication():
    rng = random.Random(223)
    solved = 0
    while solved < 120:
        _, tower = random_finite_tower(rng, max_total=4)
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = random_matrix(tower, rows, cols, rng)
        b = [random_tower_element(tower, rng, depth=0) for _ in range(rows)]
        sol = m.solve(b)
        if sol is None:
            continue
        got = mat_vec(m, sol)
        assert all((x - y).is_zero() for x, y in zip(got, b))
        solved += 1


def test_augmented_rank_dichotomy():
    rng = random.Random(227)
    for _ in range(200):
        _, tower = random_finite_tower(rng, max_total=4)
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = random_matrix(tower, rows, cols, rng)
        b = [random_tower_element(tower, rng, depth=0) for _ in range(rows)]
        r = m.rank()
        aug = FieldMatrix(tower, [row + [x] for row, x in zip(m.rows, b)])
        ra = aug.rank()
        assert ra in (r, r + 1)
        assert (m.solve(b) is not None) == (ra == r)


def test_consistent_square_system_random():
    rng = random.Random(229)
    for _ in range(80):
        _, tower = random_finite_tower(rng, max_total=4)
        ncols = rng.randrange(1, 4)
        m = random_matrix(tower, ncols + 1, ncols, rng)
        x = [random_tower_element(tower, rng, depth=0) for _ in range(ncols)]
        b = mat_vec(m, x)
        # built from a solution, so it must be solvable
        sol = m.solve(b)
        assert sol is not None
        got = mat_vec(m, sol)
        assert all((u - v).is_zero() for u, v in zip(got, b))


def test_rank_over_rationals():
    m = FieldMatrix(
        QQ,
        [
            [QQ.from_int(1), QQ.from_int(2)],
            [QQ.from_int(2), QQ.from_int(4)],
            [QQ.from_int(0), QQ.from_int(1)],
        ],
    )
    assert m.rank() == 2
    assert transpose(m).rank() == 2


def test_rectangular_validation():
    tower = gf9()
    with pytest.raises(ValueError):
        FieldMatrix(tower, [[tower.one()], [tower.one(), tower.zero()]])
