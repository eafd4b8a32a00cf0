"""Each built-in cross-check fires when the value it checks is wrong.

One fault is injected per check with ``monkeypatch``; the check must turn it
into an ``InternalConsistencyError`` (exit 2, kind ``internal-consistency``)
instead of a wrong verdict.
"""

import json

import pytest

from regulus import (
    FieldMatrix,
    MultiPoly,
    PresentedVariety,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    cotangent_dimension,
    generalized_jacobian,
    groebner_basis,
    parse_poly,
    residue_field,
    special_fiber_verdict,
)
from regulus import criteria, groebner, jobfile, oracle
from regulus.cli import main
from regulus.errors import InternalConsistencyError
from regulus.tower import ResidueTower

from helpers import parse


def test_derivative_identity_catches_a_wrong_quotient(monkeypatch):
    vars = ("x", "y")
    X = PresentedVariety(vars, QQ, (parse("x*y - 2", vars),))
    point = TriangularPoint((parse("x - 2", vars), parse("y - 1", vars)))
    generalized_jacobian(X, point)
    divide = criteria.triangular_divide

    def off_by_one(f, point):
        (q, *rest), rem = divide(f, point)
        return (q + MultiPoly.constant(q.ring, q.vars, 1), *rest), rem

    monkeypatch.setattr(criteria, "triangular_divide", off_by_one)
    with pytest.raises(InternalConsistencyError, match="derivative identity failed"):
        generalized_jacobian(X, point)


def test_a_proven_residue_field_is_checked_against_the_generator_matrix(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2): its derivative vanishes at the point,
    # so a certificate that proved this level would leave a zero on the
    # diagonal of the generators' derivative matrix
    F = PrimeField(2)
    X = PresentedVariety(("x",), F, ())
    point = TriangularPoint((parse_poly("x^2 + 1", ("x",), F),))
    assert residue_field(point).proven == 0
    monkeypatch.setattr(ResidueTower, "_certify", lambda self: len(self.levels))
    with pytest.raises(InternalConsistencyError, match="singular over a proven residue field"):
        generalized_jacobian(X, point)


def test_fiber_route_is_checked_against_the_direct_route(monkeypatch):
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse("x^2 + 1", vars, ZZ),))
    point = TriangularPoint((parse("x^2 + 1", vars, ZZ),), prime=3)
    fiber_point = TriangularPoint((parse_poly("x^2 + 1", vars, PrimeField(3)),))
    assert special_fiber_verdict(X, point, [fiber_point], ramified=True).fiber[0][1].regular
    base_change = criteria._base_change

    def flipped(report, ramified):
        verdict = base_change(report, ramified)
        verdict.fiber_regular = not verdict.fiber_regular
        return verdict

    monkeypatch.setattr(criteria, "_base_change", flipped)
    with pytest.raises(InternalConsistencyError, match="verdicts disagree"):
        special_fiber_verdict(X, point, [fiber_point], ramified=True)


def test_solve_re_verifies_its_solution(monkeypatch):
    F = PrimeField(5)
    tower = residue_field(TriangularPoint((parse_poly("x - 1", ("x",), F),)))
    matrix = FieldMatrix(tower, [[tower.from_int(3)]])
    assert matrix.solve([tower.from_int(1)]) == [tower.from_int(2)]
    # every pivot "inverse" is the pivot itself
    monkeypatch.setattr(ResidueTower, "inv", lambda self, a: a)
    with pytest.raises(InternalConsistencyError, match="re-verification"):
        matrix.solve([tower.from_int(1)])


def test_groebner_basis_re_verifies_its_inputs(monkeypatch):
    vars = ("x", "y")
    gens = [parse("x^2", vars), parse("x^2 + y", vars)]
    assert len(groebner_basis(gens)) == 2
    # every S-polynomial reduces to zero, so no pair adds an element
    monkeypatch.setattr(groebner, "_s_polynomial", lambda top, di, dj: {})
    with pytest.raises(InternalConsistencyError, match="fails to reduce an input"):
        groebner_basis(gens)


def test_oracle_checks_each_relation_row_lies_in_m_over_zz(monkeypatch):
    vars = ("x",)
    point = TriangularPoint((parse("x^2 + 1", vars, ZZ),), prime=3)
    relations = [parse("x^3 + x + 3", vars, ZZ)]
    assert cotangent_dimension(point, relations) == 1
    walk = oracle._oracle_rows

    def off_by_one(point, relations):
        # the last walked row's first entry is no longer divisible by p
        rows = walk(point, relations)
        rows[-1][0] += 1
        return rows

    monkeypatch.setattr(oracle, "_oracle_rows", off_by_one)
    with pytest.raises(InternalConsistencyError, match="layer 0 is not divisible by 3"):
        cotangent_dimension(point, relations)


def test_rank_against_oracle_exits_2_from_the_command_line(monkeypatch, tmp_path, capsys):
    path = tmp_path / "job.rg"
    path.write_text(
        "[ring]\nvars = x\nbase = ZZ\nrelations = x^3 + x + 3\n"
        "[point]\nprime = 3\ngenerators = x^2 + 1\n"
        "[task]\nkind = oracle-crosscheck\n"
    )
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["cotangent"]["oracle"] == 1
    monkeypatch.setattr(jobfile, "cotangent_dimension", lambda point, relations: 99)
    assert main([str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {
            "kind": "internal-consistency",
            "message": "rank-based cotangent dimension 1 disagrees with the direct count 99",
        }
    }
