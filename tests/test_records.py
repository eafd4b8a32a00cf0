"""The record types: how they compare, hash and refuse assignment, what
their constructors check, and what importing the command line costs."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from regulus import (
    PresentedVariety,
    PrimeField,
    QQ,
    TriangularPoint,
    ZZ,
    base_change_verdict,
    check_point,
    parse_job,
    parse_poly,
    special_fiber_verdict,
)

ROOT = Path(__file__).resolve().parent.parent

VARS = ("x", "y")


def polys(*texts, ring=QQ):
    return tuple(parse_poly(t, VARS, ring) for t in texts)


def test_triangular_point_compares_and_hashes_by_its_fields():
    a = TriangularPoint(polys("x - 1", "y^2 + 1", ring=ZZ), prime=3)
    b = TriangularPoint(polys("x - 1", "y^2 + 1", ring=ZZ), 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != TriangularPoint(a.generators, prime=5)
    assert a != TriangularPoint(polys("x - 2", "y^2 + 1", ring=ZZ), prime=3)
    assert a != (a.generators, 3)


def test_triangular_point_prime_defaults_to_none():
    gens = polys("x", "y")
    point = TriangularPoint(gens)
    assert point.prime is None
    assert point == TriangularPoint(gens, prime=None)
    assert point == TriangularPoint(generators=gens)


def test_triangular_point_is_frozen():
    point = TriangularPoint(polys("x", "y"))
    with pytest.raises(AttributeError):
        point.prime = 3
    with pytest.raises(AttributeError):
        point.generators = ()
    assert point.prime is None


def test_presented_variety_compares_and_hashes_by_its_fields():
    rels = polys("x*y - 1")
    a = PresentedVariety(VARS, QQ, rels)
    b = PresentedVariety(vars=list(VARS), ring=QQ, relations=list(rels))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != PresentedVariety(VARS, QQ, ())
    assert a != (VARS, QQ, rels)


def test_presented_variety_coerces_to_tuples():
    rel = parse_poly("x*y - 1", VARS, QQ)
    X = PresentedVariety(["x", "y"], QQ, [rel])
    assert X.vars == VARS and type(X.vars) is tuple
    assert X.relations == (rel,) and type(X.relations) is tuple
    assert X.n == 2
    assert PresentedVariety(iter(VARS), QQ, iter([])).relations == ()


def test_presented_variety_is_frozen():
    X = PresentedVariety(VARS, QQ, ())
    with pytest.raises(AttributeError):
        X.relations = polys("x")
    with pytest.raises(AttributeError):
        X.ring = ZZ
    assert X.relations == () and X.ring == QQ


@pytest.mark.parametrize("vars", [(), ("x", "x")])
def test_presented_variety_rejects_bad_variables(vars):
    with pytest.raises(ValueError, match="variables must be nonempty and distinct"):
        PresentedVariety(vars, QQ, ())


@pytest.mark.parametrize("ring, names", [(ZZ, VARS), (QQ, ("x", "y", "z"))])
def test_presented_variety_rejects_a_disagreeing_relation(ring, names):
    rel = parse_poly("x*y - 1", names, ring)
    with pytest.raises(ValueError, match="relation disagrees with the declared ring or variables"):
        PresentedVariety(VARS, QQ, (rel,))


JOB = """\
[ring]
vars = x, y
base = ZZ
relations = x*y - 2

[point]
prime = 2
generators = x, y

[task]
kind = theorem-f
ramified = true
fiber_points = x, y
fiber_points = x - 1, y
dim = 1
"""


def test_equal_job_files_parse_to_equal_jobs():
    a, b = parse_job(JOB), parse_job(JOB)
    assert a is not b
    assert a == b
    assert a.point == b.point and a.fiber_points == b.fiber_points
    assert a != parse_job(JOB.replace("dim = 1", "dim = 2"))
    assert a != parse_job(JOB.replace("x - 1, y", "x, y - 1"))


def test_equal_checks_give_equal_records():
    # README's number-ring example: each verdict function, called twice,
    # builds its tower and Jacobian twice, and the records still compare
    # equal; another dim, ramified flag or fiber list gives another record
    vars = ("x",)
    X = PresentedVariety(vars, ZZ, (parse_poly("x^3 + x + 3", vars, ZZ),))
    point = TriangularPoint((parse_poly("x^2 + 1", vars, ZZ),), prime=3)
    fibers = tuple(
        TriangularPoint((parse_poly(g, vars, PrimeField(3)),)) for g in ("x^2 + 1", "x")
    )
    calls = (
        (lambda: check_point(X, point, 1), lambda: check_point(X, point, 0)),
        (
            lambda: base_change_verdict(X, point, False, 1),
            lambda: base_change_verdict(X, point, True, 1),
        ),
        (
            lambda: special_fiber_verdict(X, point, fibers, False, 1),
            lambda: special_fiber_verdict(X, point, fibers[:1], False, 1),
        ),
    )
    for call, changed in calls:
        first, second = call(), call()
        assert first is not second
        assert first == second
        assert first != changed()


def test_readme_library_snippet_runs_as_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["GF(3)[a]/(a^2+1)", "1 1 True"]


# stdlib modules that importing regulus.cli must not load: each costs
# milliseconds per job process, even with bytecode cached
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "copy")


def test_cli_import_loads_no_heavy_stdlib_module():
    # -S keeps site and any .pth preloads out, so sys.modules shows what
    # regulus itself imports
    code = textwrap.dedent("""\
        import sys
        sys.path.insert(0, sys.argv[1])
        import regulus.cli
        print(" ".join(sorted(set(sys.argv[2:]) & set(sys.modules))))
    """)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), *HEAVY_MODULES],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
