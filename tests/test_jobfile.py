import pytest

from regulus import JobFileError, OracleResourceError, PrimeField, QQ, ZZ, parse_job, run_job
from regulus.jobfile import GLOBAL_DIMENSION_WARNING

NUMBER_RING_JOB = """\
# order of Z[x]/(x^3 + x + 3) at the prime above 3
[ring]
vars = x
base = ZZ
relations = x^3 + x + 3

[point]
prime = 3
generators = x^2 + 1

[task]
kind = check
"""

HYPERBOLA_BASE_CHANGE = """\
[ring]
vars = x, y
base = ZZ
relations = x*y - 2

[point]
prime = 2
generators = x, y

[task]
kind = base-change
ramified = %s
"""

HYPERBOLA_THEOREM_F = """\
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
"""

CROSSCHECK_JOB = """\
[ring]
vars = x, y
base = QQ
relations = x*y - 2

[point]
generators = x - 2, y - 1

[task]
kind = oracle-crosscheck
"""


def expect_error(text, fragment):
    with pytest.raises(JobFileError) as info:
        parse_job(text)
    assert fragment in info.value.message, info.value.message


# ---- parsing -----------------------------------------------------------


def test_parse_happy_path():
    job = parse_job(NUMBER_RING_JOB)
    assert job.vars == ("x",)
    assert job.ring is ZZ
    assert len(job.relations) == 1
    assert job.point.prime == 3
    assert job.task == "check"
    assert job.ramified is None
    assert job.dim is None
    assert job.fiber_points == ()
    assert job.report_path is None


def test_parse_rational_base_and_comments():
    job = parse_job(CROSSCHECK_JOB)
    assert job.ring is QQ
    assert job.point.prime is None


def test_parse_prime_field_base():
    job = parse_job(
        """
[ring]
vars = x
base = GF(5)
relations =

[point]
generators = x - 2

[task]
kind = check
"""
    )
    assert job.ring is PrimeField(5)
    assert job.relations == ()


def test_parse_repeatable_keys():
    job = parse_job(
        """
[ring]
vars = x, y
base = ZZ
relations = x*y - 2
relations = x*y - 2, y^2 - y

[point]
prime = 2
generators = x, y

[task]
kind = theorem-f
ramified = true
fiber_points = x, y
fiber_points = x - 1, y
"""
    )
    assert len(job.relations) == 3
    assert len(job.fiber_points) == 2
    assert job.fiber_points[0].prime is None


def test_parse_report_and_dim():
    job = parse_job(
        NUMBER_RING_JOB.replace("kind = check", "kind = check\ndim = 1\nreport = out.json")
    )
    assert job.dim == 1
    assert job.report_path == "out.json"


# ---- parse errors ------------------------------------------------------


def test_malformed_sections():
    expect_error("[ring\nvars = x\n", "malformed section header")
    expect_error("[shape]\n", "unknown section [shape]")
    expect_error("vars = x\n", "key outside any section")
    expect_error("[ring]\nvars x\n", "expected key = value")
    expect_error("[ring]\n= x\n", "empty key")


def test_unknown_and_missing_keys():
    expect_error(
        NUMBER_RING_JOB.replace("kind = check", "kind = check\ncolor = red"),
        "unknown key",
    )
    expect_error(NUMBER_RING_JOB.replace("vars = x\n", ""), "missing required key ring.vars")
    expect_error(
        NUMBER_RING_JOB.replace("generators = x^2 + 1\n", ""),
        "missing required key point.generators",
    )
    expect_error(NUMBER_RING_JOB.replace("kind = check\n", ""), "missing required key task.kind")


def test_duplicate_single_key_rejected():
    expect_error(
        NUMBER_RING_JOB.replace("base = ZZ", "base = ZZ\nbase = QQ"), "more than once"
    )


def test_vars_validation():
    expect_error(NUMBER_RING_JOB.replace("vars = x", "vars = 2x"), "bad variable name")
    expect_error(NUMBER_RING_JOB.replace("vars = x", "vars = x, x"), "duplicate")
    expect_error(NUMBER_RING_JOB.replace("vars = x", "vars ="), "comma-separated list")


def test_base_validation():
    expect_error(NUMBER_RING_JOB.replace("base = ZZ", "base = RR"), "ring.base")
    expect_error(NUMBER_RING_JOB.replace("base = ZZ", "base = GF(6)"), "6 is not prime")
    expect_error(NUMBER_RING_JOB.replace("base = ZZ", "base = GF(x)"), "bad prime")


def test_poly_errors_carry_field_and_line():
    expect_error(
        NUMBER_RING_JOB.replace("relations = x^3 + x + 3", "relations = x^3 + q"),
        "ring.relations",
    )
    expect_error(
        NUMBER_RING_JOB.replace("generators = x^2 + 1", "generators = "),
        "point.generators must not be empty",
    )
    expect_error(
        NUMBER_RING_JOB.replace("generators = x^2 + 1", "generators = x^2 + 1,,x"),
        "empty entry",
    )


def test_prime_rules():
    expect_error(NUMBER_RING_JOB.replace("prime = 3\n", ""), "point.prime is required")
    expect_error(NUMBER_RING_JOB.replace("prime = 3", "prime = 4"), "4 is not prime")
    expect_error(NUMBER_RING_JOB.replace("prime = 3", "prime = -3"), "nonnegative")
    expect_error(
        CROSSCHECK_JOB.replace("generators", "prime = 5\ngenerators"),
        "only meaningful over base ZZ",
    )


def test_task_rules():
    expect_error(NUMBER_RING_JOB.replace("kind = check", "kind = verify"), "unknown task")
    expect_error(
        NUMBER_RING_JOB.replace("kind = check", "kind = check\nramified = true"),
        "only applies to base-change and theorem-f",
    )
    expect_error(
        NUMBER_RING_JOB.replace("kind = check", "kind = base-change"),
        "task.ramified is required",
    )
    expect_error(
        NUMBER_RING_JOB.replace("kind = check", "kind = base-change\nramified = maybe"),
        "must be true or false",
    )
    expect_error(
        CROSSCHECK_JOB.replace("kind = oracle-crosscheck", "kind = base-change\nramified = true"),
        "needs base = ZZ",
    )
    expect_error(
        NUMBER_RING_JOB.replace("kind = check", "kind = check\nfiber_points = x"),
        "only applies to a theorem-f task",
    )
    expect_error(
        HYPERBOLA_THEOREM_F.replace("fiber_points = x, y\n", ""),
        "task.fiber_points is required",
    )
    expect_error(
        HYPERBOLA_THEOREM_F.replace("ramified = true", "ramified = true\ndim = 0"),
        "at least 1",
    )
    expect_error(
        NUMBER_RING_JOB.replace("kind = check", "kind = check\nreport ="),
        "must not be empty",
    )


# ---- documents ---------------------------------------------------------


def test_check_document():
    doc, code = run_job(parse_job(NUMBER_RING_JOB))
    assert code == 0
    assert doc["task"] == "check"
    assert doc["ring"] == {
        "base": "ZZ",
        "vars": ["x"],
        "relations": ["x^3 + x + 3"],
    }
    assert doc["point"] == {"prime": 3, "generators": ["x^2 + 1"]}
    assert doc["residue_field"] == "GF(3)[a]/(a^2+1)"
    assert doc["jacobian"] == [["a"]]
    assert doc["extra_column"] == ["1"]
    assert doc["rank"] == 1
    assert doc["dimension"] == 1
    assert doc["dimension_provenance"] == "oracle-global-dimension"
    assert doc["regular"] is True
    assert doc["warnings"] == [GLOBAL_DIMENSION_WARNING]


def test_check_document_with_user_dimension():
    doc, code = run_job(
        parse_job(NUMBER_RING_JOB.replace("kind = check", "kind = check\ndim = 1"))
    )
    assert code == 0
    assert doc["dimension_provenance"] == "user-supplied"
    assert doc["warnings"] == []


def test_base_change_documents():
    doc, code = run_job(parse_job(HYPERBOLA_BASE_CHANGE % "true"))
    assert code == 0
    assert doc["regular"] is True
    assert doc["base_change"] == {
        "ramified": True,
        "solvable": False,
        "witness": None,
        "fiber_regular": False,
    }
    doc2, code2 = run_job(parse_job(HYPERBOLA_BASE_CHANGE % "false"))
    assert code2 == 0
    assert doc2["base_change"] == {
        "ramified": False,
        "solvable": None,
        "witness": None,
        "fiber_regular": True,
    }


def test_theorem_f_document():
    doc, code = run_job(parse_job(HYPERBOLA_THEOREM_F))
    assert code == 0
    assert doc["ramified"] is True
    assert doc["upstairs"]["regular"] is True
    assert len(doc["fiber"]) == 1
    assert doc["fiber"][0]["generators"] == ["x", "y"]
    assert doc["fiber"][0]["regular"] is False
    assert doc["fiber"][0]["extra_column"] is None
    assert doc["regular_after_base_change"] is False


def test_crosscheck_document():
    doc, code = run_job(parse_job(CROSSCHECK_JOB))
    assert code == 0
    assert doc["cotangent"] == {"rank_based": 1, "oracle": 1, "agree": True}


def test_run_job_is_deterministic():
    job1 = parse_job(HYPERBOLA_THEOREM_F)
    job2 = parse_job(HYPERBOLA_THEOREM_F)
    assert run_job(job1) == run_job(job2)


# ---- math rejections surface as documents ------------------------------


def test_ideal_not_maximal_document():
    doc, code = run_job(
        parse_job(
            """
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
    )
    assert code == 2
    assert doc["error"]["kind"] == "ideal-not-maximal"
    assert doc["error"]["witness"] == "x - 2"


def test_point_not_on_variety_document():
    doc, code = run_job(
        parse_job(
            CROSSCHECK_JOB.replace("generators = x - 2, y - 1", "generators = x - 1, y - 1")
        )
    )
    assert code == 2
    assert doc["error"]["kind"] == "point-not-on-variety"


def test_resource_guard_document():
    doc, code = run_job(
        parse_job(
            """
[ring]
vars = a, b, c, d, e
base = QQ
relations =

[point]
generators = a, b, c, d, e

[task]
kind = oracle-crosscheck
"""
        )
    )
    assert code == 3
    assert doc["error"]["kind"] == "oracle-resource"


def test_rank_work_is_refused_before_any_polynomial_is_parsed():
    # (1 + 100)*100^2 = 1,010,000 products; neither polynomial would parse
    names = ", ".join("x%d" % i for i in range(100))
    text = (
        "[ring]\nvars = %s\nbase = QQ\nrelations = x0 -\n"
        "[point]\ngenerators = x0 -\n[task]\nkind = check\n" % names
    )
    with pytest.raises(OracleResourceError) as info:
        parse_job(text)
    assert str(info.value) == (
        "the rank path forms up to 1010000 tower products, above the limit of 600000"
    )
