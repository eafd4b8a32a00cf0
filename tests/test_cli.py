import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from regulus.cli import main, parse_args
from regulus.errors import JobFileError
from regulus.jobfile import MAX_FIBER_POINTS, MAX_JOB_CHARS
from regulus.poly import MAX_PARSE_WORK

from helpers import reference_parse_args

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

# the `regulus` an installer put on PATH, looked up before any test runs
INSTALLED_REGULUS = shutil.which("regulus")

CHECK_JOB = """\
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

BAD_MAXIMALITY_JOB = """\
[ring]
vars = x
base = QQ
relations = x^3 - 2*x^2 - 4*x + 8, x^2 - 4

[point]
generators = x^2 - 4

[task]
kind = check
"""

# -1 is not a square modulo 10^18 + 3, which is 3 mod 4
LARGE_PRIME_JOB = """\
[ring]
vars = x, y
base = ZZ
relations = x^2 + 1, x*y - 5

[point]
prime = 1000000000000000003
generators = x^2 + 1, y + 5*x

[task]
kind = check
"""

# the first prime above 3317044064679887385961981, where the primality
# test stops being proven exact
PRIME_ABOVE_BOUND = "3317044064679887385962123"

GUARD_JOB = """\
[ring]
vars = a, b, c, d, e
base = QQ
relations =

[point]
generators = a, b, c, d, e

[task]
kind = oracle-crosscheck
"""


def run_cli(args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "regulus.cli"] + args,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_job(tmp_path, text, name="job.rg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_success(tmp_path):
    path = write_job(tmp_path, CHECK_JOB)
    result = run_cli([path])
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["regular"] is True
    assert doc["rank"] == 1
    assert doc["residue_field"] == "GF(3)[a]/(a^2+1)"


def test_check_at_the_residue_degree_limit_finishes(tmp_path):
    # a single level of degree 256, the residue degree limit: its power
    # chain folds each product past x^255 and skips the tail of every
    # empty overflow degree.  x^256 + x^12 + 2 is irreducible over GF(3),
    # so the residue ring is a field and the verdict means something
    job = CHECK_JOB.replace("x^3 + x + 3", "").replace("x^2 + 1", "x^256 + x^12 + 2")
    result = run_cli([write_job(tmp_path, job)], timeout=60)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["residue_field"] == "GF(3)[a]/(a^256+a^12+2)"
    assert (doc["rank"], doc["dimension"], doc["regular"]) == (0, 2, True)


def test_output_is_byte_identical_across_runs(tmp_path):
    path = write_job(tmp_path, CHECK_JOB)
    first = run_cli([path])
    second = run_cli([path])
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_compact_and_pretty_forms(tmp_path):
    path = write_job(tmp_path, CHECK_JOB)
    compact = run_cli([path]).stdout
    pretty = run_cli([path, "--pretty"]).stdout
    assert compact.endswith("\n")
    assert pretty.endswith("\n")
    doc = json.loads(compact)
    assert compact == json.dumps(doc, separators=(",", ":")) + "\n"
    assert pretty == json.dumps(doc, indent=2) + "\n"
    assert json.loads(pretty) == doc


def test_report_file_written_on_success(tmp_path):
    out = tmp_path / "report.json"
    path = write_job(tmp_path, CHECK_JOB)
    result = run_cli([path, "--report", str(out)])
    assert result.returncode == 0
    assert out.read_text() == result.stdout


def test_report_path_from_job_file(tmp_path):
    out = tmp_path / "from_job.json"
    text = CHECK_JOB.replace("kind = check", "kind = check\nreport = %s" % out)
    path = write_job(tmp_path, text)
    result = run_cli([path])
    assert result.returncode == 0
    assert out.read_text() == result.stdout


def test_report_file_not_written_on_math_rejection(tmp_path):
    out = tmp_path / "report.json"
    path = write_job(tmp_path, BAD_MAXIMALITY_JOB)
    result = run_cli([path, "--report", str(out)])
    assert result.returncode == 2
    assert not out.exists()
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "ideal-not-maximal"
    assert doc["error"]["witness"] == "x - 2"


def test_exit_code_1_for_usage_and_file_problems(tmp_path):
    result = run_cli([])
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "job-file"
    assert "usage" in doc["error"]["message"]

    missing = run_cli([str(tmp_path / "nope.rg")])
    assert missing.returncode == 1
    doc = json.loads(missing.stdout)
    assert "cannot read job file" in doc["error"]["message"]


def cli_parse(argv):
    """``parse_args`` with a usage error read as its message, the form
    ``reference_parse_args`` returns."""
    try:
        return parse_args(argv)
    except JobFileError as exc:
        return exc.message


J, P = "job.rg", "out.json"

ARGV_TABLE = [
    [],
    [J],
    [J, "--pretty"],
    ["--pretty", J],
    [J, "--report", P],
    ["--report=" + P, J],
    ["--report=", J],
    [J, "--rep", P],
    [J, "--pre"],
    ["--rep=" + P, J],
    [J, "--pretty", "--pretty"],
    ["--report", P, J, "--report", "last.json"],
    ["--", J],
    [J, J],
    [J, "a", "b"],
    ["--bogus", J],
    [J, "--report"],
    ["--report", "--pretty", J],
]


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=lambda argv: " ".join(argv) or "empty")
def test_command_line_reads_as_argparse_did(argv):
    assert cli_parse(argv) == reference_parse_args(argv)


def test_command_line_usage_messages():
    assert [cli_parse(argv) for argv in ([], [J, "a", "b"], [J, "--report"])] == [
        "usage: the following arguments are required: job_file",
        "usage: unrecognized arguments: a b",
        "usage: argument --report: expected one argument",
    ]


def test_double_dash_ends_the_options():
    assert [
        cli_parse(argv)
        for argv in (
            ["--pretty", "--", "--report"],
            [J, "--", "K"],
            [J, "--pretty", "--", "K"],
            [J, "--report", "--", P],
        )
    ] == [
        ("--report", None, True),
        "usage: unrecognized arguments: K",
        "usage: unrecognized arguments: K",
        "usage: argument --report: expected one argument",
    ]


# Arguments on which argparse reads alike on every supported Python.  Left
# out: "--" after the job file, where argparse lists the "--" among the
# unrecognized arguments only when another argument separates the two, and
# "-h" with more text in the same argument ("-hx", "-h=x"), which argparse
# reads as a help flag with a value.
ARGUMENTS = [
    J, "K", P, "", "-", "-5", "-1.5", "a b",
    "--pretty", "--pre", "--p", "--pretty=x",
    "--report", "--rep", "--report=" + P, "--rep=Q", "--report=",
    "--bogus", "--bogus=x", "-x", "-h", "--help", "--he", "--help=x",
]


def test_command_line_reads_as_argparse_did_on_random_argv():
    short = [list(argv) for k in range(3) for argv in itertools.product(ARGUMENTS, repeat=k)]
    rng = random.Random(21)
    longer = [rng.choices(ARGUMENTS, k=rng.randint(3, 6)) for _ in range(1500)]
    for argv in short + longer:
        assert cli_parse(argv) == reference_parse_args(argv), argv


HELP_TEXT = """\
usage: regulus [-h] [--report PATH] [--pretty] job_file

Decide regularity of closed points from a job file.

positional arguments:
  job_file       path to a sectioned job file

options:
  -h, --help     show this help message and exit
  --report PATH  also write the report document here
  --pretty       indent the report for reading
"""


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], [J, "-h"], ["--bogus", "-h"]])
def test_help_prints_a_fixed_text_and_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (HELP_TEXT, "")


def test_help_from_the_command_line_exits_0():
    result = run_cli(["-h"])
    assert (result.returncode, result.stdout, result.stderr) == (0, HELP_TEXT, "")


def test_a_job_loads_no_argument_parser(tmp_path):
    # argparse's first use imports gettext and locale and searches for
    # message catalogs: about 3 ms of every job process; -S keeps site out,
    # so sys.modules shows what regulus itself imports
    code = textwrap.dedent("""\
        import sys
        sys.path.insert(0, sys.argv[1])
        import regulus.cli
        code = regulus.cli.main([sys.argv[2]])
        loaded = {"argparse", "gettext", "locale"} & set(sys.modules)
        print(code, *sorted(loaded))
    """)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), write_job(tmp_path, CHECK_JOB)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0"


def test_exit_code_1_for_parse_errors(tmp_path):
    path = write_job(tmp_path, CHECK_JOB.replace("prime = 3", "prime = 4"))
    result = run_cli([path])
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "job-file"
    assert "4 is not prime" in doc["error"]["message"]


def test_large_prime_runs_in_seconds(tmp_path):
    result = run_cli([write_job(tmp_path, LARGE_PRIME_JOB)], timeout=10)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["residue_field"] == "GF(1000000000000000003)[a]/(a^2+1)"
    assert doc["regular"] is True


@pytest.mark.parametrize(
    "text, where",
    [
        (LARGE_PRIME_JOB.replace("1000000000000000003", PRIME_ABOVE_BOUND), "line 7: point.prime"),
        (BAD_MAXIMALITY_JOB.replace("QQ", "GF(%s)" % PRIME_ABOVE_BOUND), "line 3: ring.base"),
    ],
    ids=["point.prime", "ring.base"],
)
def test_exit_code_1_for_prime_beyond_primality_bound(tmp_path, text, where):
    result = run_cli([write_job(tmp_path, text)], timeout=10)
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "job-file"
    assert doc["error"]["message"].startswith(where + ": " + PRIME_ABOVE_BOUND)
    assert "bound of the primality test" in doc["error"]["message"]


def test_exit_code_2_for_point_off_variety(tmp_path):
    text = CHECK_JOB.replace("generators = x^2 + 1", "generators = x - 1")
    path = write_job(tmp_path, text)
    result = run_cli([path])
    assert result.returncode == 2
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "point-not-on-variety"


def test_exit_code_1_for_deep_parentheses(tmp_path):
    nested = "(" * 5000 + "x" + ")" * 5000
    text = CHECK_JOB.replace("relations = x^3 + x + 3", "relations = " + nested)
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "job-file"
    assert "nested deeper than 100" in doc["error"]["message"]


@pytest.mark.parametrize(
    "relation, message",
    [
        ("x^200000 - 1", "exponent 200000 is above the limit of 2000"),
        ("x^1000*x^1001 - 1", "total degree 2001 is above the limit of 2000"),
        ("(x + 1)^1500", "1501 terms are above the limit of 1000"),
    ],
)
def test_exit_code_1_for_oversized_polynomials(tmp_path, relation, message):
    # x^200000 - 1 used to run without output: division peels one degree
    # per step
    text = CHECK_JOB.replace("relations = x^3 + x + 3", "relations = " + relation)
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "job-file"
    assert message in doc["error"]["message"]


@pytest.mark.parametrize(
    "replace, message",
    [
        # both used to end in CPython's 4300-digit int-conversion traceback
        (("relations = x^3 + x + 3", "relations = x - " + "9" * 5000),
         "a literal of 5000 digits is above the limit of 1000"),
        (("relations = x^3 + x + 3", "relations = (2^2000)^2000*(2^2000)^2000"),
         "coefficients of up to 1204120 digits are above the limit of 1000"),
        (("prime = 3", "prime = " + "7" * 1001), "1001 digits are above the limit of 1000"),
        (("kind = check", "kind = check\ndim = \u00b2"), "must be a nonnegative integer"),
    ],
)
def test_exit_code_1_for_oversized_numbers(tmp_path, replace, message):
    result = run_cli([write_job(tmp_path, CHECK_JOB.replace(*replace))])
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "job-file"
    assert message in doc["error"]["message"]


def test_exit_code_1_for_job_file_not_in_utf8(tmp_path):
    path = tmp_path / "job.rg"
    path.write_bytes(CHECK_JOB.encode("utf-8").replace(b"x^3", b"x\xff^3"))
    result = run_cli([str(path)])
    assert result.returncode == 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "job-file"
    assert "cannot read job file" in doc["error"]["message"]


DERIVED_NUMBER_JOB = """\
[ring]
vars = x
base = QQ
relations = (x - {n})*x^{power}

[point]
generators = x - {n}

[task]
kind = check
dim = 0
"""


@pytest.mark.parametrize("power", [20, 1999])
def test_exit_code_3_for_oversized_derived_powers(tmp_path, power):
    # every input number has 300 digits, but the derivative at the point
    # is N^power; both jobs used to end in CPython's 4300-digit
    # int-conversion traceback, x^1999 only after about a minute
    text = DERIVED_NUMBER_JOB.format(n="9" * 300, power=power)
    result = run_cli([write_job(tmp_path, text)], timeout=60)
    assert result.returncode == 3
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["error"] == {
        "kind": "oracle-resource",
        "message": "a derived number of about 4201 digits is above the limit of 4000",
    }


def test_exit_code_3_for_oversized_derived_value(tmp_path):
    # each power N^10 has 3000 digits, the derivative N^10 * N^10 at the
    # point 6000: it is caught where it is printed
    n = "9" * 300
    text = """\
[ring]
vars = x, y
base = QQ
relations = (x - {n})*x^10*y^10

[point]
generators = x - {n}, y - {n}

[task]
kind = check
dim = 1
""".format(n=n)
    result = run_cli([write_job(tmp_path, text)], timeout=60)
    assert result.returncode == 3
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "oracle-resource"
    assert "6001 digits is above the limit of 4000" in doc["error"]["message"]


DIVISION_NUMBER_JOB = """\
[ring]
vars = x
base = {base}
relations = x^2000 - 1

[point]
{prime}generators = x - {n}

[task]
kind = check
dim = 0
"""


@pytest.mark.parametrize("base, prime", [("QQ", ""), ("ZZ", "prime = 5\n")])
def test_exit_code_3_for_oversized_division_quotient(tmp_path, base, prime):
    # dividing by x - N makes quotient coefficients N^k; the remainder
    # N^2000 - 1 has 600,000 digits and took seconds to form
    text = DIVISION_NUMBER_JOB.format(base=base, prime=prime, n="9" * 300)
    result = run_cli([write_job(tmp_path, text)], timeout=20)
    assert result.returncode == 3
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["error"] == {
        "kind": "oracle-resource",
        "message": "a derived number of about 4201 digits is above the limit of 4000",
    }


TAIL_NUMBER_JOB = """\
[ring]
vars = x, y
base = QQ
relations = x - {n}, y - x^{e}

[point]
generators = x - {n}, y - x^{e}

[task]
kind = check
dim = 0
"""


@pytest.mark.parametrize("e", [13, 14])
def test_exit_code_3_for_an_oversized_tail(tmp_path, e):
    # the tail of y is N^e, formed while the tower is built as the power
    # chain of x in the monomial table of level 1: N^13 has 3900 digits,
    # N^14 4201; no division forms either number
    result = run_cli([write_job(tmp_path, TAIL_NUMBER_JOB.format(n="9" * 300, e=e))], timeout=20)
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    if e == 13:
        assert result.returncode == 0 and doc["regular"] is True
        return
    assert result.returncode == 3
    assert doc["error"] == {
        "kind": "oracle-resource",
        "message": "a derived number of about 4201 digits is above the limit of 4000",
    }


def test_high_degree_relation_evaluates(tmp_path):
    # the derivative 1000*x^999 is evaluated at the point; its powers of x
    # must not cost one stack frame per exponent
    text = """\
[ring]
vars = x
base = QQ
relations = x^1000 - 1

[point]
generators = x - 1

[task]
kind = check
dim = 0
"""
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 0
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["regular"] is True
    assert doc["jacobian"] == [["1000"]]


def test_level_two_witness_prints_subtraction(tmp_path):
    # y^2 - 2 splits over QQ(sqrt 2), and y - x is the zero divisor found
    text = """\
[ring]
vars = x, y
base = QQ
relations = (y - x)*(x^2 - 2), x^2 - 2

[point]
generators = x^2 - 2, y^2 - 2

[task]
kind = check
dim = 0
"""
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 2
    assert result.stdout == (
        '{"error":{"kind":"ideal-not-maximal","message":"the ideal is not '
        'maximal: y^2 - 2 has the proper factor y - a","witness":"y - a"}}\n'
    )


def test_level_two_witness_with_several_terms_prints_subtraction(tmp_path):
    # y^2 - 2*x - 3 = (y - x - 1)(y + x + 1) over QQ(sqrt 2)
    text = """\
[ring]
vars = x, y
base = QQ
relations = (y - x - 1)*(x^2 - 2), x^2 - 2

[point]
generators = x^2 - 2, y^2 - 2*x - 3

[task]
kind = check
dim = 0
"""
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 2
    assert result.stdout == (
        '{"error":{"kind":"ideal-not-maximal","message":"the ideal is not '
        'maximal: y^2 - 2*a - 3 has the proper factor y - a - 1",'
        '"witness":"y - a - 1"}}\n'
    )


def test_level_two_witness_keeps_a_several_term_coefficient_in_parentheses(tmp_path):
    # y^2 - x*y + y = y*(y - a + 1) over QQ(sqrt 2): the coefficient -a + 1
    # of y starts with a sign but is not one term, so it is not split
    text = """\
[ring]
vars = x, y
base = QQ
relations = y*(y^2 - x*y + y), y^2 - x*y + y

[point]
generators = x^2 - 2, y^2 - x*y + y

[task]
kind = check
dim = 0
"""
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 2
    assert result.stdout == (
        '{"error":{"kind":"ideal-not-maximal","message":"the ideal is not '
        'maximal: y^2 + (-a + 1)*y has the proper factor y","witness":"y"}}\n'
    )


def test_dependent_generators_above_a_proven_level_exit_2(tmp_path):
    # x^2 + 1 is proven over GF(3); d/dy(y^3 - x) = 3*y^2 vanishes mod 3
    text = """\
[ring]
vars = x, y
base = ZZ
relations = x^2 + 1

[point]
prime = 3
generators = x^2 + 1, y^3 - x

[task]
kind = check
dim = 1
"""
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 2
    assert result.stdout == (
        '{"error":{"kind":"generators-not-independent","message":"the '
        "generators' derivative matrix is singular at the point, so they are "
        "dependent modulo the square of the ideal; choose different "
        'generators"}}\n'
    )


def test_ramified_base_change_with_no_relations_names_a_witness_per_variable(tmp_path):
    # the Jacobian of no relations is 0 x 2, so J v = () is solved by (0, 0)
    text = """\
[ring]
vars = x, y
base = ZZ
relations =

[point]
prime = 3
generators = x, y

[task]
kind = base-change
ramified = true
"""
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 0
    assert result.stdout == (
        '{"task":"base-change","ring":{"base":"ZZ","vars":["x","y"],"relations":[]},'
        '"point":{"prime":3,"generators":["x","y"]},"residue_field":"GF(3)",'
        '"jacobian":[],"extra_column":[],"rank":0,"dimension":3,'
        '"dimension_provenance":"oracle-global-dimension","regular":true,'
        '"base_change":{"ramified":true,"solvable":true,"witness":["0","0"],'
        '"fiber_regular":true},"warnings":["dimension defaulted to the '
        "variety's global ideal dimension; if the component through the point "
        'has smaller dimension, supply dim to override"]}\n'
    )


def test_exit_code_3_for_resource_guard(tmp_path):
    path = write_job(tmp_path, GUARD_JOB)
    result = run_cli([path])
    assert result.returncode == 3
    doc = json.loads(result.stdout)
    assert doc["error"]["kind"] == "oracle-resource"


RESIDUE_DEGREE_JOB = """\
[ring]
vars = x
base = ZZ
relations =

[point]
prime = 3
generators = x^257 + x + 2

[task]
kind = check
"""


def test_exit_code_3_for_residue_degree_above_the_limit(tmp_path):
    # folding a level's power chain grows steeply with its degree, so the
    # residue degree is checked before the level is built
    result = run_cli([write_job(tmp_path, RESIDUE_DEGREE_JOB)], timeout=20)
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "a residue degree of 257 is above the limit of 256",
        }
    }


ORACLE_MATRIX_JOB = """\
[ring]
vars = x, y, z, w
base = ZZ
relations =

[point]
prime = 3
generators = x^4 + x + 2, y^4 + y + 2, z^4 + z + 2, w^4 + w + 2

[task]
kind = oracle-crosscheck
dim = 4
"""


def test_exit_code_3_for_oracle_matrix_above_the_limit(tmp_path):
    # D = 256 passes the residue-degree limit, but the ZZ count is charged
    # 4*256 rows of 5*256 entries; it is refused before any row
    result = run_cli([write_job(tmp_path, ORACLE_MATRIX_JOB)], timeout=20)
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "the Z/p^2 count needs 1310720 matrix entries, above the limit of 1000000",
        }
    }


LINEAR_JOB = """\
[ring]
vars = {vars}
base = QQ
relations = {gens}

[point]
generators = {gens}

[task]
kind = check
dim = 0
"""


def linear_job(n):
    """A QQ job in n variables at the point x_i = 1, with the n generators
    as its relations."""
    names = ["x%d" % i for i in range(1, n + 1)]
    return LINEAR_JOB.format(vars=", ".join(names), gens=", ".join(v + " - 1" for v in names))


def test_exit_code_3_for_rank_work_above_the_limit(tmp_path):
    # r = n = 160: the derivative identity alone would form r*n^2, about 4
    # million tower products; the job is refused before any division
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, linear_job(160))], timeout=20)
    assert time.perf_counter() - start < 1
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "the rank path forms up to 8192000 tower products, above the limit of 600000",
        }
    }


@pytest.mark.parametrize("n", [66, 67])
def test_rank_work_at_the_limit(tmp_path, n):
    # (r + n)*n^2 is 574992 at n = 66, under the limit, and 601526 at n = 67
    result = run_cli([write_job(tmp_path, linear_job(n))], timeout=60)
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    if n == 66:
        assert result.returncode == 0
        assert (doc["rank"], doc["regular"]) == (66, True)
    else:
        assert result.returncode == 3
        assert doc["error"]["message"] == (
            "the rank path forms up to 601526 tower products, above the limit of 600000"
        )


def relations_job(count, last="x - 1"):
    """A QQ job in one variable at x = 1 whose relations, ``x - 1`` and
    then ``last``, fill ``count`` pieces on two ``relations =`` lines."""
    pieces = ["x - 1"] * (count - 1) + [last]
    half = count // 2
    return (
        "[ring]\nvars = x\nbase = QQ\n"
        "relations = %s\nrelations = %s\n"
        "[point]\ngenerators = x - 1\n[task]\nkind = check\ndim = 0\n"
        % (", ".join(pieces[:half]), ", ".join(pieces[half:]))
    )


def test_exit_code_3_for_relations_above_the_limit(tmp_path):
    # the rank-work bound admits 599,999 relations in one variable; the
    # pieces are counted before any is parsed, so the unparsable last one
    # is never reached
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, relations_job(3001, last="x -"))], timeout=20)
    assert time.perf_counter() - start < 1
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "the job lists 3001 relations, above the limit of 3000",
        }
    }


def test_relations_at_the_limit(tmp_path):
    result = run_cli([write_job(tmp_path, relations_job(3000))], timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    doc = json.loads(result.stdout)
    assert (len(doc["ring"]["relations"]), doc["regular"]) == (3000, True)


def test_exit_code_3_for_variables_above_the_rank_work(tmp_path):
    # 6,000 variables and no relations (82 KB): (0 + n)*n^2 is refused as
    # soon as the relations are counted.  Parsing the generators and
    # checking the point are both quadratic in n, and the job used to run
    # about 19 s before the same refusal
    names = ", ".join("x%d" % i for i in range(6000))
    text = (
        "[ring]\nvars = %s\nbase = QQ\n[point]\ngenerators = %s\n"
        "[task]\nkind = check\n" % (names, names)
    )
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, text)], timeout=60)
    assert time.perf_counter() - start < 1
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "the rank path forms up to 216000000000 tower products, above the limit of 600000",
        }
    }


@pytest.mark.parametrize("extra", [0, 1])
def test_job_file_at_and_above_the_character_limit(tmp_path, extra):
    # a comment pads CHECK_JOB to the limit, plus one character
    text = CHECK_JOB + "#" * (MAX_JOB_CHARS - len(CHECK_JOB) - 1 + extra) + "\n"
    assert len(text) == MAX_JOB_CHARS + extra
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, text)], timeout=20)
    assert time.perf_counter() - start < 1
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    if not extra:
        assert (result.returncode, doc["regular"]) == (0, True)
        return
    assert result.returncode == 3
    assert doc == {
        "error": {
            "kind": "oracle-resource",
            "message": "the job is longer than the limit of 200000 characters",
        }
    }


FIBER_POINTS_JOB = """\
[ring]
vars = x
base = ZZ

[point]
prime = 3
generators = x

[task]
kind = theorem-f
ramified = true
dim = 2
"""


@pytest.mark.parametrize("extra", [0, 1])
def test_fiber_points_at_and_above_the_limit(tmp_path, extra):
    # the points are counted before any of them is parsed; 4,000 of them
    # used to run for 1.5 s
    count = MAX_FIBER_POINTS + extra
    text = FIBER_POINTS_JOB + "fiber_points = x\n" * count
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, text)], timeout=20)
    elapsed = time.perf_counter() - start
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    if not extra:
        assert result.returncode == 0
        assert len(doc["fiber"]) == MAX_FIBER_POINTS
        return
    assert elapsed < 1
    assert result.returncode == 3
    assert doc == {
        "error": {
            "kind": "oracle-resource",
            "message": "the job lists 501 fiber points, above the limit of 500",
        }
    }


# x*y - 1 does not vanish at (2, x, y), and the fiber point has one
# generator for two variables
INVALID_FIBER_POINT_JOB = """\
[ring]
vars = x, y
base = ZZ
relations = x*y - 1

[point]
prime = 2
generators = x, y

[task]
kind = theorem-f
ramified = true
fiber_points = x
"""


def test_an_invalid_fiber_point_is_reported_before_the_upstairs_check(tmp_path):
    # the points are made, and check themselves, when the job is parsed;
    # the upstairs point-not-on-variety rejection used to come first
    result = run_cli([write_job(tmp_path, INVALID_FIBER_POINT_JOB)])
    assert result.returncode == 2
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "invalid-point",
            "message": "expected 2 generators for variables (x, y), got 1",
        }
    }
    valid = INVALID_FIBER_POINT_JOB.replace("fiber_points = x", "fiber_points = x, y")
    result = run_cli([write_job(tmp_path, valid)])
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"]["kind"] == "point-not-on-variety"


def test_job_file_errors_come_before_an_invalid_point(tmp_path):
    # the main point is not monic and the last [task] key is empty: every
    # job-file check runs before any point checks itself
    text = CHECK_JOB.replace("x^2 + 1", "2*x^2 + 1") + "report =\n"
    result = run_cli([write_job(tmp_path, text)])
    assert result.returncode == 1
    assert json.loads(result.stdout)["error"] == {
        "kind": "job-file",
        "message": "line 12: task.report must not be empty",
    }
    result = run_cli([write_job(tmp_path, text.replace("report =\n", ""))])
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"] == {
        "kind": "invalid-point",
        "message": "generator 1 is not monic in its main variable x",
    }


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_exit_code_3_for_an_endless_job_file():
    # the whole file used to be read: memory grew until a MemoryError
    # traceback, or until the machine ran out
    start = time.perf_counter()
    result = run_cli(["/dev/zero"], timeout=20)
    assert time.perf_counter() - start < 1
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout)["error"] == {
        "kind": "oracle-resource",
        "message": "the job is longer than the limit of 200000 characters",
    }


DEGREE_EIGHT_ORACLE_JOB = """\
[ring]
vars = x, y
base = QQ
relations = y^2 - x^3

[point]
generators = x^4 - 2, y^2 - x^3

[task]
kind = oracle-crosscheck
dim = 1
"""


def test_field_oracle_counts_above_the_groebner_degree_bound(tmp_path):
    # (y^2 - x^3)^2 has degree 8, above the Groebner engine's input bound
    # of 6; the field count walks rows instead and needs no basis
    result = run_cli([write_job(tmp_path, DEGREE_EIGHT_ORACLE_JOB)], timeout=20)
    assert result.returncode == 0
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["cotangent"] == {"rank_based": 1, "oracle": 1, "agree": True}


README_ZZ_JOB = """\
[ring]
vars = x
base = ZZ
relations = {relation}

[point]
prime = 3
generators = x

[task]
kind = oracle-crosscheck
dim = 1
"""


@pytest.mark.parametrize(
    "relation, report",
    [
        (
            "9",
            '{"task":"oracle-crosscheck","ring":{"base":"ZZ","vars":["x"],"relations":["9"]},'
            '"point":{"prime":3,"generators":["x"]},"residue_field":"GF(3)","jacobian":[["0"]],'
            '"extra_column":["0"],"rank":0,"dimension":1,"dimension_provenance":"user-supplied",'
            '"regular":false,"cotangent":{"rank_based":2,"oracle":2,"agree":true},"warnings":[]}',
        ),
        (
            "3",
            '{"task":"oracle-crosscheck","ring":{"base":"ZZ","vars":["x"],"relations":["3"]},'
            '"point":{"prime":3,"generators":["x"]},"residue_field":"GF(3)","jacobian":[["0"]],'
            '"extra_column":["1"],"rank":1,"dimension":1,"dimension_provenance":"user-supplied",'
            '"regular":true,"cotangent":{"rank_based":1,"oracle":1,"agree":true},"warnings":[]}',
        ),
    ],
)
def test_readme_zz_examples_agree_with_the_oracle(tmp_path, relation, report):
    # README's two one-variable ZZ cases at p = 3, point x, with dim = 1:
    # Z/9[x] has a 2-dimensional cotangent space, F_3[x] a 1-dimensional one
    result = run_cli([write_job(tmp_path, README_ZZ_JOB.format(relation=relation))])
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == report + "\n"


# three dense QQ relations at the origin with no dim: the default dimension's
# basis computation would subtract about 34 million weighted tail terms
REDUCTION_WORK_JOB = """\
[ring]
vars = x, y, z, w
base = QQ
relations = 4*x^2*y^1*z^1*w^1 + 3*y^3*w^2 - 6*x^3*y^1*z^2 - 4*x^1*z^1*w^2 + 9*x^4*y^2 + 4*x^3*w^2 - 4*x^2*y^2*w^2 + 5*x^1*y^4 + 7*z^1*w^1 + 2*x^1*y^2, -3*x^2*y^1*z^1 + 6*x^1*y^1*z^2 + 9*y^1*w^5 + 3*y^1*z^1 - 7*w^1 - 1*w^2 + 7*y^2*z^1 - 3*x^4*z^1*w^1 - 2*y^2*z^1*w^2 + 5*y^1*z^3, 6*x^2*z^3*w^1 - 8*x^2*y^4 + 3*x^3*z^2 + 5*x^1*w^3 - 6*z^2*w^4 - 1*y^5 - 6*x^1*z^1*w^1 - 1*y^4*z^2 + 1*x^1*y^2*z^1 + 4*x^3*z^1
[point]
generators = x, y, z, w
[task]
kind = check
"""


def test_exit_code_3_for_groebner_reduction_work_above_the_limit(tmp_path):
    # unbounded, this job runs about 8.5 s; it stops at the million-term
    # limit in about 0.5 s
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, REDUCTION_WORK_JOB)], timeout=60)
    assert time.perf_counter() - start < 10
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "basis computation exceeded the reduction work limit (1000000 terms subtracted)",
        }
    }


def test_exit_code_3_for_groebner_reduction_work_with_large_coefficients(tmp_path):
    # the same relations with 51-digit coefficients: counted by terms alone
    # they ran about 30 s before the limit stopped them; weighted by the
    # coefficients' size they stop in about 0.4 s
    rng = random.Random(51)
    text = re.sub(
        r"(?<![\^\d])(\d+)\*",
        lambda m: m.group(1) + "".join(rng.choice("0123456789") for _ in range(50)) + "*",
        REDUCTION_WORK_JOB,
    )
    assert len(re.findall(r"(?<![\^\d])\d{51}\*", text)) == 30
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, text)], timeout=120)
    assert time.perf_counter() - start < 10
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "basis computation exceeded the reduction work limit (1000000 terms subtracted)",
        }
    }


# (x - 1)^999 + x - 1 is 18 characters; unbounded, multiplying out its
# power took about 3.4 s over QQ, and 40 copies about 111 s
PARSE_WORK_JOB = """\
[ring]
vars = x
base = QQ
relations = {relations}
[point]
generators = x - 1
[task]
kind = check
dim = 0
"""


@pytest.mark.parametrize("count", [1, 40])
def test_exit_code_3_for_parse_work_above_the_limit(tmp_path, count):
    text = PARSE_WORK_JOB.format(relations=", ".join(["(x - 1)^999 + x - 1"] * count))
    start = time.perf_counter()
    result = run_cli([write_job(tmp_path, text)], timeout=60)
    assert time.perf_counter() - start < 10
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "error": {
            "kind": "oracle-resource",
            "message": "multiplying out products and powers is above the parse work limit of %d"
            % MAX_PARSE_WORK,
        }
    }


def read_project_scripts(text):
    """The ``[project.scripts]`` table of a pyproject.toml.

    A reader of its own rather than tomllib, which Python 3.10 lacks. Reads
    only the flat ``name = "module:attr"`` lines that table holds.
    """
    scripts = {}
    in_table = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table:
            match = re.match(r"""([\w.-]+)\s*=\s*(["'])([^"']*)\2\s*(#.*)?$""", line)
            if match:
                scripts[match.group(1)] = match.group(3)
    return scripts


def write_launcher(bin_dir, name, entry):
    """Write the console-script launcher an installer makes for ``entry``."""
    module, _, attr = entry.partition(":")
    bin_dir.mkdir()
    launcher = bin_dir / name
    shebang = "#!%s\n" % sys.executable
    if " " in sys.executable or len(shebang) > 127:
        # the kernel splits a shebang line at spaces and cuts it at 127
        # bytes; installers then start the interpreter through /bin/sh
        shebang = "#!/bin/sh\n'''exec' \"%s\" \"$0\" \"$@\"\n' '''\n" % (
            sys.executable
        )
    launcher.write_text(
        shebang + "import sys\n"
        "from %s import %s\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(%s())\n" % (module, attr, attr)
    )
    launcher.chmod(0o755)


def test_project_scripts_reader_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text(encoding="utf-8")
    assert read_project_scripts(text) == tomllib.loads(text)["project"]["scripts"]


def test_console_script_is_installed(tmp_path):
    text = PYPROJECT.read_text(encoding="utf-8")
    entry = read_project_scripts(text).get("regulus")
    assert entry == "regulus.cli:main"
    bin_dir = tmp_path / "bin"
    write_launcher(bin_dir, "regulus", entry)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])

    def run_command(args):
        return subprocess.run(["regulus"] + args, capture_output=True, env=env)

    path = write_job(tmp_path, CHECK_JOB)
    result = run_command([path])
    assert result.returncode == 0
    assert json.loads(result.stdout)["regular"] is True
    module_run = subprocess.run(
        [sys.executable, "-m", "regulus.cli", path], capture_output=True
    )
    assert result.stdout == module_run.stdout

    bad = run_command([write_job(tmp_path, BAD_MAXIMALITY_JOB, "bad.rg")])
    assert bad.returncode == 2
    assert json.loads(bad.stdout)["error"]["kind"] == "ideal-not-maximal"


@pytest.mark.skipif(INSTALLED_REGULUS is None, reason="no regulus on PATH")
def test_installed_console_script(tmp_path):
    # the installed entry point reads its flags from sys.argv
    def run_installed(args):
        return subprocess.run([INSTALLED_REGULUS] + args, capture_output=True, text=True)

    path = write_job(tmp_path, CHECK_JOB)
    result = run_installed([path])
    assert result.returncode == 0
    assert json.loads(result.stdout)["regular"] is True

    pretty = run_installed(["--pretty", path])
    assert pretty.returncode == 0
    assert pretty.stdout == json.dumps(json.loads(result.stdout), indent=2) + "\n"

    out = tmp_path / "report.json"
    reported = run_installed(["--report=%s" % out, path])
    assert reported.returncode == 0
    assert out.read_text() == reported.stdout == result.stdout

    helped = run_installed(["-h"])
    assert (helped.returncode, helped.stdout, helped.stderr) == (0, HELP_TEXT, "")
