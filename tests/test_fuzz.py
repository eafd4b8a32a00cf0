"""Generated job files keep the exit-code contract: exit 0-3 and exactly
one JSON document on stdout, whatever the input."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from regulus import RegulusError
from regulus.cli import main
from regulus.jobfile import parse_job

# small on purpose: literals, exponents and nesting stay tiny, so every job
# finishes well inside the deadline
POLY = st.recursive(
    st.one_of(
        st.integers(0, 12).map(str),
        st.sampled_from(("x", "y")),
        st.tuples(st.sampled_from(("x", "y", "2", "7")), st.integers(0, 4)).map("%s^%d".__mod__),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*")), inner).map(" ".join),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: "(%s)^%d" % t),
        inner.map(lambda s: "-(%s)" % s),
    ),
    max_leaves=6,
)
JUNK = st.one_of(
    st.text(alphabet="xyz0123456789+-*^()/=[] ,\u00b2", max_size=16),
    st.sampled_from(("z", "1/2", "3/0", "x^2001", "x, x", "GF(4)", "maybe", "\u00b2", "x - \u00b2")),
)
# triangular systems in x, y
SYSTEMS = ("x, y", "x - 1, y + x", "x^2 + 1, y - x", "x^2 + x + 1, y^2 + x", "x^2 - 2, y^2 - 3")
TASKS = ("check", "base-change", "theorem-f", "oracle-crosscheck")


@st.composite
def jobs(draw):
    """A well-formed job whose relations vanish at the point, with one line
    in three replaced by junk."""
    pick = lambda *options: draw(st.sampled_from(options))
    gens = pick(*SYSTEMS).split(", ")
    member = st.lists(POLY, min_size=2, max_size=2).map(
        lambda cs: " + ".join("(%s)*(%s)" % pair for pair in zip(cs, gens))
    )
    base = pick("ZZ", "ZZ", "QQ", "GF(2)", "GF(3)", "GF(5)")
    kind = pick(*TASKS) if base == "ZZ" else pick("check", "oracle-crosscheck")
    lines = [
        "[ring]",
        "vars = x, y",
        "base = " + base,
        "relations = " + ", ".join(draw(st.lists(st.one_of(member, POLY), max_size=3))),
        "[point]",
        "prime = " + pick("2", "3", "5") if base == "ZZ" else "",
        "generators = " + ", ".join(gens),
        "[task]",
        "kind = " + kind,
        pick("", "", "dim = 0", "dim = 1", "dim = 2"),
        "ramified = " + pick("true", "false") if kind in TASKS[1:3] else "",
        "fiber_points = " + pick("x, y", "x - 1, y") if kind == "theorem-f" else "",
    ]
    if pick(False, False, True):
        at = draw(st.integers(0, len(lines) - 1))
        key = lines[at].partition(" = ")[0] if " = " in lines[at] else ""
        junk = draw(JUNK)
        lines[at] = "%s = %s" % (key, junk) if key and pick(True, True, True, False) else junk
    return "\n".join(lines) + "\n"


@settings(
    max_examples=200,
    deadline=5000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(jobs())
def test_generated_jobs_keep_the_exit_code_contract(text):
    try:
        parse_job(text)
    except RegulusError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.rg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([path])
    assert code in (0, 1, 2, 3)
    doc = json.loads(out.getvalue())
    assert out.getvalue().count("\n") == 1
    assert isinstance(doc, dict)
    assert ("error" in doc) == (code != 0)
