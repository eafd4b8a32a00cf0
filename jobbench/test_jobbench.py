"""The benchmark's own tests: ``python3 -m pytest jobbench``.

They run real job processes against the regulus sources next to this
directory, a stratum cycle per workload, and take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracer import aggregate  # noqa: E402

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def first_cycles(tmp_path_factory):
    """Per workload: the first stratum cycle, each job run untraced and
    traced, as (spec, plain result, traced result)."""
    out = {}
    for workload, (_, strata, _) in corpus.WORKLOADS.items():
        job_dir = tmp_path_factory.mktemp(workload)
        rows = []
        for spec in corpus.generate(workload, 1)[: len(strata)]:
            path = str(job_dir / (spec.name + ".job"))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec.text)
            plain, error = run.run_child(path, False)
            assert error is None, error
            traced, error = run.run_child(path, True)
            assert error is None, error
            rows.append((spec, plain, traced))
        out[workload] = rows
    return out


def _calls(rows):
    total = {}
    for _, _, traced in rows:
        for name, (_, calls) in aggregate(traced["spans"]).items():
            total[name] = total.get(name, 0) + calls
    return total


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_identical_job_files(workload):
    first = [(s.name, s.text) for s in corpus.generate(workload, 7)]
    again = [(s.name, s.text) for s in corpus.generate(workload, 7)]
    other = [(s.name, s.text) for s in corpus.generate(workload, 8)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_reports_are_correct_and_unchanged_by_tracing(first_cycles, workload):
    for spec, plain, traced in first_cycles[workload]:
        assert plain["report"] == traced["report"], spec.name
        assert plain["exit"] == traced["exit"] == 0, spec.name
        assert check.report_errors(spec, plain["exit"], plain["report"]) == [], spec.name


def test_layers_are_isolated(first_cycles):
    tower = _calls(first_cycles["tower-rank"])
    default = _calls(first_cycles["dimension-default"])
    crosscheck = _calls(first_cycles["oracle-crosscheck"])
    assert tower["tower.tower_reduce"] > 0 and tower["linalg.rank"] > 0
    assert all(v == 0 for k, v in tower.items() if k.startswith("groebner."))
    assert tower["criteria.default_dimension"] == 0
    assert crosscheck["criteria.default_dimension"] == 0
    assert default["criteria.default_dimension"] > 0
    assert default["groebner.groebner_basis"] > 0
    assert crosscheck["groebner.groebner_basis"] > 0
    assert tower["oracle.cotangent_dimension"] == 0
    assert default["oracle.cotangent_dimension"] == 0
    assert crosscheck["oracle.cotangent_dimension"] == len(first_cycles["oracle-crosscheck"])


def test_theorem_f_default_dimension_baseline(first_cycles):
    """Baseline count, recorded and not asserted: a ramified theorem-f job
    with three fiber points calls default_dimension 7 times today (once
    upstairs, and per fiber point once on the fiber and once at the lifted
    point).  Memoizing the supplier is expected to lower it."""
    for spec, _, traced in first_cycles["dimension-default"]:
        if spec.kind != "theorem-f":
            continue
        counts = aggregate(traced["spans"])
        print("%s: %d default_dimension calls, %d ideal_dimension calls" % (
            spec.name, counts["criteria.default_dimension"][1],
            counts["groebner.ideal_dimension"][1]))
        assert counts["criteria.default_dimension"][1] >= 1


@pytest.mark.parametrize("workload", ["dimension-default", "oracle-crosscheck"])
def test_groebner_inputs_stay_inside_the_oracle_bounds(workload):
    from regulus import parse_job
    from regulus.groebner import MAX_INPUT_DEGREE, MAX_VARIABLES

    for spec in corpus.generate(workload, 1):
        job = parse_job(spec.text)
        assert len(job.vars) <= MAX_VARIABLES, spec.name
        # I + m^2 adds products of two generators
        degrees = [f.total_degree() for f in job.relations]
        degrees += [2 * g.total_degree() for g in job.point.generators]
        assert max(degrees) <= MAX_INPUT_DEGREE, spec.name


def test_tracer_restores_every_patch():
    import regulus.cli
    import regulus.criteria
    import regulus.linalg
    import regulus.tower
    from tracer import Tracer

    before = (
        regulus.criteria.triangular_divide,
        regulus.cli.parse_job,
        regulus.linalg.FieldMatrix.__dict__["rank"],
        regulus.tower.TowerElem.__dict__["__mul__"],
    )
    tracer = Tracer()
    tracer.install()
    assert regulus.criteria.triangular_divide is not before[0]
    assert regulus.cli.parse_job is not before[1]
    tracer.remove()
    after = (
        regulus.criteria.triangular_divide,
        regulus.cli.parse_job,
        regulus.linalg.FieldMatrix.__dict__["rank"],
        regulus.tower.TowerElem.__dict__["__mul__"],
    )
    assert after == before


def test_reference_is_independent_of_regulus():
    """The machine-speed yardstick must not move when regulus changes."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, reference; reference.timed_reference(); "
         "print(sorted(m for m in sys.modules if m.startswith('regulus')))"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_check_rejects_a_wrong_verdict():
    spec = corpus.generate("tower-rank", 1)[0]
    doc = {
        "task": "check", "rank": spec.expect["rank"], "dimension": spec.expect["dimension"],
        "dimension_provenance": "user-supplied", "regular": spec.expect["regular"], "warnings": [],
    }
    good = json.dumps(doc, separators=(",", ":")) + "\n"
    assert check.report_errors(spec, 0, good) == []
    doc["regular"] = not doc["regular"]
    bad = json.dumps(doc, separators=(",", ":")) + "\n"
    assert check.report_errors(spec, 0, bad)
    assert check.report_errors(spec, 2, good)
    assert check.report_errors(spec, 0, good, golden={spec.name: "0:0000"})


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "jobbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "jobbench/run.py", "--workload", "tower-rank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
