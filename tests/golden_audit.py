"""Run every job of the benchmark's golden seeds 1-3 once, through
``regulus.cli.main``, and check the run five ways.  It takes no option, runs
from any directory, and exits 1 naming every check that failed.

- digests: the tests never compare report bytes.  Reports carry dimensions,
  never basis coefficients, so the coefficient guard stays the sympy test.
- Groebner reference: the digests cannot see a wrong basis, so each input
  the run hands to ``groebner_basis`` (over ZZ, relations mod p) must give
  tests/helpers.py's reference basis term for term, in order.  That loop
  runs on exponent tuples and shares no code with the engine.
- parser reference: each polynomial the run parses must get the same terms,
  insertion order and coefficient types from the one-loop parser and from
  the reference, which descends recursively and merges term by term.
- oracle agreement: at every point of every job that exits 0, theorem-f
  fiber points too (relations mod p), the oracle must count n - rank, plus
  1 over ZZ.  Only points above an oracle bound are skipped; at least 1,200
  ZZ points keep the arithmetic count covered.
- certificate: every residue tower must be proven a field.  An unproven one
  inverts without the norm and ranks the generators, which changes no
  report, only slows the benchmark, so this check fails instead.
"""

import collections, contextlib, io, os, pathlib, sys, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, name) for name in ("src", "jobbench", "tests")]

import check, corpus
from helpers import reference_groebner_basis, reference_parse_poly
from regulus import OracleResourceError, PrimeField, cli, cotangent_dimension, groebner
from regulus import groebner_basis, jobfile, parse_poly, residue_field
from regulus.poly import reduce_mod


def run_corpus():
    """Run every golden job once, with hooks recording the run, and check the
    digests; returns whether they held and the jobs, bases and polynomials."""
    jobs, groebner_inputs, polynomials, missing, bad, checked = [], [], [], [], [], 0

    def record_run(job):
        doc, code = jobfile.run_job(job)
        jobs.append((where, job, doc, code))
        return doc, code

    def record_groebner(gens):
        groebner_inputs.append(list(gens))
        return groebner_basis(gens)

    def record_parse(text, vars, ring):
        polynomials.append((text, vars, ring))
        return parse_poly(text, vars, ring)

    cli.run_job, groebner.groebner_basis, jobfile.parse_poly = record_run, record_groebner, record_parse
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "job")
        for workload in corpus.WORKLOADS:
            for seed in (1, 2, 3):
                specs = corpus.generate(workload, seed)
                golden = check.load_golden(workload, seed, specs)
                if golden is None:
                    missing.append("no golden digests for %s seed %d" % (workload, seed))
                for spec in specs:
                    where = "%s seed %d" % (spec.name, seed)
                    path.write_text(spec.text, encoding="utf-8")
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        code = cli.main([str(path)])
                    errors = check.report_errors(spec, code, out.getvalue(), golden)
                    if errors:
                        bad.append("%s: %s" % (where, "; ".join(errors)))
                    checked += 1
    cli.run_job, groebner.groebner_basis, jobfile.parse_poly = jobfile.run_job, groebner_basis, parse_poly
    print(*missing, *bad, "%d jobs checked, %d mismatched" % (checked, len(bad)), sep="\n")
    return not (missing or bad) and checked > 0, jobs, groebner_inputs, polynomials


def counts(per_base):
    return ", ".join("%s %d" % kv for kv in sorted(per_base.items()))


def check_groebner(groebner_inputs):
    bad = []
    for k, gens in enumerate(groebner_inputs):
        if [list(g.terms.items()) for g in groebner_basis(gens)] != [
                list(g.terms.items()) for g in reference_groebner_basis(gens)[0]]:
            bad.append("input %d over %s: %s" % (k, gens[0].ring.name, ", ".join(map(str, gens))))
    print(*bad, "%d Groebner inputs checked, %d differ from the reference"
          % (len(groebner_inputs), len(bad)), sep="\n")
    return not bad and len(groebner_inputs) >= 1000


def check_parser(polynomials):
    bad, per_base = [], collections.Counter(ring.name for _, _, ring in polynomials)
    for text, vars, ring in polynomials:
        ours, theirs = ([(e, type(c), c) for e, c in poly.terms.items()] for poly in
                        (parse_poly(text, vars, ring), reference_parse_poly(text, vars, ring)))
        if ours != theirs:
            bad.append("over %s in %s: %s" % (ring.name, ", ".join(vars), text))
    print(*bad, "polynomials per base: " + counts(per_base), "%d polynomials checked, %d differ "
          "from the reference" % (len(polynomials), len(bad)), sep="\n")
    return not bad and len(polynomials) >= 18000


def check_oracle(jobs):
    checked, skipped, bad, per_base = 0, 0, [], collections.Counter()
    for where, job, doc, code in jobs:
        if code:
            continue
        n, prime, rank = len(job.vars), job.point.prime, doc.get("upstairs", doc)["rank"]
        points = [(job.point, list(job.relations), n + (prime is not None), rank)]
        if job.fiber_points:
            fiber_relations = [reduce_mod(f, PrimeField(prime)) for f in job.relations]
            points += [(fp, fiber_relations, n, fiber["rank"])
                       for fp, fiber in zip(job.fiber_points, doc["fiber"])]
        for k, (point, relations, ambient, rank) in enumerate(points):
            try:
                count = cotangent_dimension(point, relations)
            except OracleResourceError:
                skipped += 1
                continue
            checked += 1
            base = "ZZ" if point.prime else point.ring.name
            per_base[base] += 1
            if count != ambient - rank:
                bad.append("%s point %d: oracle %d, report %d - %d" % (where, k, count, ambient, rank))
    print(*bad, "%d points checked, %d skipped at an oracle bound, %d disagreed"
          % (checked, skipped, len(bad)), "points checked per base: " + counts(per_base), sep="\n")
    return not bad and checked >= 3000 and per_base["ZZ"] >= 1200


def check_certificate(jobs):
    per_base, unproven = collections.Counter(), []
    for where, job, _, _ in jobs:
        for k, point in enumerate([job.point] + list(job.fiber_points or ())):
            tower = residue_field(point)
            base = "QQ" if tower.base.modulus is None else "GF(p)"
            per_base[base] += 1
            if tower.proven < len(tower.levels):
                unproven.append("%s point %d: %s, %d of %d levels proven"
                                % (where, k, tower.describe(), tower.proven, len(tower.levels)))
    print(*unproven, "towers per base: " + counts(per_base),
          "%d towers, %d not fully proven" % (sum(per_base.values()), len(unproven)), sep="\n")
    return not unproven and len(per_base) >= 2


if __name__ == "__main__":
    digests, jobs, groebner_inputs, polynomials = run_corpus()
    passed = {"digests": digests, "Groebner reference": check_groebner(groebner_inputs),
              "parser reference": check_parser(polynomials),
              "oracle agreement": check_oracle(jobs), "certificate": check_certificate(jobs)}
    failed = [name for name, ok in passed.items() if not ok]
    if failed:
        sys.exit("golden audit failed: " + ", ".join(failed))
