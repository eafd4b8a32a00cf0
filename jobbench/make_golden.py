"""Write the golden digests for committed seeds, after verifying them.

    python3 jobbench/make_golden.py SEED [SEED...]

For every workload and seed, each job of the corpus runs once in a fresh
job process.  The digests (exit code and the first 16 hex digits of the
report's SHA-256), in corpus order, are written to golden/<workload>.json
only when every job of that seed passes the construction checks in
check.py and every oracle-bounded job's rank agrees with
cotangent_dimension.  A report that fails either check is never recorded;
the script stops instead.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402


def verified_digests(workload, seed):
    result = run.Run(workload, seed)
    result.golden = None
    for k in range(len(result.specs)):
        result.execute(k, False)
        # every oracle-bounded job, not just the first cycles of a run
        spec = result.specs[k]
        r = result.samples[-1][1]
        if r is not None and spec.oracle:
            result.ranks.setdefault(k, check.report_rank(r["report"]))
    result.oracle_check(timeout=3600)
    if result.failures:
        for k, reason in result.failures:
            print("%s: %s" % (result.specs[k].name, reason), file=sys.stderr)
        raise SystemExit("seed %d of %s failed verification; nothing written" % (seed, workload))
    return [check.digest(r["exit"], r["report"]) for _, r in result.samples]


def main(seeds):
    for workload in corpus.WORKLOADS:
        path = os.path.join(check.GOLDEN_DIR, workload + ".json")
        table = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                table = json.load(handle)
        for seed in seeds:
            table[str(seed)] = verified_digests(workload, seed)
            print("%s seed %d: %d jobs verified" % (workload, seed, len(table[str(seed)])))
        os.makedirs(check.GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{\n%s\n}\n" % ",\n".join(
                "%s: %s" % (json.dumps(seed), json.dumps(table[seed])) for seed in sorted(table, key=int)
            ))


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
