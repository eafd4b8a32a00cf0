"""Output checks behind ``failed``: every report against the answer the
corpus construction predicts, against the committed golden bytes for the
committed seeds, and (outside the timed region) every oracle-bounded job's
rank against ``regulus.oracle.cotangent_dimension``."""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

GLOBAL_DIMENSION_WARNING = (
    "dimension defaulted to the variety's global ideal dimension; if the "
    "component through the point has smaller dimension, supply dim to "
    "override"
)


def digest(exit_code, report):
    return "%d:%s" % (exit_code, hashlib.sha256(report.encode("utf-8")).hexdigest()[:16])


def load_golden(workload, seed, specs):
    """{job name: digest} for a committed seed, else None.  The file holds,
    per seed, the digests in corpus order."""
    path = os.path.join(GOLDEN_DIR, workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        digests = json.load(handle).get(str(seed))
    if digests is None:
        return None
    return dict(zip((spec.name for spec in specs), digests))


def _verdict_errors(doc, expect, where):
    errors = []
    for key in ("rank", "dimension", "regular"):
        if doc.get(key) != expect[key]:
            errors.append("%s%s is %r, expected %r" % (where, key, doc.get(key), expect[key]))
    return errors


def _provenance_errors(doc, supplied):
    want = "user-supplied" if supplied else "oracle-global-dimension"
    warnings = [] if supplied else [GLOBAL_DIMENSION_WARNING]
    errors = []
    if doc.get("dimension_provenance") != want:
        errors.append("provenance %r, expected %r" % (doc.get("dimension_provenance"), want))
    if doc.get("warnings") != warnings:
        errors.append("warnings %r, expected %r" % (doc.get("warnings"), warnings))
    return errors


def report_errors(spec, exit_code, report, golden=None):
    """Reasons the job's output is wrong; empty when it is right."""
    expect = spec.expect
    if exit_code != expect["exit"]:
        return ["exit code %r, expected %r" % (exit_code, expect["exit"])]
    if golden is not None and digest(exit_code, report) != golden.get(spec.name):
        return ["report bytes differ from the golden digest"]
    if "report" in expect:
        return [] if report == expect["report"] else ["report differs from README.md"]
    if not report.endswith("\n") or "\n" in report[:-1]:
        return ["report is not a single JSON line"]
    try:
        doc = json.loads(report)
    except ValueError:
        return ["report is not JSON"]
    if not isinstance(doc, dict) or "error" in doc:
        return ["unexpected document %.200r" % (report,)]
    kind = spec.kind
    if doc.get("task") != kind:
        return ["task %r, expected %r" % (doc.get("task"), kind)]
    if kind == "theorem-f":
        errors = _verdict_errors(doc["upstairs"], expect, "upstairs ")
        fibers = doc.get("fiber", [])
        if len(fibers) != spec.fiber_points:
            errors.append("%d fiber reports, expected %d" % (len(fibers), spec.fiber_points))
        fiber_expect = {
            "rank": expect["fiber_rank"],
            "dimension": expect["fiber_dimension"],
            "regular": expect["fiber_regular"],
        }
        for k, fiber in enumerate(fibers):
            errors += _verdict_errors(fiber, fiber_expect, "fiber %d " % k)
        if doc.get("regular_after_base_change") != expect["regular_after_base_change"]:
            errors.append("regular_after_base_change is %r" % doc.get("regular_after_base_change"))
        if doc.get("warnings") != [GLOBAL_DIMENSION_WARNING]:
            errors.append("warnings %r" % doc.get("warnings"))
        return errors
    errors = _verdict_errors(doc, expect, "") + _provenance_errors(doc, expect["supplied_dim"])
    if kind == "base-change":
        bc = doc.get("base_change") or {}
        if bc.get("solvable") != expect["solvable"]:
            errors.append("solvable is %r, expected %r" % (bc.get("solvable"), expect["solvable"]))
        if bc.get("fiber_regular") != expect["fiber_regular"]:
            errors.append("fiber_regular is %r" % bc.get("fiber_regular"))
        if (bc.get("witness") is not None) != bool(expect["solvable"]):
            errors.append("witness %r with solvable %r" % (bc.get("witness"), expect["solvable"]))
    if kind == "oracle-crosscheck":
        c = expect["cotangent"]
        want = {"rank_based": c, "oracle": c, "agree": True}
        if doc.get("cotangent") != want:
            errors.append("cotangent %r, expected %r" % (doc.get("cotangent"), want))
    return errors


def report_rank(report):
    """(rank, ambient) of the report's point: the upstairs point for
    theorem-f.  ambient is n, plus one over ZZ."""
    doc = json.loads(report)
    top = doc.get("upstairs", doc)
    ambient = len(doc["ring"]["vars"]) + (1 if doc["ring"]["base"] == "ZZ" else 0)
    return top["rank"], ambient
