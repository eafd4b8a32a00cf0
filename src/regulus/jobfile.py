"""Job files in, report documents out.

A job is a sectioned key-value file:

    [ring]
    vars = x, y
    base = ZZ            # or QQ, GF(p)
    relations = x*y - 2
    [point]
    prime = 2
    generators = x, y
    [task]
    kind = base-change   # check | base-change | theorem-f | oracle-crosscheck
    ramified = true

plus optional ``dim`` (local-dimension override), repeatable
``fiber_points`` lines (theorem-f), and ``report`` (output path).  Comments
run from ``#`` to end of line.  File-level problems (syntax, missing or
contradictory keys) raise JobFileError and exit 1; mathematical rejections
(point not on the variety, non-maximal ideal, ...) surface from the
criteria with exit 2, and resource exhaustion with exit 3.

``run_job`` returns a plain document (nested dicts/lists/scalars) with a
fixed key order, so serialized reports are byte-identical for identical
inputs.
"""

from __future__ import annotations

from .criteria import (
    ORACLE_GLOBAL,
    PresentedVariety,
    RegularityReport,
    base_change_verdict,
    check_point,
    special_fiber_verdict,
)
from .errors import (
    InternalConsistencyError,
    JobFileError,
    OracleResourceError,
    RegulusError,
)
from .oracle import cotangent_dimension
from .poly import MAX_DIGITS, PolySyntaxError, TriangularPoint, parse_poly
from .record import Record
from .rings import QQ, ZZ, PrimeField, is_prime

TASKS = ("check", "base-change", "theorem-f", "oracle-crosscheck")

# Each relation costs a division and n^2 re-check products, and
# criteria.MAX_RANK_WORK alone admits 599,999 relations at n = 1.  At this
# limit a QQ job in 8 variables with relations x_i - 1 at x_i = 1 takes
# about 1.9 s on a shared 2-CPU VM.  Counted from the comma-separated
# pieces, so that a huge file is refused before it is parsed.
MAX_RELATIONS = 3000

GLOBAL_DIMENSION_WARNING = (
    "dimension defaulted to the variety's global ideal dimension; if the "
    "component through the point has smaller dimension, supply dim to "
    "override"
)


class Job(Record):
    def __init__(
        self, vars: tuple, ring: object, relations: tuple, point: TriangularPoint,
        task: str, ramified: bool | None, dim: int | None, fiber_points: tuple,
        report_path: str | None,
    ):
        self.vars = vars
        self.ring = ring
        self.relations = relations
        self.point = point
        self.task = task
        self.ramified = ramified
        self.dim = dim
        self.fiber_points = fiber_points
        self.report_path = report_path


# ---- parsing ----------------------------------------------------------


def _split_sections(text: str):
    sections = {"ring": {}, "point": {}, "task": {}}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise JobFileError("line %d: malformed section header" % line_no)
            name = line[1:-1].strip()
            if name not in sections:
                raise JobFileError("line %d: unknown section [%s]" % (line_no, name))
            current = name
            continue
        if "=" not in line:
            raise JobFileError("line %d: expected key = value" % line_no)
        if current is None:
            raise JobFileError("line %d: key outside any section" % line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise JobFileError("line %d: empty key" % line_no)
        sections[current].setdefault(key, []).append((line_no, value))
    return sections


def _take(section_name, section, key, required=False, repeatable=False):
    entries = section.pop(key, [])
    field = "%s.%s" % (section_name, key)
    if required and not entries:
        raise JobFileError("missing required key %s" % field)
    if repeatable:
        return entries
    if len(entries) > 1:
        raise JobFileError(
            "line %d: %s given more than once" % (entries[1][0], field)
        )
    return entries[0] if entries else None


def _reject_unknown(section_name, section):
    for key, entries in section.items():
        line_no = entries[0][0]
        raise JobFileError(
            "line %d: unknown key %s.%s" % (line_no, section_name, key)
        )


def _parse_vars(entry):
    line_no, value = entry
    names = [v.strip() for v in value.split(",")]
    if not all(names) or not names:
        raise JobFileError("line %d: ring.vars must be a comma-separated list" % line_no)
    for name in names:
        if not (name[0].isalpha() and all(c.isalnum() or c == "_" for c in name[1:])):
            raise JobFileError("line %d: ring.vars: bad variable name %r" % (line_no, name))
    if len(set(names)) != len(names):
        raise JobFileError("line %d: ring.vars contains a duplicate name" % line_no)
    return tuple(names)


def _require_prime(line_no, field, p):
    try:
        prime = is_prime(p)
    except ValueError as exc:  # too large for the primality test
        raise JobFileError("line %d: %s: %s" % (line_no, field, exc)) from None
    if not prime:
        raise JobFileError("line %d: %s: %d is not prime" % (line_no, field, p))


def _parse_base(entry):
    line_no, value = entry
    if value == "ZZ":
        return ZZ
    if value == "QQ":
        return QQ
    if value.startswith("GF(") and value.endswith(")"):
        body = value[3:-1].strip()
        if not body.isdecimal():
            raise JobFileError("line %d: ring.base: bad prime in %r" % (line_no, value))
        p = _parse_nonneg((line_no, body), "ring.base")
        _require_prime(line_no, "ring.base", p)
        return PrimeField(p)
    raise JobFileError(
        "line %d: ring.base must be ZZ, QQ, or GF(p), got %r" % (line_no, value)
    )


def _parse_poly_list(entry, field, vars, ring, allow_empty):
    line_no, value = entry
    if not value:
        if allow_empty:
            return ()
        raise JobFileError("line %d: %s must not be empty" % (line_no, field))
    polys = []
    for piece in value.split(","):
        piece = piece.strip()
        if not piece:
            raise JobFileError("line %d: %s has an empty entry" % (line_no, field))
        try:
            polys.append(parse_poly(piece, vars, ring))
        except PolySyntaxError as exc:
            raise JobFileError(
                "line %d: %s: %s" % (line_no, field, exc.message)
            ) from exc
    return tuple(polys)


def _parse_bool(entry, field):
    line_no, value = entry
    if value == "true":
        return True
    if value == "false":
        return False
    raise JobFileError(
        "line %d: %s must be true or false, got %r" % (line_no, field, value)
    )


def _parse_nonneg(entry, field):
    line_no, value = entry
    if not value.isdecimal():
        raise JobFileError(
            "line %d: %s must be a nonnegative integer, got %r" % (line_no, field, value)
        )
    if len(value) > MAX_DIGITS:
        raise JobFileError(
            "line %d: %s: %d digits are above the limit of %d"
            % (line_no, field, len(value), MAX_DIGITS)
        )
    return int(value)


def parse_job(text: str) -> Job:
    sections = _split_sections(text)

    ring_sec = sections["ring"]
    vars = _parse_vars(_take("ring", ring_sec, "vars", required=True))
    ring = _parse_base(_take("ring", ring_sec, "base", required=True))
    relation_entries = _take("ring", ring_sec, "relations", repeatable=True)
    count = sum(value.count(",") + 1 for _, value in relation_entries if value)
    if count > MAX_RELATIONS:
        raise OracleResourceError(
            "the job lists %d relations, above the limit of %d" % (count, MAX_RELATIONS)
        )
    relations = []
    for entry in relation_entries:
        relations.extend(_parse_poly_list(entry, "ring.relations", vars, ring, True))
    _reject_unknown("ring", ring_sec)

    point_sec = sections["point"]
    prime_entry = _take("point", point_sec, "prime")
    gen_entry = _take("point", point_sec, "generators", required=True)
    _reject_unknown("point", point_sec)

    if ring is ZZ:
        if prime_entry is None:
            raise JobFileError("point.prime is required over base ZZ")
        prime = _parse_nonneg(prime_entry, "point.prime")
        _require_prime(prime_entry[0], "point.prime", prime)
    else:
        if prime_entry is not None:
            raise JobFileError(
                "line %d: point.prime is only meaningful over base ZZ"
                % prime_entry[0]
            )
        prime = None
    generators = _parse_poly_list(gen_entry, "point.generators", vars, ring, False)
    point = TriangularPoint(generators, prime=prime)

    task_sec = sections["task"]
    kind_entry = _take("task", task_sec, "kind", required=True)
    ramified_entry = _take("task", task_sec, "ramified")
    dim_entry = _take("task", task_sec, "dim")
    fiber_entries = _take("task", task_sec, "fiber_points", repeatable=True)
    report_entry = _take("task", task_sec, "report")
    _reject_unknown("task", task_sec)

    kind = kind_entry[1]
    if kind not in TASKS:
        raise JobFileError(
            "line %d: task.kind: unknown task %r (expected one of %s)"
            % (kind_entry[0], kind, ", ".join(TASKS))
        )

    needs_ramified = kind in ("base-change", "theorem-f")
    if needs_ramified and ring is not ZZ:
        raise JobFileError(
            "line %d: task.kind: a %s task needs base = ZZ" % (kind_entry[0], kind)
        )
    if needs_ramified and ramified_entry is None:
        raise JobFileError("task.ramified is required for a %s task" % kind)
    if not needs_ramified and ramified_entry is not None:
        raise JobFileError(
            "line %d: task.ramified only applies to base-change and theorem-f "
            "tasks" % ramified_entry[0]
        )
    ramified = _parse_bool(ramified_entry, "task.ramified") if ramified_entry else None

    dim = _parse_nonneg(dim_entry, "task.dim") if dim_entry is not None else None
    if kind == "theorem-f" and dim is not None and dim < 1:
        raise JobFileError(
            "line %d: task.dim must be at least 1 for a theorem-f task (the "
            "fiber loses one dimension)" % dim_entry[0]
        )

    if kind != "theorem-f" and fiber_entries:
        raise JobFileError(
            "line %d: task.fiber_points only applies to a theorem-f task"
            % fiber_entries[0][0]
        )
    fiber_points = []
    if kind == "theorem-f":
        if not fiber_entries:
            raise JobFileError("task.fiber_points is required for a theorem-f task")
        fiber_field = PrimeField(prime)
        for entry in fiber_entries:
            gens = _parse_poly_list(
                entry, "task.fiber_points", vars, fiber_field, False
            )
            fiber_points.append(TriangularPoint(gens, prime=None))

    report_path = report_entry[1] if report_entry else None
    if report_entry and not report_path:
        raise JobFileError("line %d: task.report must not be empty" % report_entry[0])

    return Job(
        vars=vars,
        ring=ring,
        relations=tuple(relations),
        point=point,
        task=kind,
        ramified=ramified,
        dim=dim,
        fiber_points=tuple(fiber_points),
        report_path=report_path,
    )


# ---- report documents -------------------------------------------------


def _ring_echo(job: Job) -> dict:
    return {
        "base": job.ring.name,
        "vars": list(job.vars),
        "relations": [str(f) for f in job.relations],
    }


def _point_echo(point: TriangularPoint) -> dict:
    return {
        "prime": point.prime,
        "generators": [str(g) for g in point.generators],
    }


def _report_fields(report: RegularityReport) -> dict:
    tower = report.tower
    return {
        "residue_field": tower.describe(),
        "jacobian": [[tower.elem_str(e) for e in row] for row in report.jacobian.rows],
        "extra_column": (
            None
            if report.extra_column is None
            else [tower.elem_str(e) for e in report.extra_column]
        ),
        "rank": report.rank,
        "dimension": report.local_dimension,
        "dimension_provenance": report.dimension_provenance,
        "regular": report.regular,
    }


def _warnings(report: RegularityReport) -> list:
    if report.dimension_provenance == ORACLE_GLOBAL:
        return [GLOBAL_DIMENSION_WARNING]
    return []


def run_job(job: Job):
    """Execute the job; returns (document, exit_code)."""
    try:
        return _dispatch(job), 0
    except RegulusError as exc:
        return {"error": exc.as_document()}, exc.exit_code


def _dispatch(job: Job) -> dict:
    X = PresentedVariety(job.vars, job.ring, job.relations)
    doc = {"task": job.task, "ring": _ring_echo(job), "point": _point_echo(job.point)}

    if job.task in ("check", "oracle-crosscheck"):
        report = check_point(X, job.point, job.dim)
        doc.update(_report_fields(report))
        if job.task == "oracle-crosscheck":
            ambient = X.n + (1 if job.point.prime is not None else 0)
            rank_based = ambient - report.rank
            oracle_dim = cotangent_dimension(job.point, list(job.relations))
            if rank_based != oracle_dim:
                raise InternalConsistencyError(
                    "rank-based cotangent dimension %d disagrees with the direct "
                    "count %d" % (rank_based, oracle_dim)
                )
            doc["cotangent"] = {
                "rank_based": rank_based,
                "oracle": oracle_dim,
                "agree": True,
            }
    elif job.task == "base-change":
        verdict = base_change_verdict(X, job.point, job.ramified, job.dim)
        report = verdict.report
        doc.update(_report_fields(report))
        doc["base_change"] = {
            "ramified": verdict.ramified,
            "solvable": verdict.system_solvable,
            "witness": (
                None
                if verdict.witness is None
                else [report.tower.elem_str(v) for v in verdict.witness]
            ),
            "fiber_regular": verdict.fiber_regular,
        }
    elif job.task == "theorem-f":
        result = special_fiber_verdict(
            X, job.point, job.fiber_points, job.ramified, job.dim
        )
        report = result.upstairs
        doc["ramified"] = result.ramified
        doc["upstairs"] = _report_fields(report)
        doc["fiber"] = [
            {"generators": [str(g) for g in fp.generators], **_report_fields(rep)}
            for fp, rep in result.fiber
        ]
        doc["regular_after_base_change"] = result.regular_after_base_change
    else:
        raise InternalConsistencyError("unhandled task %r" % job.task)
    doc["warnings"] = _warnings(report)
    return doc
