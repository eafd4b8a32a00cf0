"""Command line front end: ``regulus <job-file> [--report <path>] [--pretty]``.

The report document always goes to stdout; ``--report`` (or a ``report =``
key in the job's [task] section, which the flag overrides) additionally
writes it to a file.  Exit codes: 0 computed (regular or not), 1 usage or
job-file problem, 2 mathematical rejection, 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import JobFileError, RegulusError
from .jobfile import parse_job, run_job


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract reserves 2
    # for mathematical rejections, so route usage problems to exit 1
    def error(self, message):
        raise JobFileError("usage: %s" % message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="regulus",
        description="Decide regularity of closed points from a job file.",
    )
    parser.add_argument("job_file", help="path to a sectioned job file")
    parser.add_argument(
        "--report", metavar="PATH", help="also write the report document here"
    )
    parser.add_argument(
        "--pretty", action="store_true", help="indent the report for reading"
    )
    return parser


def serialize(doc: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    report_path = None
    pretty = False
    try:
        args = _build_parser().parse_args(argv)
        pretty = args.pretty
        try:
            with open(args.job_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise JobFileError("cannot read job file: %s" % exc) from exc
        job = parse_job(text)
        report_path = args.report or job.report_path
        doc, code = run_job(job)
    except RegulusError as exc:
        doc, code = {"error": exc.as_document()}, exc.exit_code
    out = serialize(doc, pretty)
    sys.stdout.write(out)
    if code == 0 and report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as handle:
                handle.write(out)
        except OSError as exc:
            sys.stderr.write("cannot write report: %s\n" % exc)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
