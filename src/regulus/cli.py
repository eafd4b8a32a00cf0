"""Command line front end: ``regulus <job-file> [--report <path>] [--pretty]``.

The report document always goes to stdout; ``--report`` (or a ``report =``
key in the job's [task] section, which the flag overrides) additionally
writes it to a file.  Exit codes: 0 computed (regular or not), 1 usage or
job-file problem, 2 mathematical rejection, 3 resource exhaustion.
"""

from __future__ import annotations

import json
import sys

from .errors import JobFileError, RegulusError
from .jobfile import MAX_JOB_CHARS, parse_job, run_job

HELP = """\
usage: regulus [-h] [--report PATH] [--pretty] job_file

Decide regularity of closed points from a job file.

positional arguments:
  job_file       path to a sectioned job file

options:
  -h, --help     show this help message and exit
  --report PATH  also write the report document here
  --pretty       indent the report for reading
"""

_OPTIONS = ("--help", "--report", "--pretty")


def _usage(message):
    # usage problems exit 1: the exit-code contract reserves 2 for
    # mathematical rejections
    return JobFileError("usage: %s" % message)


def _is_negative_number(arg):
    # argparse's -\d+|-\d*\.\d+, which it reads as a positional argument
    whole, dot, frac = arg[1:].partition(".")
    if dot:
        return frac.isdecimal() and (whole == "" or whole.isdecimal())
    return whole.isdecimal()


def _classify(arg):
    """One argument before ``--``, read as argparse reads it.

    Returns ``(name, value)``: a name from ``_OPTIONS`` (a unique prefix
    names it too) with the text after ``=``, or None; ``"?"`` with the
    argument for an unknown option; ``""`` with the argument for a
    positional argument.
    """
    if arg == "-h":
        return "--help", None
    if arg.startswith("--"):
        head, eq, value = arg.partition("=")
        matches = [name for name in _OPTIONS if name.startswith(head)]
        if len(matches) > 1:
            raise _usage("ambiguous option: %s could match %s" % (arg, ", ".join(matches)))
        if matches:
            return matches[0], value if eq else None
    if len(arg) < 2 or arg[0] != "-" or " " in arg or _is_negative_number(arg):
        return "", arg
    return "?", arg


def parse_args(argv):
    """``(job_file, report, pretty)`` from a command line, or None if it
    asks for help.

    Reads ``JOB [--report PATH | --report=PATH] [--pretty]`` in any order,
    with the rules and usage messages of argparse: a unique prefix names an
    option, the last ``--report`` wins, and after ``--`` every argument is
    positional.  Anything else raises a ``usage:`` JobFileError.
    """
    split = argv.index("--") if "--" in argv else len(argv)
    items = [_classify(arg) for arg in argv[:split]]
    if split < len(argv):
        # the "--" stays as an item so that a --report before it takes no value
        items.append(("--", None))
        items += [("", arg) for arg in argv[split + 1:]]
    job_file, report, pretty, extras = None, None, False, []
    items = iter(items)
    for name, value in items:
        if name in ("--help", "--pretty") and value is not None:
            shown = "-h/--help" if name == "--help" else name
            raise _usage("argument %s: ignored explicit argument %r" % (shown, value))
        if name == "--help":
            return None
        if name == "--pretty":
            pretty = True
        elif name == "--report":
            if value is None:
                name, value = next(items, ("--", None))
                if name != "":
                    raise _usage("argument --report: expected one argument")
            report = value
        elif name == "" and job_file is None:
            job_file = value
        elif name != "--":
            extras.append(value)
    if job_file is None:
        raise _usage("the following arguments are required: job_file")
    if extras:
        raise _usage("unrecognized arguments: %s" % " ".join(extras))
    return job_file, report, pretty


def serialize(doc: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    report_path = None
    pretty = False
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(HELP)
            return 0
        job_file, report_path, pretty = args
        try:
            with open(job_file, "r", encoding="utf-8") as handle:
                text = handle.read(MAX_JOB_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise JobFileError("cannot read job file: %s" % exc) from exc
        job = parse_job(text)
        report_path = report_path or job.report_path
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
