"""One regulus job in a fresh interpreter, as a user runs it.

    python3 child.py SRC_DIR JOB_FILE [TRACE]

Times ``import regulus.cli`` (set-up) and then ``regulus.cli.main`` on the
job file with stdout captured, and prints one JSON line: set-up seconds,
job seconds, exit code, the report document, peak RSS, the time of the
machine-speed reference run after the job (``reference.py``) and, when
TRACE is 1, the spans recorded by ``tracer``.

    python3 child.py SRC_DIR --oracle JOB_FILE...

instead prints, per job file, the cotangent dimension that
``regulus.oracle.cotangent_dimension`` computes for the job's point and
relations (the benchmark's output check, run outside any timed region).
"""

import sys
import time


def run_job(job_file, trace):
    start = time.perf_counter()
    import regulus.cli

    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import resource

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = regulus.cli.main([job_file])
    job_s = time.perf_counter() - start
    spans = tracer.remove() if tracer else None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from reference import timed_reference

    ref_s = timed_reference()
    print(json.dumps({
        "setup_s": setup_s,
        "job_s": job_s,
        "exit": code,
        "report": out.getvalue(),
        "rss_kb": rss_kb,
        "ref_s": ref_s,
        "spans": spans,
    }))


def run_oracle(job_files):
    import json

    from regulus import cotangent_dimension, parse_job

    out = []
    for path in job_files:
        with open(path, encoding="utf-8") as handle:
            job = parse_job(handle.read())
        out.append(cotangent_dimension(job.point, list(job.relations)))
    print(json.dumps(out))


def main(argv):
    sys.path.insert(0, argv[1])
    if argv[2] == "--oracle":
        run_oracle(argv[3:])
    else:
        run_job(argv[2], len(argv) > 3 and argv[3] == "1")


if __name__ == "__main__":
    main(sys.argv)
