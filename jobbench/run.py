"""Job-corpus benchmark for regulus.

    python3 jobbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Generates the workload's corpus of job files from the seed, then runs the
jobs one at a time, each in a fresh interpreter that imports regulus.cli
and calls ``main`` on the job file (closed loop, one client).  Jobs run in
corpus order, a stratum cycle at a time, until S seconds have passed.
Every report is checked (see check.py).  Times are scaled to the nominal
machine speed that reference.py gauges in every job process.

--trace 0 prints the end-to-end metrics; --trace 1 runs each job twice,
untraced and traced, and prints per-layer self time and calls per corpus
pass plus the tracing overhead.  Human-readable lines come first; the last
line of stdout is one JSON object.  ``--workload all`` runs every workload
in turn, each ending with its own JSON line.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
from reference import NOMINAL_S  # noqa: E402
from tracer import LAYER_NAMES, aggregate  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
JOB_TIMEOUT_S = 60
# the oracle cross-check covers the jobs of the corpus's first cycles;
# it costs up to seconds per job, far more than the job itself
ORACLE_CYCLES = 1
ORACLE_TIMEOUT_S = 100


def speed_scale(result):
    """Nominal seconds per measured second in the result's job process:
    its times are multiplied by this to remove the machine's drift."""
    return NOMINAL_S / result["ref_s"]


def run_child(job_file, trace):
    proc = subprocess.run(
        [sys.executable, CHILD, SRC, job_file, "1" if trace else "0"],
        capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return None, "job process exited %d: %s" % (proc.returncode, proc.stderr[-300:])
    try:
        return json.loads(proc.stdout.splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "job process printed no result: %.300r" % proc.stdout


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.specs = corpus.generate(workload, seed)
        self.cycle = len(corpus.WORKLOADS[workload][1])
        self.golden = check.load_golden(workload, seed, self.specs)
        self.job_dir = os.path.join(WORK, "%s-seed%d" % (workload, seed))
        shutil.rmtree(self.job_dir, ignore_errors=True)
        os.makedirs(self.job_dir)
        self.paths = []
        for spec in self.specs:
            path = os.path.join(self.job_dir, spec.name + ".job")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec.text)
            self.paths.append(path)
        self.samples = []   # (corpus index, result, or None when it failed)
        self.failures = []  # (corpus index, reason)
        self.ranks = {}     # corpus index -> (rank, ambient) from a report

    def execute(self, k, trace):
        spec = self.specs[k]
        try:
            result, error = run_child(self.paths[k], trace)
        except subprocess.TimeoutExpired:
            result, error = None, "job process timed out"
        if result is not None:
            errors = check.report_errors(spec, result["exit"], result["report"], self.golden)
            error = "; ".join(errors) or None
            if error is None and spec.oracle and k < ORACLE_CYCLES * self.cycle:
                self.ranks.setdefault(k, check.report_rank(result["report"]))
        if error is not None:
            self.failures.append((k, error))
            result = None
        self.samples.append((k, result))
        return result

    def loop(self, seconds, step, min_steps=0):
        """Call step(corpus index) over the corpus in order, a whole stratum
        cycle at a time, until ``seconds`` have passed and at least
        ``min_steps`` calls were made."""
        start = time.perf_counter()
        k = 0
        while True:
            step(k % len(self.specs))
            k += 1
            if k % self.cycle == 0 and k >= min_steps and time.perf_counter() - start >= seconds:
                return k

    def oracle_check(self, timeout=ORACLE_TIMEOUT_S):
        """Cross-check every oracle-bounded job that ran: the rank in its
        report against cotangent_dimension, in one untimed process."""
        todo = sorted(self.ranks)
        if not todo:
            return
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, SRC, "--oracle"] + [self.paths[k] for k in todo],
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.failures.append((todo[0], "oracle process timed out"))
            return
        if proc.returncode != 0:
            self.failures.append((todo[0], "oracle process failed: %s" % proc.stderr[-300:]))
            return
        for k, cot in zip(todo, json.loads(proc.stdout.splitlines()[-1])):
            rank, ambient = self.ranks[k]
            if ambient - rank != cot:
                self.failures.append(
                    (k, "rank %d gives cotangent %d, oracle says %d" % (rank, ambient - rank, cot))
                )

    def tally(self):
        bad = {k for k, _ in self.failures}
        failed = sum(1 for k, _ in self.samples if k in bad)
        return len(self.samples), failed


def untraced(run, seconds):
    # at least ten samples beyond job_p90_ms even on a slow machine
    run.loop(seconds, lambda k: run.execute(k, False), min_steps=100)
    run.oracle_check()
    good = [r for _, r in run.samples if r is not None]
    job_ms = [r["job_s"] * speed_scale(r) * 1000.0 for r in good]
    p90 = statistics.quantiles(job_ms, n=10)[-1]
    metrics = {
        # the run ends on a whole stratum cycle, so this holds the workload's mix
        "jobs_per_s": (len(job_ms) / (sum(job_ms) / 1000.0), "1/s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(r["setup_s"] * speed_scale(r) for r in good), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in good) / 1024.0, "MB"),
    }
    print("samples: %d jobs in cycles of %d, %d beyond job_p90_ms" % (
        len(job_ms), run.cycle, sum(1 for t in job_ms if t > p90)))
    print("machine speed: reference median %.3f ms (nominal %.3f ms); unscaled job p50 %.1f ms" % (
        statistics.median(r["ref_s"] for r in good) * 1000.0, NOMINAL_S * 1000.0,
        statistics.median(r["job_s"] for r in good) * 1000.0))
    return metrics


def traced(run, seconds):
    """Each job untraced and traced back to back, alternating which goes
    first; spans go to out/ at the end."""
    pairs = []
    spans_out = []

    def step(k):
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        got = {trace: run.execute(k, trace) for trace in order}
        pairs.append((k, got[False], got[True]))
        if got[True] is not None:
            spans_out.append({"job": len(pairs) - 1, "name": run.specs[k].name,
                              "spans": got[True]["spans"]})

    run.loop(seconds, step)
    run.oracle_check()
    totals = {name: [0.0, 0] for name in LAYER_NAMES}
    plain_s = traced_s = 0.0
    jobs = 0
    for _, plain, tr in pairs:
        if plain is None or tr is None:
            continue
        jobs += 1
        plain_s += plain["job_s"] * speed_scale(plain)
        traced_s += tr["job_s"] * speed_scale(tr)
        for name, (self_s, calls) in aggregate(tr["spans"]).items():
            totals[name][0] += self_s * speed_scale(tr)
            totals[name][1] += calls
    per_pass = len(run.specs) / jobs
    metrics = {}
    for name in LAYER_NAMES:
        metrics[name + ".self_s"] = (totals[name][0] * per_pass, "s")
        metrics[name + ".calls"] = (totals[name][1] * per_pass, "count")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    path = os.path.join(WORK, "spans-%s-seed%d.json" % (run.workload, run.seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"layers": LAYER_NAMES, "span_fields": ["id", "parent", "layer", "start", "end"],
                   "jobs": spans_out}, handle)
    print("traced %d jobs (%.2f corpus passes); spans in %s" % (jobs, jobs / len(run.specs), os.path.relpath(path, ROOT)))
    return metrics


def run_workload(workload, seed, seconds, trace):
    """One run; prints the summary and, last, the JSON result line."""
    run = Run(workload, seed)
    print("workload %s (seed %d, %d jobs, golden digests: %s): %s" % (
        workload, seed, len(run.specs), "yes" if run.golden else "no",
        corpus.WORKLOADS[workload][0]))
    metrics = traced(run, seconds) if trace else untraced(run, seconds)
    attempted, failed = run.tally()
    for k, reason in run.failures[:10]:
        print("FAILED %s: %s" % (run.specs[k].name, reason))
    print("%-12s %.6g %s" % ("failed_frac", failed / attempted, "frac"))
    for name, (value, unit) in metrics.items():
        print("%-12s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0 and not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regulus", "cli.py")):
        sys.stderr.write("regulus sources not found under %s\n" % SRC)
        return 2
    workloads = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
