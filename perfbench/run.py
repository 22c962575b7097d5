"""qsheaf benchmark: seeded verification jobs through the CLI entry point,
one client in a closed loop.

    python3 perfbench/run.py --workload sheaf-qc --seed 1 --seconds 20 --trace 0

Each job is `qsheaf.cli.run(JobSpec(..., machine=True))` followed by
`Report.machine_text()`, which is what the `qsheaf` command does, and its
report is checked against the outcome planted by perfbench/workloads.py.
The next job starts only when the previous one has finished.

--trace 0 runs the number of whole rounds of jobs that take --seconds at
the reference speed and prints the end-to-end metrics; jobs_per_s is the
median over rounds of each round's throughput.  Every time in these metrics
is given at a fixed reference speed (perfbench/speed.py): calibration
slices of plain interpreter work run on a timer inside and between the
jobs, and a job's wall time, less its slices, is scaled by how long the
slices around it took.  On a shared host whose speed drifts by tens of
percent, this cancels the drift; the raw wall figures are printed too.

--trace 1 runs a fixed number of rounds, each job once plain and once under
the outside-in tracer (perfbench/tracer.py), checks that both runs give
byte-identical machine reports, writes the spans to .perfbench_work/ and
prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from speed import SpeedLog, at_reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Seconds one round takes at the reference speed at the seed commit (see
# NOTES.md).  They fix the number of rounds a run makes, never a measurement:
# a run of --seconds makes round(seconds / ROUND_S) rounds, so every run of
# one workload and --seconds times the same job shapes, whatever the
# machine's speed, and the tail percentile means the same in every run.
ROUND_S = {"sheaf-qc": 2.42, "closure-lift": 5.16, "hill-lattice": 7.0}
# A run stops early, after a whole round, once its loop has taken this many
# times --seconds of wall time, and says so.  It keeps a run within its time
# limit on a machine at a quarter of the reference speed or less.
WALL_CAP = 4
SETUP_REPEATS = 5
TRACE_ROUNDS_PER_S = 1 / 2.2  # both traced-run passes fit in --seconds
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qsheaf benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload, seed, rounds, indir, repeats):
    """Generate the inputs `repeats` times, each in a fresh interpreter that
    imports qsheaf.cli and writes every input into a new directory; returns
    the time of each at the reference speed, read from the calibration
    slices that ran in that interpreter, the raw wall time of each, and
    whether all repeats wrote the same manifest.  The last repeat writes
    `indir`; the others are deleted untimed."""
    times, walls, manifests = [], [], set()
    for k in range(repeats):
        out = indir if k == repeats - 1 else "%s.%d" % (indir, k)
        command = [
            sys.executable, os.path.join(HERE, "setup_job.py"), "--workload", workload,
            "--seed", str(seed), "--rounds", str(rounds), "--out", out,
        ]
        start = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        done = subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        wall = perf_counter() - start
        slices = json.loads(done.stdout.splitlines()[-1])
        times.append(at_reference_speed(wall, sum(slices), slices))
        walls.append(wall)
        with open(os.path.join(out, "manifest.json"), "rb") as handle:
            manifests.add(handle.read())
        if out != indir:
            shutil.rmtree(out)
    return times, walls, len(manifests) == 1


def run_job(cli, workloads, job, indir):
    """(seconds, machine body or None, problem or None).  Any exception from
    the program counts as a failed job, named by its type."""
    spec = cli.JobSpec(
        job.command,
        (os.path.join(indir, job.name),),
        seed_file=os.path.join(indir, job.seed_file) if job.seed_file else None,
        machine=True,
    )
    start = perf_counter()
    try:
        report = cli.run(spec)
        body = report.machine_text()
    except Exception as err:  # the job loop must keep going
        return perf_counter() - start, None, "raised " + type(err).__name__
    elapsed = perf_counter() - start
    return elapsed, body, workloads.check(job, report)


def tail(times):
    """(value, percentile): the highest whole percentile with at least
    TAIL_BEYOND samples above it, nearest-rank; the maximum when there are
    too few samples."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    q = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(q * n / 100))
    return ordered[rank - 1], q


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_failures(failures):
    for name, problem in failures[:20]:
        print("FAILED %s: %s" % (name, problem))


def end_to_end(args, cli, workloads, indir, rounds, setup_times, deterministic):
    failures, done, sizes = [], [], []
    start = perf_counter()
    with SpeedLog() as log:
        log.calibrate()  # the first and last jobs get slices in their window too
        for jobs in rounds:
            done.extend(jobs)
            sizes.append(len(jobs))
            for job in jobs:
                job_start = perf_counter()
                elapsed, _, problem = run_job(cli, workloads, job, indir)
                log.span(job_start, elapsed)
                if problem:
                    failures.append((job.name, problem))
            if perf_counter() - start >= WALL_CAP * args.seconds:
                break
        log.calibrate()
    wall = perf_counter() - start
    times, walls = log.scaled(), [seconds for _, seconds in log.spans]  # walls include slices
    rates, k = [], 0
    for size in sizes:
        rates.append(size / sum(times[k:k + size]))
        k += size
    n, used = len(times), len(rates)
    tail_s, q = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "ok_frac": ((n - len(failures)) / n, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print("workload %s seed %d: %d jobs in %d rounds, %.2f s, closed loop, one client"
          % (args.workload, args.seed, n, used, wall))
    if used < len(rounds):
        print("note: stopped after %d of %d rounds, at %.1f times --seconds of wall time"
              % (used, len(rounds), WALL_CAP))
    print("times below are at the reference speed; raw wall: job p50 %.4f s, "
          "machine speed %.3f of reference (median over jobs)"
          % (statistics.median(walls), statistics.median(t / w for t, w in zip(times, walls))))
    print("setup_s      %.4f s   median of %d fresh interpreters %s"
          % (metrics["setup_s"][0], len(setup_times), ["%.3f" % t for t in setup_times]))
    print("jobs_per_s   %.4f 1/s median over %d rounds (whole loop, raw wall: %.4f)"
          % (metrics["jobs_per_s"][0], used, n / wall))
    print("job_p50_s    %.4f s   n=%d" % (metrics["job_p50_s"][0], n))
    print("job_tail_s   %.4f s   p%d, n=%d, %d beyond" % (tail_s, q, n, n - math.ceil(q * n / 100)))
    print("failed_frac  %.4f     %d/%d (ok_frac %.4f)"
          % (len(failures) / n, len(failures), n, metrics["ok_frac"][0]))
    print("peak_rss_mb  %.2f MB" % metrics["peak_rss_mb"][0])
    for line in workloads.describe(done):
        print("property " + line)
    report_failures(failures)
    if not deterministic:
        print("FAILED set-up: repeats wrote different inputs for one seed")
    return deterministic and not failures, n, len(failures), metrics


def traced(args, cli, workloads, indir, rounds):
    """Each job runs plain, then again under the tracer, so both passes see
    the same machine state; the tracer is installed only around the traced
    run of each job."""
    from tracer import Tracer

    jobs = [job for batch in rounds for job in batch]
    tracer = Tracer()
    failures = []
    plain_wall = traced_wall = 0.0
    for i, job in enumerate(jobs):
        elapsed, plain, problem = run_job(cli, workloads, job, indir)
        plain_wall += elapsed
        if problem:
            failures.append((job.name, problem))
        tracer.job = i
        tracer.install()
        try:
            elapsed, body, problem = run_job(cli, workloads, job, indir)
        finally:
            tracer.uninstall()
        traced_wall += elapsed
        if problem:
            failures.append((job.name, "traced: " + problem))
        if body != plain:
            failures.append((job.name, "traced machine body differs from the plain one"))
    os.makedirs(WORK, exist_ok=True)
    span_file = os.path.join(WORK, "trace-%s-s%d.tsv" % (args.workload, args.seed))
    tracer.write_tsv(span_file)
    layer = tracer.layer_metrics()
    layer["trace.overhead_frac"] = traced_wall / plain_wall - 1
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    print("workload %s seed %d traced: %d jobs in %d rounds; plain %.2f s, traced %.2f s; spans in %s"
          % (args.workload, args.seed, len(jobs), len(rounds), plain_wall, traced_wall,
             os.path.relpath(span_file, ROOT)))
    for name, (value, unit) in metrics.items():
        print("%-42s %14.6f %s" % (name, value, unit))
    report_failures(failures)
    return not failures, 2 * len(jobs), len(failures), metrics


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qsheaf", "cli.py")):
        print("error: no qsheaf sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from qsheaf import cli

    if args.trace:
        rounds_wanted = max(1, int(args.seconds * TRACE_ROUNDS_PER_S / ROUND_S[args.workload]))
        repeats = 1
    else:
        rounds_wanted = max(2, round(args.seconds / ROUND_S[args.workload]))
        repeats = SETUP_REPEATS
    indir = os.path.join(WORK, "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        setup_times, setup_walls, deterministic = setup(
            args.workload, args.seed, rounds_wanted, indir, repeats)
        print("set-up raw wall: %s" % ["%.3f" % t for t in setup_walls])
        rounds = workloads.read_manifest(indir)
        if args.trace:
            correct, attempted, failed, metrics = traced(args, cli, workloads, indir, rounds)
        else:
            correct, attempted, failed, metrics = end_to_end(
                args, cli, workloads, indir, rounds, setup_times, deterministic)
    finally:
        shutil.rmtree(indir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
