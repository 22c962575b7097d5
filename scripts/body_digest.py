#!/usr/bin/env python3
"""Digest of the machine reports on the benchmark corpus, for parity checks.

    python3 scripts/body_digest.py [--workload W ...] [--seeds 0 1 2] [--rounds 2] [--out DIR]

For each workload and seed, writes `perfbench/workloads.generate(w, seed,
rounds, dir)` into a fresh directory, runs every job from that directory
with relative input paths, and prints the sha256 of the `--machine` bodies
concatenated in job order.  Reports name their inputs, so running from the
corpus directory keeps the digest independent of where it was written.  Two
trees whose digests agree give byte-identical reports on that corpus.
perfbench is imported, never written.
"""

import argparse
import hashlib
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from qsheaf import cli  # noqa: E402


def digest(workload: str, seed: int, rounds: int, outdir) -> str:
    """sha256 hex digest of the machine bodies of one generated corpus."""
    jobs = [job for batch in workloads.generate(workload, seed, rounds, str(outdir)) for job in batch]
    sha = hashlib.sha256()
    here = os.getcwd()
    os.chdir(outdir)
    try:
        for job in jobs:
            spec = cli.JobSpec(job.command, (job.name,), seed_file=job.seed_file, machine=True)
            sha.update(cli.run(spec).machine_text().encode("utf-8"))
    finally:
        os.chdir(here)
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--out", help="directory for the corpora (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(args.out or tmp)
        for workload in args.workload:
            for seed in args.seeds:
                outdir = base / ("%s-%d" % (workload, seed))
                print("%-13s seed %d  %s" % (workload, seed, digest(workload, seed, args.rounds, outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
