#!/usr/bin/env python3
"""In-process A/B timing of two trees on one benchmark corpus.

    python3 scripts/ab_inprocess.py OLD NEW [--workload W] [--seed S] [--rounds R] [--pairs N]
                                            [--out DIR]

OLD and NEW are checkouts of this repository.  OLD's
`perfbench/workloads.py` writes the corpus of workload W, seed S and R
rounds once, into DIR (a temporary directory by default).  Each of the N
pairs then runs one fresh interpreter per tree, OLD first on even pairs
and NEW first on odd ones.  An interpreter puts its own tree's `src` first
on `sys.path` and checks that `qsheaf` was imported from there: a
module that puts another tree's `src` first (as `perfbench/workloads.py`
does for its own) would otherwise measure one tree twice.  It runs every
job of the corpus once to warm up, then times `PASSES` more passes.  Each pass
is divided by the median of perfbench's `speed.calibration_slice`, taken
just before and just after it, to give it at the reference speed
(`speed.CAL_REF_S` per slice), and the interpreter reports its best pass.
The script prints each pair, then each side's median and quartiles, the
pairs NEW won, and whether the two trees gave the same machine bodies.  perfbench is imported, never written, and
only the standard library is used.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SLICES = 51  # calibration slices taken between two timed passes
PASSES = 3  # timed passes per interpreter; one left pairs flipping by 30 % on a shared host


def _speed():
    """perfbench/speed.py of this tree, which imports nothing of qsheaf."""
    spec = importlib.util.spec_from_file_location("perfbench_speed", ROOT / "perfbench" / "speed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child(tree: pathlib.Path, corpus: pathlib.Path) -> dict:
    """Warm up on the corpus, then time `PASSES` more passes of it, in this
    interpreter, on the qsheaf of tree."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import qsheaf
    from qsheaf import cli

    if pathlib.Path(qsheaf.__file__).resolve().parent.parent != src:
        raise AssertionError("qsheaf imported from %s, not from %s" % (qsheaf.__file__, src))
    speed = _speed()
    with open(corpus / "manifest.json", encoding="utf-8") as handle:
        jobs = [
            cli.JobSpec(job["command"], (job["name"],), seed_file=job["seed_file"], machine=True)
            for batch in json.load(handle)
            for job in batch
        ]
    os.chdir(corpus)
    for spec in jobs:
        cli.run(spec).machine_text()
    before = [speed.calibration_slice() for _ in range(SLICES)]
    timed, digests = [], set()
    for _ in range(PASSES):
        gc.collect()
        sha = hashlib.sha256()
        start = perf_counter()
        for spec in jobs:
            sha.update(cli.run(spec).machine_text().encode("utf-8"))
        wall = perf_counter() - start
        after = [speed.calibration_slice() for _ in range(SLICES)]
        timed.append(wall * speed.CAL_REF_S / statistics.median(before + after))
        digests.add(sha.hexdigest())
        before = after
    return {"qsheaf": qsheaf.__file__, "ref_s": min(timed), "bodies": sorted(digests)}


def _run_side(tree: pathlib.Path, corpus: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = str(pathlib.Path(__file__).resolve())
    done = subprocess.run(
        [sys.executable, "-B", script, "--child", str(tree), str(corpus)],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _summary(values) -> str:
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return "median %.2f ms [quartiles %.2f, %.2f]" % (
        1000 * statistics.median(values), 1000 * q1, 1000 * q3
    )


def compare(old: pathlib.Path, new: pathlib.Path, args) -> int:
    """Print the pairs and their summary; 0 when both trees gave the same
    machine bodies on every pass, else 1."""
    workload, seed, rounds = args.workload, args.seed, args.rounds
    with tempfile.TemporaryDirectory() as tmp:
        corpus = pathlib.Path(args.out or tmp) / ("%s-%d" % (workload, seed))
        subprocess.run(
            [sys.executable, "-B", str(old / "perfbench" / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--rounds", str(rounds), "--out", str(corpus)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times = {"old": [], "new": []}
        bodies = {"old": set(), "new": set()}
        won = 0
        for k in range(args.pairs):
            order = ("old", "new") if k % 2 == 0 else ("new", "old")
            got = {side: _run_side(old if side == "old" else new, corpus) for side in order}
            for side in order:
                times[side].append(got[side]["ref_s"])
                bodies[side].update(got[side]["bodies"])
            won += got["new"]["ref_s"] < got["old"]["ref_s"]
            print("pair %d (%s first): old %.2f ms, new %.2f ms" % (
                k, order[0], 1000 * got["old"]["ref_s"], 1000 * got["new"]["ref_s"]), flush=True)
    print("%s seed %d, %d round(s), at the reference speed:" % (workload, seed, rounds))
    print("old  " + _summary(times["old"]))
    print("new  " + _summary(times["new"]))
    print("new faster in %d of %d pairs" % (won, args.pairs))
    same = len(bodies["old"] | bodies["new"]) == 1
    print("machine bodies: " + ("identical" if same else "DIFFER"))
    return 0 if same else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(child(pathlib.Path(argv[1]), pathlib.Path(argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--workload", default="closure-lift", choices=("sheaf-qc", "closure-lift", "hill-lattice"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="directory for the corpus (default: a temporary one)")
    args = parser.parse_args(argv)
    if min(args.pairs, args.rounds) < 1:
        parser.error("--pairs and --rounds must be at least 1")
    return compare(args.old.resolve(), args.new.resolve(), args)


if __name__ == "__main__":
    sys.exit(main())
