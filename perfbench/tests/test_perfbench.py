"""Self-tests of the benchmark: the tracer changes no output, its counts
repeat, it reaches every function it wraps, it restores what it patched,
and the outcome checker is not vacuous.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qsheaf import cli  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One round of every workload: {workload: (indir, jobs)}."""
    out = {}
    for name in workloads.WORKLOADS:
        indir = str(tmp_path_factory.mktemp(name))
        (jobs,) = workloads.generate(name, SEED, 1, indir)
        out[name] = (indir, jobs)
    return out


def traced_pass(indir, jobs):
    rec = tracing.Tracer()
    rec.install()
    try:
        bodies = []
        for i, job in enumerate(jobs):
            rec.job = i
            _, body, problem = bench.run_job(cli, workloads, job, indir)
            assert problem is None, (job.name, problem)
            bodies.append(body)
    finally:
        rec.uninstall()
    return rec, bodies


@pytest.fixture(scope="module")
def passes(corpus):
    """{workload: (plain bodies, tracer, traced bodies)}."""
    out = {}
    for name, (indir, jobs) in corpus.items():
        plain = []
        for job in jobs:
            _, body, problem = bench.run_job(cli, workloads, job, indir)
            assert problem is None, (job.name, problem)
            plain.append(body)
        rec, bodies = traced_pass(indir, jobs)
        out[name] = (plain, rec, bodies)
    return out


def test_traced_and_plain_machine_bodies_are_identical(passes):
    for name, (plain, _, bodies) in passes.items():
        assert len(plain) == len(bodies)
        for a, b in zip(plain, bodies):
            assert a is not None and a == b, name


def test_traced_counts_repeat_for_the_same_seed(corpus, passes):
    indir, jobs = corpus["sheaf-qc"]
    again, _ = traced_pass(indir, jobs)
    first = passes["sheaf-qc"][1]
    assert again.span_counts() == first.span_counts()
    assert again.counts == first.counts
    counts = {k: v for k, v in again.layer_metrics().items() if not k.endswith("_s")
              and not k.endswith("self_frac")}
    assert counts == {k: v for k, v in first.layer_metrics().items() if k in counts}


def test_every_wrapped_function_is_reached(passes):
    reached = set()
    counted = set()
    for _, rec, _ in passes.values():
        reached |= set(rec.span_counts())
        counted |= {k.rsplit(".", 1)[0] for k in rec.counts if k.endswith(".calls")}
    wanted = {layer + "." + attr for layer, attrs in tracing.TARGETS.items() for attr in attrs}
    assert wanted - reached == set()
    generators = {layer + "." + attr
                  for layer, attrs in tracing.COUNTED_GENERATORS.items() for attr in attrs}
    assert generators <= counted


def test_layer_split_matches_the_workload_design(passes):
    metrics = {name: rec.layer_metrics() for name, (_, rec, _) in passes.items()}
    for name in ("sheaf-qc", "closure-lift"):
        shares = {layer: metrics[name][layer + ".self_frac"] for layer in tracing.LAYERS}
        assert max(shares, key=shares.get) == "exactpoly", name
        assert metrics[name]["hill.fp_rref.calls"] == 0
    hill = metrics["hill-lattice"]
    shares = {layer: hill[layer + ".self_frac"] for layer in tracing.LAYERS}
    assert max(shares, key=shares.get) == "hill"
    assert hill["exactpoly.reduce_vec.calls"] == 0 and hill["charts.nf.calls"] == 0


def test_uninstall_restores_every_original():
    before = {
        name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("qsheaf.")
    }
    methods = {
        (cls, attr): cls.__dict__[attr]
        for layer, attrs in tracing.TARGETS.items()
        for cls, attr in (
            (getattr(sys.modules["qsheaf." + layer], a.split(".")[0]), a.split(".")[1])
            for a in attrs if "." in a
        )
    }
    rec = tracing.Tracer()
    rec.install()
    assert sys.modules["qsheaf.sheafrep"].module_kernel is not before["qsheaf.sheafrep"]["module_kernel"]
    rec.uninstall()
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in attrs.items()), name
    assert all(cls.__dict__[attr] is orig for (cls, attr), orig in methods.items())


def _args(workload):
    return argparse.Namespace(workload=workload, seed=SEED, seconds=0.0, trace=0)


def test_wrong_expectation_is_counted_as_failure(corpus):
    indir, jobs = corpus["sheaf-qc"]
    jobs = [workloads.Job(**vars(job)) for job in jobs]
    jobs[0].verdicts = {"quasi-coherent": "fail"}
    jobs[1].certs = dict(jobs[1].certs, findings=["planted wrong"])
    correct, attempted, failed, metrics = bench.end_to_end(
        _args("sheaf-qc"), cli, workloads, indir, [jobs], [0.1], True)
    assert not correct
    assert failed == 2 and attempted == len(jobs)
    assert metrics["ok_frac"][0] == pytest.approx(1 - 2 / len(jobs))


def test_exceptions_are_failures_and_the_loop_goes_on(corpus, monkeypatch):
    indir, jobs = corpus["closure-lift"]
    real = cli.run

    def flaky(spec):
        if spec.command == "split-p1":
            raise ZeroDivisionError("planted")
        return real(spec)

    monkeypatch.setattr(cli, "run", flaky)
    correct, attempted, failed, _ = bench.end_to_end(
        _args("closure-lift"), cli, workloads, indir, [jobs], [0.1], True)
    splits = sum(job.command == "split-p1" for job in jobs)
    assert not correct and attempted == len(jobs) and failed == splits
    _, _, problem = bench.run_job(cli, workloads, next(j for j in jobs if j.command == "split-p1"), indir)
    assert problem == "raised ZeroDivisionError"


def test_other_seed_gives_other_inputs_of_the_same_shape(tmp_path):
    a = workloads.generate("sheaf-qc", SEED, 1, str(tmp_path / "a"))[0]
    b = workloads.generate("sheaf-qc", SEED + 1, 1, str(tmp_path / "b"))[0]
    assert [(j.command, j.name.split("-", 1)[1][:6]) for j in a] == \
        [(j.command, j.name.split("-", 1)[1][:6]) for j in b]
    texts = [open(tmp_path / d / j.name).read() for d, jobs in (("a", a), ("b", b)) for j in jobs]
    assert texts[: len(a)] != texts[len(a):]
    for job in b:
        _, _, problem = bench.run_job(cli, workloads, job, str(tmp_path / "b"))
        assert problem is None, (job.name, problem)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, q = bench.tail([float(i) for i in range(1, 101)])
    assert q == 90 and value == 90.0
    value, q = bench.tail([1.0] * 5)
    assert q == 100
