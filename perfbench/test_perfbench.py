"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They check that inputs are a function of the seed, that one pass of every
workload is all-correct, that the tracing wrappers leave no trace once
removed, and that ``run.py`` keeps its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from epigame.games import parse_game  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "perfbench-tests"


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_generators_are_deterministic():
    for make in (
        lambda rng: gen.guess_game_text(3, 5, rng),
        lambda rng: gen.random_game_text((4, 3), rng),
    ):
        first = make(gen.rng_for(7, "t"))
        assert first == make(gen.rng_for(7, "t"))
        assert first != make(gen.rng_for(8, "t"))
        parse_game(first)


def test_guess_game_payoffs_rescale_minus_the_distance():
    game = parse_game(gen.guess_game_text(3, 4, gen.rng_for(1, "t")))
    for player in game.players:
        points = []
        for profile, values in game.payoffs.items():
            numbers = [int(name[1:]) for name in profile]
            target = gen.TARGET * sum(numbers) / 3
            points.append((-abs(numbers[player] - target), values[player]))
        (x0, y0), (x1, y1) = min(points), max(points)
        scale = (y1 - y0) / (x1 - x0)
        assert scale > 0
        assert all(y == y0 + scale * (x - x0) for x, y in points)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workloads_are_deterministic(name, scratch):
    def kinds(seed):
        workload = workloads.BUILDERS[name](seed, scratch / str(seed))
        workload.close()
        return [request.kind for request in workload.requests]

    assert kinds(5) == kinds(5)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_one_pass_is_all_correct(name, scratch):
    workload = workloads.BUILDERS[name](3, scratch / name)
    verifier = worker.Verifier(workload.requests)
    try:
        latencies, slowdowns = worker.measure(workload.requests, 0, verifier.check)
    finally:
        workload.close()
    assert verifier.failures == []
    assert len(latencies) == len(workload.requests)
    assert len(slowdowns) == 1 and slowdowns[0] > 0
    assert len(verifier.passed) == len(workload.requests)


def test_a_wrong_verdict_is_a_failure(scratch):
    workload = workloads.build_elim(3, scratch / "elim")
    results = [request.call() for request in workload.requests]
    index = next(
        i
        for i, (request, result) in enumerate(zip(workload.requests, results))
        if request.kind == "iterate-gbr" and result.closure_ordinal > 0
    )
    verifier = worker.Verifier(workload.requests)
    verifier.check(results)
    assert verifier.failures == []
    # a later pass that disagrees with an accepted verdict is checked again
    good = results[index]
    results[index] = type(good)(good.stages, good.closure_ordinal, good.stages[0])
    verifier.check(results)
    assert len(verifier.failures) == 1 and verifier.failures[0].startswith("iterate-gbr: ")


def test_median_and_tail_do_not_depend_on_the_number_of_passes():
    # one pass of 30 requests of 1..30 ms: the tail is the one with ten slower
    one_pass = [ms / 1e3 for ms in range(1, 31)]
    for passes in (1, 2, 7):
        figures = worker.latency_figures(one_pass * passes, len(one_pass))
        assert figures["req_p50_ms"] == pytest.approx(15.5)
        assert figures["req_tail_ms"] == pytest.approx(20.0)
        assert figures["samples"] == 30 and figures["passes"] == passes


def test_gauge_runs_its_share_of_reference_work():
    gauge = worker.Gauge()
    for _ in range(4):
        gauge.follow(0.25)  # owes REFERENCE_SHARE of a second in all
    assert gauge.units == round(worker.REFERENCE_SHARE / worker.REFERENCE_UNIT_S)
    assert gauge.seconds > 0 and gauge.slowdown() == pytest.approx(
        gauge.seconds / gauge.units / worker.REFERENCE_UNIT_S
    )


def test_wrappers_record_spans_and_uninstall_cleanly(scratch):
    before = {target: tracing._sites(*target) for target in tracing.TARGETS}
    assert tracing.untraced_problems() == []
    workload = workloads.build_cli(3, scratch / "cli")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in before[("conditions", "models")][1]:
            assert hasattr(vars(owner)[attr], tracing._MARK)
        assert len(before[("conditions", "models")][1]) >= 4  # re-bound by importers
        assert tracing.untraced_problems() != []
        passes = []
        worker.measure(workload.requests, 0, passes.append, tracer)
    finally:
        tracer.uninstall()
        workload.close()
    assert tracing.untraced_problems() == []
    for (module, qualname), (original, sites) in before.items():
        for owner, attr in sites:
            assert vars(owner)[attr] is original, f"{module}.{qualname} at {owner}.{attr}"
    verifier = worker.Verifier(workload.requests)
    verifier.check(passes[0])
    assert verifier.failures == []

    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == len(workload.requests)
    for name, entry in summary.items():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9, name

    path = scratch / "spans.bin"
    tracer.dump(path)
    names, spans = tracing.load_spans(path)
    assert len(spans) == len(tracer.end)
    for name, start, end, parent, request in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_request = spans[parent]
            assert p_start <= start and end <= p_end and request == p_request


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ("0", "1"))
def test_run_prints_every_declared_metric(trace):
    done = _run(["--workload", "elim", "--seed", "2", "--seconds", "0", "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if trace == "1" else declared["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_tree_without_the_program(scratch):
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    done = _run(["--workload", "elim", "--seed", "1", "--seconds", "1", "--trace", "0"], scratch)
    assert done.returncode != 0
    assert done.stdout == ""
